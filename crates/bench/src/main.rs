//! `repro` — regenerate the tables and figures of the DOSA paper.
//!
//! ```text
//! repro [--scale quick|paper] [--seed N] [--out DIR] [--threads N] [--smoke] <command> [workload]
//! commands: info | table2 | fig4 | fig6 | fig7 | fig8 | fig9 | fig10 | fig12 | ablation | bench | lint | all
//! workloads: unet | resnet50 | bert | retinanet
//! ```
//!
//! Every figure runs on one search service built here, and `--threads N`
//! sizes its worker pool (default: all cores), so the thread bound holds
//! for the whole process. Results are bit-identical for every choice;
//! only wall-clock time changes. `--smoke bench` and
//! `--smoke lint` are the seconds-scale CI gates; the service's
//! batching, scheduling, pool, cache and fault contracts are pinned by
//! the `dosa-search` integration tests.

use dosa_accel::HardwareConfig;
use dosa_bench::{
    ablation, fig10_11, fig12, fig4, fig6, fig7, fig8, fig9, info, lint, perf, Scale,
};
use dosa_search::SearchService;
use dosa_workload::Network;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    threads: Option<usize>,
    smoke: bool,
    command: String,
    network: Option<Network>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = Scale::Quick;
    let mut seed = 0u64;
    let mut out = PathBuf::from("output_dir");
    let mut threads = None;
    let mut smoke = false;
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale {v}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(n);
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => positional.push(other.to_string()),
        }
    }
    let (command, workloads) = match positional.split_first() {
        Some((command, rest)) => (command.clone(), rest),
        None => ("help".to_string(), &[][..]),
    };
    // Only fig7 and fig8 serve a workload argument; any other is rejected
    // rather than ignored.
    let network = match workloads {
        [] => None,
        _ if !matches!(command.as_str(), "fig7" | "fig8") => {
            return Err(format!("{command} takes no workload argument"));
        }
        [name] => Some(Network::parse(name).ok_or_else(|| format!("unknown workload {name}"))?),
        _ => return Err(format!("{command} takes at most one workload argument")),
    };
    Ok(Args {
        scale,
        seed,
        out,
        threads,
        smoke,
        command,
        network,
    })
}

fn usage() {
    eprintln!(
        "usage: repro [--scale quick|paper] [--seed N] [--out DIR] [--threads N] <command> [workload]\n\
         commands:\n\
           info    print Tables 1-6\n\
           table2  print Tables 2 and 4 for the default config\n\
           fig4    differentiable-model correlation study\n\
           fig6    loop-ordering comparison (ResNet-50, BERT)\n\
           fig7    DOSA vs random vs BB-BO [workload]\n\
           fig8    comparison to expert baselines [workload]\n\
           fig9    hardware/mapping attribution\n\
           fig10   latency-model accuracy (Figures 10 & 11)\n\
           fig12   Gemmini-RTL optimization + Table 7\n\
           ablation  design-choice ablations (rounding, lr, start points)\n\
           bench   measure the autodiff hot path (record / sweep /\n\
                   full GD step) and regenerate BENCH_6.json at the\n\
                   repository root\n\
           lint    run the workspace invariant checker (dosa-lint):\n\
                   determinism, panic-perimeter, and unsafe-audit\n\
                   rules over every workspace .rs file; exits nonzero\n\
                   on any unsuppressed violation\n\
           all     info, fig4, fig6, fig7, fig8, fig9, fig10 and fig12\n\
                   (not table2, ablation, bench or lint)\n\
         workloads: unet | resnet50 | bert | retinanet\n\
         --threads N caps the service's worker threads (results are\n\
         identical for every N; only wall-clock time changes)\n\
         --smoke bench re-measures quickly and validates every checked-in\n\
         BENCH_*.json by its schema tag; --smoke lint is the CI lint gate"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    let mut builder = SearchService::builder();
    if let Some(n) = args.threads {
        builder = builder.threads(n);
    }
    let service = &builder.build();
    let (scale, seed, out) = (args.scale, args.seed, args.out.as_path());
    println!(
        "repro: scale={:?} seed={} out={} threads={}\n",
        scale,
        seed,
        out.display(),
        args.threads
            .map(|n| n.to_string())
            .unwrap_or_else(|| "auto".into())
    );
    match args.command.as_str() {
        "info" => info::all(),
        "table2" => info::table2(&HardwareConfig::gemmini_default()),
        "fig4" => {
            fig4::run(scale, seed, out);
        }
        "fig6" => {
            fig6::run(service, scale, seed, out);
        }
        "fig7" => match args.network {
            Some(n) => {
                fig7::run_network(service, scale, n, seed, out);
            }
            None => {
                fig7::run(service, scale, seed, out);
            }
        },
        "fig8" => match args.network {
            Some(n) => {
                fig8::run_network(service, scale, n, seed, out);
            }
            None => {
                fig8::run(service, scale, seed, out);
            }
        },
        "fig9" => {
            fig9::run(service, scale, seed, out);
        }
        "fig10" | "fig11" => {
            fig10_11::run(service, scale, seed, out);
        }
        "fig12" | "table7" => {
            fig12::run(service, scale, seed, out);
        }
        "ablation" => {
            ablation::run(service, scale, seed, out);
        }
        "bench" => {
            if args.smoke {
                perf::run_smoke();
            } else {
                perf::run();
            }
        }
        "lint" => {
            let clean = if args.smoke {
                lint::run_smoke()
            } else {
                lint::run()
            };
            if !clean {
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            info::all();
            fig4::run(scale, seed, out);
            fig6::run(service, scale, seed, out);
            fig7::run(service, scale, seed, out);
            fig8::run(service, scale, seed, out);
            fig9::run(service, scale, seed, out);
            fig10_11::run(service, scale, seed, out);
            fig12::run(service, scale, seed, out);
        }
        _ => {
            usage();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
