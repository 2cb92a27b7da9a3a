//! `repro` — regenerate the tables and figures of the DOSA paper.
//!
//! ```text
//! repro [--scale quick|paper] [--seed N] [--out DIR] [--threads N] <command> [workload]
//! commands: info | table2 | fig4 | fig6 | fig7 | fig8 | fig9 | fig10 | fig12 | ablation | all
//! workloads: unet | resnet50 | bert | retinanet
//! ```
//!
//! Every search of a run goes to one search service, built only by the
//! commands that search, and `--threads N` sizes its worker pool
//! (default: all cores), so the thread bound holds for the whole process.
//! Results are bit-identical for every choice; only wall-clock time
//! changes. An unknown option, or a workload argument the command would
//! ignore, is a usage error. The service's batching, scheduling, pool,
//! cache and fault contracts are pinned by the `dosa-search` integration
//! tests.

use dosa_accel::HardwareConfig;
use dosa_bench::{ablation, fig10_11, fig12, fig4, fig6, fig7, fig8, fig9, info, Scale};
use dosa_search::SearchService;
use dosa_workload::Network;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    threads: Option<usize>,
    command: String,
    network: Option<Network>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = Scale::Quick;
    let mut seed = 0u64;
    let mut out = PathBuf::from("output_dir");
    let mut threads = None;
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
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
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
           all     info, fig4, fig6, fig7, fig8, fig9, fig10 and fig12\n\
                   (not table2 or ablation)\n\
         workloads: unet | resnet50 | bert | retinanet\n\
         --threads N caps the service's worker threads (results are\n\
         identical for every N; only wall-clock time changes)"
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
    // Built on demand, so the commands that never search spawn no pool.
    let service = || {
        let mut builder = SearchService::builder();
        if let Some(n) = args.threads {
            builder = builder.threads(n);
        }
        builder.build()
    };
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
            fig6::run(&service(), scale, seed, out);
        }
        "fig7" => match args.network {
            Some(n) => {
                fig7::run_network(&service(), scale, n, seed, out);
            }
            None => {
                fig7::run(&service(), scale, seed, out);
            }
        },
        "fig8" => match args.network {
            Some(n) => {
                fig8::run_network(&service(), scale, n, seed, out);
            }
            None => {
                fig8::run(&service(), scale, seed, out);
            }
        },
        "fig9" => {
            fig9::run(&service(), scale, seed, out);
        }
        "fig10" | "fig11" => {
            fig10_11::run(&service(), scale, seed, out);
        }
        "fig12" | "table7" => {
            fig12::run(&service(), scale, seed, out);
        }
        "ablation" => {
            ablation::run(&service(), scale, seed, out);
        }
        "all" => {
            let service = &service();
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
