//! Absolute pins of the random-mapper kernel: draw, fit check and
//! reference evaluation, on every unique layer of the four Fig. 7 target
//! networks.
//!
//! Random search and BB-BO compare against DOSA at equal sample counts, so
//! their results depend on every bit of this kernel: which factors and
//! loop orders a seeded draw produces, whether the draw fits a design, and
//! the latency and energy the reference model gives it. A faster kernel
//! must reproduce all three exactly. Each case runs several seeds over the
//! layers in sample-major order (like the search loops) and folds each
//! stream into an FNV-1a hash. The designs span PE sides 4 to 128, so the
//! draw's spatial-cap demotion runs and fits go both ways.
//!
//! On a mismatch the test prints the complete replacement table.
//! Regenerating it is a deliberate hand edit of [`GOLDEN`], only for a
//! change meant to move the baselines' results.

use dosa_accel::{HardwareConfig, Hierarchy, NUM_LEVELS};
use dosa_timeloop::{evaluate_layer, fits, random_mapping, Mapping};
use dosa_workload::{unique_layers, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(network, PE side, draws hash, fits hash, fitting draws, perf hash)`,
/// one line per case in the format the mismatch report prints.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, usize, u64)] = &[
    ("U-Net", 4, 0x5d1cfa9629450aed, 0x24769f6e98395704, 1531, 0xfca72c1e8f7be335),
    ("U-Net", 16, 0xa37a3491b95ae8ef, 0x0a6163d6f0753925, 2178, 0x02dda17c6d1fb55b),
    ("U-Net", 64, 0xaa3e56a7891b437c, 0x6689025f38b83124, 2231, 0x52a78902c4172742),
    ("U-Net", 128, 0x7d575962b172559f, 0x68b9afd901b677c4, 2273, 0xc6264d274f7345fe),
    ("ResNet-50", 4, 0x9a76d5743d3be9f8, 0xbca4c862c2a09964, 2069, 0xfa6ed78c0f74ba98),
    ("ResNet-50", 16, 0xc0db3f7ec1f3c1c2, 0xf54d95515c480065, 2458, 0x30c5cb49f61fd865),
    ("ResNet-50", 64, 0x0fb54d090ce2e3d2, 0xcfb662b3cbeca4a5, 2498, 0xad8f103dd729cb14),
    ("ResNet-50", 128, 0x464242f3cd4d132c, 0x16a7d82c5ef96ca4, 2519, 0xbbe6cb187a58ff56),
    ("BERT", 4, 0xe9f22e0b785e0eef, 0xbc66a0c6080420e5, 480, 0x715c69b0d30fdbe9),
    ("BERT", 16, 0xa23c8b0786c552b4, 0xd9a882edee1ace45, 574, 0xa41352c92b511a16),
    ("BERT", 64, 0x9c296b5ce1ed8b36, 0x3cb34b68b9a2da85, 586, 0xac06fb560c8d4ffc),
    ("BERT", 128, 0xe69ed87cc53dbdec, 0x25e00f5f92241a84, 599, 0x1b9400eb281a45cb),
    ("RetinaNet", 4, 0x65c16ff8fe2aae43, 0x1ec891ecba302825, 1874, 0x74204c883cf781e4),
    ("RetinaNet", 16, 0x72285785237da7d6, 0x2faa9906021b3744, 2307, 0x853560ce3572ad85),
    ("RetinaNet", 64, 0xdca60b6b8f3b13e3, 0xd0438351679a18a5, 2356, 0xcb583490db77a578),
    ("RetinaNet", 128, 0xd8be0c15537d0a04, 0xd7ea4280ae09c744, 2397, 0x32b021a438598546),
];

/// The designs each network is drawn for: `(PE side, acc KB, spad KB)`.
const DESIGNS: [(u64, f64, f64); 4] = [
    (4, 8.0, 16.0),
    (16, 32.0, 128.0),
    (64, 64.0, 256.0),
    (128, 256.0, 1024.0),
];

/// Seeds per case and draws per layer per seed.
const SEEDS: [u64; 3] = [1, 2, 3];
const DRAWS: usize = 40;

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mapping(&mut self, m: &Mapping) {
        for i in 0..NUM_LEVELS {
            for &f in m.temporal[i].iter().chain(&m.spatial[i]) {
                self.word(f);
            }
            for &d in m.orders[i].dims() {
                self.word(d.index() as u64);
            }
        }
    }
}

#[test]
fn draws_fits_and_evaluations_reproduce_their_golden_bits() {
    let hier = Hierarchy::gemmini();
    let mut actual = Vec::new();
    for net in Network::TARGETS {
        let layers = unique_layers(net);
        for (side, acc_kb, spad_kb) in DESIGNS {
            let hw = HardwareConfig::new(side, acc_kb, spad_kb).expect("valid design");
            let (mut draws, mut fit, mut perf) = (Fnv::new(), Fnv::new(), Fnv::new());
            let mut fitting = 0;
            for seed in SEEDS {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..DRAWS {
                    for layer in &layers {
                        let p = &layer.problem;
                        let m = random_mapping(&mut rng, p, &hier, hw.pe_side());
                        draws.mapping(&m);
                        let ok = fits(p, &m, &hw, &hier);
                        fit.word(u64::from(ok));
                        fitting += usize::from(ok);
                        let lp = evaluate_layer(p, &m, &hw, &hier);
                        perf.word(lp.latency_cycles.to_bits());
                        perf.word(lp.energy_uj.to_bits());
                    }
                }
            }
            actual.push((net.name(), side, draws.0, fit.0, fitting, perf.0));
        }
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(net, side, draws, fit, fitting, perf)| {
                format!(
                    "    ({net:?}, {side}, {draws:#018x}, {fit:#018x}, {fitting}, {perf:#018x}),\n"
                )
            })
            .collect();
        panic!("mapper kernel bits moved; replacement table:\n{table}");
    }
}
