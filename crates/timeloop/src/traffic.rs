//! Exact integer traffic analysis for a mapping — the "iterative program"
//! reference model that plays Timeloop's role (§4.2, §4.6).
//!
//! ## Semantics (shared with the differentiable model)
//!
//! * `temporal[j]` loops form level `j`'s subnest; the tile resident at
//!   level `i` spans every temporal factor at levels `j < i` (Eq. 2) and —
//!   because Gemmini's SRAMs are shared across the PE array — **all** spatial
//!   factors of relevant dimensions (this reproduces every capacity in
//!   Figure 3).
//! * A tile at level `i` is re-fetched from its parent once per iteration of
//!   the relevant temporal loops above it, times every irrelevant temporal
//!   loop **outer to the innermost non-unit relevant loop** (Eq. 6). Loops
//!   with bound 1 are transparent.
//! * Reads at a tensor's innermost holding level equal `MACs` divided by the
//!   spatial fanout over irrelevant dimensions at or below that level
//!   (broadcast for inputs/weights, spatial reduction for outputs;
//!   Eqs. 8–11).
//! * Outputs follow read-modify-write semantics with first-update elision:
//!   a tile's first residency starts from zeros (no fill from the parent,
//!   no read on the first update of each element). Every residency ends in
//!   a drain to the parent, which arrives there as an update.
//! * Halo overlap between adjacent input tiles is not reused (both models
//!   count full re-fetches), a deliberate simplification applied
//!   identically on both sides of the Figure 4 correlation.

use crate::mapping::Mapping;
use dosa_accel::{level, Hierarchy, NUM_LEVELS};
use dosa_workload::{Dim, DimSet, Problem, Tensor, NUM_DIMS};
use std::ops::Deref;

/// Directional access counts for one (level, tensor) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TensorFlows {
    /// Words written into this level from its parent (the paper's
    /// "Writes"). For outputs these are partial-sum reloads.
    pub fills: u64,
    /// Words read out of this level: serving the child level or the MACs,
    /// plus (for outputs) drain reads and read-modify-write reads.
    pub reads: u64,
    /// Words written into this level from below (the paper's "Updates";
    /// outputs only).
    pub updates: u64,
}

impl TensorFlows {
    /// Total accesses of this tensor at this level.
    pub fn total(&self) -> u64 {
        self.fills + self.reads + self.updates
    }
}

/// One DRAM transfer stream: `transfers` moves of a `tile_words`-word tile.
/// Used for Timeloop-style per-block energy ceilings (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramStream {
    /// The tensor being moved.
    pub tensor: Tensor,
    /// Words per transfer.
    pub tile_words: u64,
    /// Number of transfers.
    pub transfers: u64,
}

/// Most DRAM streams a layer can have: one fill stream each for weights
/// and inputs, and a drain plus a reload stream for outputs.
const MAX_DRAM_STREAMS: usize = 4;

/// A layer's DRAM transfer streams, held inline (at most four, so
/// evaluating a mapping never allocates). Derefs to a slice of the streams
/// in the order they were found; unused slots hold an empty stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramStreams {
    len: usize,
    slots: [DramStream; MAX_DRAM_STREAMS],
}

impl DramStreams {
    fn new() -> DramStreams {
        let empty = DramStream {
            tensor: Tensor::Weights,
            tile_words: 0,
            transfers: 0,
        };
        DramStreams {
            len: 0,
            slots: [empty; MAX_DRAM_STREAMS],
        }
    }

    fn push(&mut self, s: DramStream) {
        self.slots[self.len] = s;
        self.len += 1;
    }
}

impl Deref for DramStreams {
    type Target = [DramStream];

    fn deref(&self) -> &[DramStream] {
        &self.slots[..self.len]
    }
}

/// Complete traffic summary for one layer under one mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    /// Total multiply-accumulates (Eq. 7).
    pub macs: u64,
    /// Per-level, per-tensor directional flows.
    pub flows: [[TensorFlows; 3]; NUM_LEVELS],
    /// DRAM transfer streams for block-granularity energy accounting.
    pub dram_streams: DramStreams,
}

impl Traffic {
    /// Total accesses at memory level `i` (Eq. 12's `Accesses(i)`).
    pub fn accesses(&self, i: usize) -> u64 {
        self.flows[i].iter().map(TensorFlows::total).sum()
    }

    /// Flows of tensor `t` at level `i`.
    pub fn flows(&self, i: usize, t: Tensor) -> TensorFlows {
        self.flows[i][t.index()]
    }
}

/// Per-level tile extents of a mapping: `extents[i][d]` is the product of
/// dimension `d`'s temporal factors at levels below `i` and all of its
/// spatial factors — the span of `d` in the tile resident at level `i`
/// (Eq. 2). Built once per mapping as prefix products; the capacity check
/// and the traffic analysis both read their tile sizes from it.
pub(crate) struct Extents([[u64; NUM_DIMS]; NUM_LEVELS]);

impl Extents {
    pub(crate) fn new(mapping: &Mapping) -> Extents {
        let mut ext = [1u64; NUM_DIMS];
        for lvl in &mapping.spatial {
            for (x, &f) in ext.iter_mut().zip(lvl) {
                *x *= f;
            }
        }
        let mut e = [[1u64; NUM_DIMS]; NUM_LEVELS];
        for (row, lvl) in e.iter_mut().zip(&mapping.temporal) {
            *row = ext;
            for (x, &f) in ext.iter_mut().zip(lvl) {
                *x *= f;
            }
        }
        Extents(e)
    }

    /// Words of tensor `t`'s tile at level `i`; inputs include the stride
    /// halo (Eqs. 2–4).
    pub(crate) fn words(&self, problem: &Problem, i: usize, t: Tensor) -> u64 {
        let e = |d: Dim| self.0[i][d.index()];
        match t {
            Tensor::Weights => e(Dim::R) * e(Dim::S) * e(Dim::C) * e(Dim::K),
            Tensor::Outputs => e(Dim::P) * e(Dim::Q) * e(Dim::K) * e(Dim::N),
            Tensor::Inputs => {
                let h = problem.stride_p() * (e(Dim::P) - 1) + e(Dim::R);
                let w = problem.stride_q() * (e(Dim::Q) - 1) + e(Dim::S);
                e(Dim::C) * e(Dim::N) * h * w
            }
        }
    }
}

/// The tile footprint (in words) of tensor `t` at level `i`: temporal
/// factors at levels below `i` times all spatial factors, for the
/// dimensions indexing `t`; inputs include the stride halo (Eqs. 2–4).
pub fn tile_words(problem: &Problem, mapping: &Mapping, i: usize, t: Tensor) -> u64 {
    Extents::new(mapping).words(problem, i, t)
}

/// Refetch analysis over the temporal loops above level `i` (subnests
/// `i..=3`, innermost first): returns `(rel, x)` where `rel` is the product
/// of relevant factors and `x` the product of irrelevant factors outer to
/// the innermost non-unit relevant loop (1 if no such loop).
///
/// This is the per-level definition; [`compute_traffic`] derives every
/// level's pair in one pass and is tested against it.
pub fn refetch(mapping: &Mapping, i: usize, relevant: DimSet) -> (u64, u64) {
    let mut rel = 1u64;
    let mut x = 1u64;
    let mut past_innermost_relevant = false;
    for j in i..NUM_LEVELS {
        for &d in mapping.orders[j].dims() {
            let f = mapping.temporal(j, d);
            if relevant.contains(d) {
                rel *= f;
                if f > 1 {
                    past_innermost_relevant = true;
                }
            } else if past_innermost_relevant {
                // Irrelevant loop outer to the innermost non-unit relevant
                // loop: causes refetches.
                x *= f;
            }
        }
    }
    (rel, x)
}

/// `n / d`, skipping the division when a spatial discount is 1 (the
/// common case: most levels carry no irrelevant spatial fanout).
#[inline]
fn discounted(n: u64, d: u64) -> u64 {
    if d == 1 {
        n
    } else {
        n / d
    }
}

/// One tensor's view of a mapping, level by level: tile words at the
/// levels holding it, refetch `(rel, x)` (see [`refetch`]) and the spatial
/// fanout over the tensor's irrelevant dimensions. Levels are filled from
/// DRAM inward, one [`step`](TensorNest::step) each; entries below the
/// lowest filled level hold 0 and are never read.
#[derive(Debug, Clone, Copy, Default)]
struct TensorNest {
    tiles: [u64; NUM_LEVELS],
    rels: [u64; NUM_LEVELS],
    xs: [u64; NUM_LEVELS],
    fanout: [u64; NUM_LEVELS],
}

impl TensorNest {
    /// Fill level `j` of tensor `t`, every level above it being filled.
    ///
    /// The refetch walk visits the loops from the outermost inward. `irr`
    /// multiplies the irrelevant factors seen so far, all outer to the
    /// current loop, so at each non-unit relevant loop it is that loop's
    /// `x`; the innermost such loop at or above a level sets the level's
    /// `x`. The fanout product over a range of levels is the broadcast /
    /// spatial-reduction discount `F_{S,t}` (Eqs. 8, 10).
    fn step(&mut self, walk: &mut (u64, u64, u64), mapping: &Mapping, t: Tensor, j: usize) {
        let relevant = t.dims();
        let (mut rel, mut irr, mut x) = *walk;
        for &d in mapping.orders[j].dims().iter().rev() {
            let f = mapping.temporal(j, d);
            let r = relevant.contains(d);
            rel *= if r { f } else { 1 };
            x = if r && f > 1 { irr } else { x };
            irr *= if r { 1 } else { f };
        }
        *walk = (rel, irr, x);
        (self.rels[j], self.xs[j]) = (rel, x);
        self.fanout[j] = Dim::ALL
            .iter()
            .map(|&d| {
                if relevant.contains(d) {
                    1
                } else {
                    mapping.spatial(j, d)
                }
            })
            .product();
    }

    fn discount(&self, lo: usize, hi: usize) -> u64 {
        self.fanout[lo..=hi].iter().product()
    }

    /// Words moved into level `i` from its parent over the whole nest:
    /// one tile per residency.
    fn fetched(&self, i: usize) -> u64 {
        self.tiles[i] * self.rels[i] * self.xs[i]
    }

    /// Words of level `i`'s revisits, the residencies after each
    /// distinct tile's first.
    fn refetched(&self, i: usize) -> u64 {
        self.tiles[i] * self.rels[i] * (self.xs[i] - 1)
    }

    /// Flows of tensor `t` at `holding[pos]`.
    #[inline]
    fn flows(&self, t: Tensor, holding: &[usize], pos: usize, macs: u64) -> TensorFlows {
        let i = holding[pos];
        let child = pos.checked_sub(1).map(|c| holding[c]);
        let is_outer = pos + 1 == holding.len();
        // What the level below (or the MACs) moves across this level.
        let from_child = match child {
            None => discounted(macs, self.discount(0, i)),
            Some(c) => discounted(self.fetched(c), self.discount(c + 1, i)),
        };
        match t {
            Tensor::Weights | Tensor::Inputs => TensorFlows {
                // Fills from the parent (paper's Writes), zero at the
                // outermost level where the data originates.
                fills: if is_outer { 0 } else { self.fetched(i) },
                // Reads serving the level below (or the MACs).
                reads: from_child,
                updates: 0,
            },
            Tensor::Outputs => {
                let residencies = self.rels[i] * self.xs[i];
                // Drains: every residency ends by writing the tile up.
                let drains = if is_outer {
                    0
                } else {
                    self.tiles[i] * residencies
                };
                // Updates from below.
                let updates = from_child;
                // Reads: RMW partial reads at the innermost level (first
                // update of each element per residency is elided), plus
                // drain reads, plus serving the child's partial reloads.
                let rmw = if child.is_none() {
                    updates.saturating_sub(self.tiles[i] * residencies)
                } else {
                    0
                };
                let serve_child = match child {
                    Some(c) => discounted(self.refetched(c), self.discount(c + 1, i)),
                    None => 0,
                };
                TensorFlows {
                    // Fills: partial-sum reloads on revisits (first
                    // residency per distinct tile starts from zeros).
                    fills: if is_outer { 0 } else { self.refetched(i) },
                    reads: rmw + drains + serve_child,
                    updates,
                }
            }
        }
    }
}

/// Everything of a layer's traffic analysis that does not depend on the
/// mapping: the problem, its MAC count (Eq. 7) and the levels holding each
/// tensor, innermost first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerNest<'a> {
    problem: &'a Problem,
    macs: u64,
    held: [[usize; NUM_LEVELS]; 3],
    held_len: [usize; 3],
    /// Per tensor, whether the flows read its tile at each level: at
    /// every holding level below DRAM, and at DRAM only if DRAM alone
    /// holds it.
    tiled: [[bool; NUM_LEVELS]; 3],
    /// Per tensor, the lowest level its DRAM flows read: its holding
    /// level just below DRAM (level 0 if DRAM alone holds it, since its
    /// DRAM reads are discounted from level 0 up).
    dram_lo: [usize; 3],
}

/// The three tensors' nests of one mapping, each filled from DRAM down
/// to its level in `lo`. A level's entries depend only on the loops at
/// and above it, so the DRAM traffic needs each nest only down to the
/// tensor's holding level just below DRAM, and the rest can be filled
/// later.
pub(crate) struct Nests {
    by_tensor: [TensorNest; 3],
    /// Each tensor's refetch walk so far: the products of its relevant
    /// and irrelevant factors, and the `x` of its innermost non-unit
    /// relevant loop.
    walks: [(u64, u64, u64); 3],
    lo: [usize; 3],
}

/// A mapping's DRAM traffic: its accesses at DRAM (Eq. 12's
/// `Accesses(DRAM)`) and its DRAM transfer streams.
pub(crate) struct DramTraffic {
    pub(crate) accesses: u64,
    pub(crate) streams: DramStreams,
}

impl<'a> LayerNest<'a> {
    pub(crate) fn new(problem: &'a Problem, hier: &Hierarchy) -> LayerNest<'a> {
        let mut held = [[0usize; NUM_LEVELS]; 3];
        let mut held_len = [0usize; 3];
        let mut tiled = [[false; NUM_LEVELS]; 3];
        let mut dram_lo = [0usize; 3];
        for t in Tensor::ALL {
            assert!(hier.level(level::DRAM).stores(t), "DRAM stores everything");
            let (h, n) = (&mut held[t.index()], &mut held_len[t.index()]);
            for i in (0..NUM_LEVELS).filter(|&i| hier.level(i).stores(t)) {
                h[*n] = i;
                *n += 1;
            }
            for &i in &h[..(*n - 1).max(1)] {
                tiled[t.index()][i] = true;
            }
            dram_lo[t.index()] = if *n > 1 { h[*n - 2] } else { 0 };
        }
        LayerNest {
            problem,
            macs: problem.sizes().iter().product(),
            held,
            held_len,
            tiled,
            dram_lo,
        }
    }

    pub(crate) fn problem(&self) -> &'a Problem {
        self.problem
    }

    pub(crate) fn macs(&self) -> u64 {
        self.macs
    }

    /// The levels holding `t`, innermost first; the last is DRAM.
    fn holding(&self, t: Tensor) -> &[usize] {
        &self.held[t.index()][..self.held_len[t.index()]]
    }

    /// The nests of `mapping`, whose tile extents are `extents`, filled
    /// down to the levels [`dram_traffic`](LayerNest::dram_traffic) reads.
    #[inline]
    pub(crate) fn dram_nests(&self, mapping: &Mapping, extents: &Extents) -> Nests {
        let mut nests = Nests {
            by_tensor: Default::default(),
            walks: [(1, 1, 1); 3],
            lo: [NUM_LEVELS; 3],
        };
        self.descend(&mut nests, mapping, extents, self.dram_lo);
        nests
    }

    /// Fill each tensor's nest down to its level in `to`.
    fn descend(&self, nests: &mut Nests, mapping: &Mapping, extents: &Extents, to: [usize; 3]) {
        for t in Tensor::ALL {
            let k = t.index();
            let (nest, walk) = (&mut nests.by_tensor[k], &mut nests.walks[k]);
            for j in (to[k]..nests.lo[k]).rev() {
                nest.step(walk, mapping, t, j);
                if self.tiled[k][j] {
                    nest.tiles[j] = extents.words(self.problem, j, t);
                }
            }
            nests.lo[k] = nests.lo[k].min(to[k]);
        }
    }

    /// Tensor `t`'s flows at DRAM, with its DRAM streams pushed onto
    /// `streams`. Both come from the holding level just below DRAM: the
    /// tile words there, the refetch `(rel, x)` there and the spatial
    /// discount above it.
    fn dram_flows(&self, nests: &Nests, t: Tensor, streams: &mut DramStreams) -> TensorFlows {
        let (holding, nest) = (self.holding(t), &nests.by_tensor[t.index()]);
        let outer = holding.len() - 1;
        if outer > 0 {
            let c = holding[outer - 1];
            streams.push(DramStream {
                tensor: t,
                tile_words: nest.tiles[c],
                transfers: nest.rels[c] * nest.xs[c],
            });
            // Outputs: a drain stream up plus a reload stream down.
            if t == Tensor::Outputs && nest.xs[c] > 1 {
                streams.push(DramStream {
                    tensor: t,
                    tile_words: nest.tiles[c],
                    transfers: nest.rels[c] * (nest.xs[c] - 1),
                });
            }
        }
        nest.flows(t, holding, outer, self.macs)
    }

    /// The DRAM traffic of the mapping of `nests`.
    #[inline]
    pub(crate) fn dram_traffic(&self, nests: &Nests) -> DramTraffic {
        let mut streams = DramStreams::new();
        let mut accesses = 0;
        for t in Tensor::ALL {
            accesses += self.dram_flows(nests, t, &mut streams).total();
        }
        DramTraffic { accesses, streams }
    }

    /// The full traffic of `mapping`, filling `nests` the rest of the way
    /// down.
    pub(crate) fn traffic(
        &self,
        mut nests: Nests,
        mapping: &Mapping,
        extents: &Extents,
    ) -> Traffic {
        self.descend(&mut nests, mapping, extents, [0; 3]);
        let mut flows = [[TensorFlows::default(); 3]; NUM_LEVELS];
        let mut dram_streams = DramStreams::new();
        for t in Tensor::ALL {
            let (holding, nest) = (self.holding(t), &nests.by_tensor[t.index()]);
            for (pos, &i) in holding[..holding.len() - 1].iter().enumerate() {
                flows[i][t.index()] = nest.flows(t, holding, pos, self.macs);
            }
            flows[level::DRAM][t.index()] = self.dram_flows(&nests, t, &mut dram_streams);
        }
        Traffic {
            macs: self.macs,
            flows,
            dram_streams,
        }
    }
}

/// Compute the full traffic summary for `mapping` on `problem`.
///
/// The mapping should be valid (see [`Mapping::validate`]); invalid
/// mappings produce meaningless counts but do not panic.
pub fn compute_traffic(problem: &Problem, mapping: &Mapping, hier: &Hierarchy) -> Traffic {
    let layer = LayerNest::new(problem, hier);
    let extents = Extents::new(mapping);
    layer.traffic(layer.dram_nests(mapping, &extents), mapping, &extents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::fig3_mapping;
    use dosa_accel::level;

    fn fig3() -> (Problem, Mapping, Hierarchy) {
        let p = Problem::conv("fig3", 1, 1, 56, 56, 64, 64, 1).unwrap();
        (p, fig3_mapping(), Hierarchy::gemmini())
    }

    #[test]
    fn fig3_tile_sizes_match_paper() {
        let (p, m, _) = fig3();
        // Figure 3 annotations.
        assert_eq!(tile_words(&p, &m, level::REGISTERS, Tensor::Weights), 4096);
        assert_eq!(tile_words(&p, &m, level::ACCUMULATOR, Tensor::Outputs), 896);
        assert_eq!(tile_words(&p, &m, level::SCRATCHPAD, Tensor::Weights), 4096);
        assert_eq!(tile_words(&p, &m, level::SCRATCHPAD, Tensor::Inputs), 896);
        // The DRAM "tile" (content below the DRAM subnest) equals the
        // scratchpad/accumulator working set here; DRAM capacity itself is
        // unbounded and never constrains a mapping.
        assert_eq!(tile_words(&p, &m, level::DRAM, Tensor::Weights), 4096);
        assert_eq!(tile_words(&p, &m, level::DRAM, Tensor::Inputs), 896);
        assert_eq!(tile_words(&p, &m, level::DRAM, Tensor::Outputs), 896);
    }

    #[test]
    fn fig3_traffic_counts() {
        let (p, m, h) = fig3();
        let t = compute_traffic(&p, &m, &h);
        let macs = 56 * 56 * 64 * 64u64;
        assert_eq!(t.macs, macs);

        // Registers: one weight read per MAC; weights filled once.
        assert_eq!(t.flows(level::REGISTERS, Tensor::Weights).reads, macs);
        assert_eq!(t.flows(level::REGISTERS, Tensor::Weights).fills, 4096);

        // Accumulator: one update per output (C fully spatial), no RMW
        // reads (first-update elision), each output drained once.
        let acc = t.flows(level::ACCUMULATOR, Tensor::Outputs);
        assert_eq!(acc.updates, 200_704);
        assert_eq!(acc.reads, 200_704); // drain reads only
        assert_eq!(acc.fills, 0);

        // Scratchpad: inputs broadcast across the 64 K-columns.
        let spad_i = t.flows(level::SCRATCHPAD, Tensor::Inputs);
        assert_eq!(spad_i.reads, macs / 64);
        assert_eq!(spad_i.fills, 200_704);
        let spad_w = t.flows(level::SCRATCHPAD, Tensor::Weights);
        assert_eq!(spad_w.reads, 4096);
        assert_eq!(spad_w.fills, 4096);

        // DRAM: weight + input reads, output drains as updates.
        assert_eq!(t.flows(level::DRAM, Tensor::Weights).reads, 4096);
        assert_eq!(t.flows(level::DRAM, Tensor::Inputs).reads, 200_704);
        assert_eq!(t.flows(level::DRAM, Tensor::Outputs).updates, 200_704);
        assert_eq!(t.flows(level::DRAM, Tensor::Outputs).reads, 0);

        assert_eq!(t.accesses(level::DRAM), 405_504);
        assert_eq!(t.accesses(level::SCRATCHPAD), 409_600);
        assert_eq!(t.accesses(level::ACCUMULATOR), 401_408);
    }

    #[test]
    fn trivial_mapping_streams_everything_from_dram() {
        let p = Problem::conv("t", 3, 3, 8, 8, 4, 4, 1).unwrap();
        let h = Hierarchy::gemmini();
        let m = Mapping::all_at_dram(&p);
        let t = compute_traffic(&p, &m, &h);
        // With all loops at DRAM, inner tiles are single elements and the
        // total MAC count flows through every level.
        assert_eq!(t.flows(level::REGISTERS, Tensor::Weights).reads, t.macs);
        // Weight tile at the scratchpad is one element, fetched per
        // relevant iteration x irrelevant-outer refetch.
        let spad_w = t.flows(level::SCRATCHPAD, Tensor::Weights);
        assert!(spad_w.fills >= p.tensor_size(Tensor::Weights));
    }

    #[test]
    fn refetch_respects_loop_order() {
        let p = Problem::conv("o", 1, 1, 4, 1, 8, 1, 1).unwrap();
        let _h = Hierarchy::gemmini();
        let mut m = Mapping::all_at_dram(&p);
        // DRAM loops: P=4 (relevant to W? no), C=8 (relevant to W).
        // WS order puts P inner, C outer: innermost relevant nonunit loop is
        // C, and P is inner to it => weights fetched only C-many times.
        m.set_orders([crate::mapping::Stationarity::WeightStationary; NUM_LEVELS]);
        let (rel, x) = refetch(&m, 0, Tensor::Weights.dims());
        assert_eq!((rel, x), (8, 1));
        // OS order puts C inner, P outer: P now causes weight refetches.
        m.set_orders([crate::mapping::Stationarity::OutputStationary; NUM_LEVELS]);
        let (rel, x) = refetch(&m, 0, Tensor::Weights.dims());
        assert_eq!((rel, x), (8, 4));
    }

    #[test]
    fn one_pass_refetches_match_the_per_level_walk() {
        use crate::mapper::MapSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let h = Hierarchy::gemmini();
        let p = Problem::conv("r", 3, 3, 28, 28, 64, 96, 2).unwrap();
        let sampler = MapSampler::new(&p, &h, 16);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let m = sampler.draw(&mut rng);
            for t in Tensor::ALL {
                let (mut nest, mut walk) = (TensorNest::default(), (1, 1, 1));
                for i in (0..NUM_LEVELS).rev() {
                    nest.step(&mut walk, &m, t, i);
                    assert_eq!(
                        (nest.rels[i], nest.xs[i]),
                        refetch(&m, i, t.dims()),
                        "{t} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_one_loops_are_transparent() {
        // A relevant loop with bound 1 must not shield outer irrelevant
        // loops... and must not cause refetches itself.
        let p = Problem::conv("b1", 1, 1, 4, 1, 1, 2, 1).unwrap();
        let h = Hierarchy::gemmini();
        let mut m = Mapping::all_at_dram(&p);
        let _ = h;
        // Order at DRAM (WS): P, Q, N | R, S, C, K -> P(4) inner, K(2) outer.
        // For weights: innermost nonunit relevant loop is K; P is inner to
        // K => X = 1 even though C (bound 1, relevant) sits between them.
        m.set_orders([crate::mapping::Stationarity::WeightStationary; NUM_LEVELS]);
        let (rel, x) = refetch(&m, 0, Tensor::Weights.dims());
        assert_eq!((rel, x), (2, 1));
    }

    #[test]
    fn partial_sum_traffic_appears_with_outer_reduction_loops() {
        // Put a C loop at DRAM outside the output drain level: outputs must
        // bounce to DRAM and back.
        let p = Problem::conv("ps", 1, 1, 2, 2, 8, 2, 1).unwrap();
        let h = Hierarchy::gemmini();
        let mut m = Mapping::all_at_dram(&p);
        // Keep P,Q,K at DRAM; split C between accumulator subnest and DRAM.
        m.temporal[level::DRAM][Dim::C.index()] = 4;
        m.temporal[level::ACCUMULATOR][Dim::C.index()] = 2;
        m.validate(&p, &h).unwrap();
        // Default WS order at DRAM: [P,Q,N inner][R,S,C,K outer]; for
        // outputs the innermost relevant nonunit loop is P, C(4) is outer:
        // each output tile is revisited 4 times.
        let t = compute_traffic(&p, &m, &h);
        let o_dram = t.flows(level::DRAM, Tensor::Outputs);
        let out_size = p.tensor_size(Tensor::Outputs);
        assert_eq!(o_dram.updates, out_size * 4);
        assert_eq!(o_dram.reads, out_size * 3); // reloads on revisits 2..4
        let acc = t.flows(level::ACCUMULATOR, Tensor::Outputs);
        assert_eq!(acc.fills, out_size * 3);
        // RMW at the accumulator: 2 updates per element per residency, one
        // elided each.
        assert_eq!(acc.updates, t.macs);
    }

    #[test]
    fn accesses_sum_over_tensors() {
        let (p, m, h) = fig3();
        let t = compute_traffic(&p, &m, &h);
        for i in 0..NUM_LEVELS {
            let by_tensor: u64 = Tensor::ALL.iter().map(|&tt| t.flows(i, tt).total()).sum();
            assert_eq!(t.accesses(i), by_tensor);
        }
    }

    #[test]
    fn dram_streams_cover_dram_words() {
        let (p, m, h) = fig3();
        let t = compute_traffic(&p, &m, &h);
        let stream_words: u64 = t
            .dram_streams
            .iter()
            .map(|s| s.tile_words * s.transfers)
            .sum();
        assert_eq!(stream_words, t.accesses(level::DRAM));
    }
}
