//! Segmented backward sweeps: per-segment parallelism with bit-exact
//! serial-sweep semantics.
//!
//! A [`SegmentPlan`] is recorded alongside the forward pass and partitions
//! the tape's id space into ordered regions: *serial* ranges, and *groups*
//! of contiguous chunks with no edges between chunks of the same group
//! (e.g. the per-layer portions of a multi-layer loss, which only interact
//! through later cross-layer folds). [`Tape::backward_segmented`] sweeps
//! regions in reverse recording order; within a group the chunks are
//! independent, so they can be swept by parallel workers.
//!
//! ## The determinism rule
//!
//! Parallel chunk sweeps must not change a single bit of any gradient
//! relative to the flat serial sweep, for any worker count. The sweep
//! guarantees this by making every floating-point *accumulation order*
//! identical to the serial sweep's:
//!
//! * each chunk owns a disjoint slice of the adjoint buffer covering its
//!   own id range, and within the chunk sweeps ids in descending order —
//!   exactly the serial order;
//! * contributions to cells *below* the group are not applied directly
//!   (that would race and reorder); they are spilled to a per-chunk queue
//!   in sweep order and replayed serially after the group joins, in
//!   **descending chunk order** — so each below-group cell receives its
//!   contributions in descending consumer-id order, which is precisely
//!   the serial sweep's order;
//! * chunks of one group have no cross-chunk edges (debug-asserted), so
//!   no other write order exists to get wrong.
//!
//! The worker count therefore only decides *who* sweeps each chunk, never
//! the order in which any adjoint cell is accumulated.

use crate::tape::{sweep_serial, NodeId, TapeStore};
use crate::{GradientsView, Tape, Var};
use std::ops::Range;

/// Groups smaller than this many total nodes are swept serially even when
/// workers are available: a scoped-thread spawn costs more than the sweep.
const PAR_GROUP_MIN_NODES: usize = 4096;

/// One region of a [`SegmentPlan`].
#[derive(Debug, Clone)]
enum Region {
    /// Ids swept strictly serially.
    Serial(Range<u32>),
    /// A group of mutually independent contiguous chunks; the payload
    /// indexes into [`SegmentPlan::chunks`].
    Group(Range<usize>),
}

/// An ordered partition of a tape's id space into serial regions and
/// parallel groups, recorded while the forward pass runs (via
/// [`SegmentPlan::serial_to`] / [`SegmentPlan::begin_group`] /
/// [`SegmentPlan::chunk_to`] / [`SegmentPlan::end_group`] with marks taken
/// from [`Ctx::mark`](crate::Ctx::mark)).
///
/// The plan owns only flat reusable buffers, so clearing and re-recording
/// it every optimizer step allocates nothing at steady state.
#[derive(Debug, Clone)]
pub struct SegmentPlan {
    regions: Vec<Region>,
    /// Chunk ranges of all groups, in recording order; each [`Region::Group`]
    /// holds an index range into this vector.
    chunks: Vec<Range<u32>>,
    /// First id not yet covered by any region or open chunk.
    pos: u32,
    /// Index into `chunks` where the currently open group began.
    group_open: Option<usize>,
    enabled: bool,
}

impl Default for SegmentPlan {
    fn default() -> SegmentPlan {
        SegmentPlan::new()
    }
}

impl SegmentPlan {
    /// An empty, enabled plan.
    pub fn new() -> SegmentPlan {
        SegmentPlan {
            regions: Vec::new(),
            chunks: Vec::new(),
            pos: 0,
            group_open: None,
            enabled: true,
        }
    }

    /// A plan that ignores all recording calls — for value-only or
    /// legacy-baseline forward passes that will never sweep segmented.
    pub fn disabled() -> SegmentPlan {
        SegmentPlan {
            enabled: false,
            ..SegmentPlan::new()
        }
    }

    /// Reset for a fresh forward pass, keeping buffers (and the
    /// enabled/disabled mode).
    pub fn clear(&mut self) {
        self.regions.clear();
        self.chunks.clear();
        self.pos = 0;
        self.group_open = None;
    }

    /// Whether the plan contains at least one multi-chunk group.
    pub fn has_groups(&self) -> bool {
        self.regions.iter().any(|r| matches!(r, Region::Group(_)))
    }

    /// Cover `pos..mark` with a serial region (no-op if nothing was
    /// recorded since the last boundary).
    pub fn serial_to(&mut self, mark: u32) {
        if !self.enabled || mark <= self.pos {
            return;
        }
        debug_assert!(self.group_open.is_none(), "serial_to inside an open group");
        self.push_serial(self.pos..mark);
        self.pos = mark;
    }

    /// Open a parallel group at the current position.
    pub fn begin_group(&mut self) {
        if !self.enabled {
            return;
        }
        debug_assert!(self.group_open.is_none(), "nested begin_group");
        self.group_open = Some(self.chunks.len());
    }

    /// Close the current chunk of the open group at `mark` (no-op for an
    /// empty chunk).
    pub fn chunk_to(&mut self, mark: u32) {
        if !self.enabled || mark <= self.pos {
            return;
        }
        debug_assert!(self.group_open.is_some(), "chunk_to outside a group");
        self.chunks.push(self.pos..mark);
        self.pos = mark;
    }

    /// Close the open group. Groups that ended up with fewer than two
    /// chunks are folded back into the surrounding serial coverage.
    pub fn end_group(&mut self) {
        if !self.enabled {
            return;
        }
        let start = self.group_open.take().expect("end_group without begin");
        match self.chunks.len() - start {
            0 => {}
            1 => {
                let only = self.chunks.pop().expect("one chunk");
                self.push_serial(only);
            }
            _ => self.regions.push(Region::Group(start..self.chunks.len())),
        }
    }

    fn push_serial(&mut self, range: Range<u32>) {
        if let Some(Region::Serial(prev)) = self.regions.last_mut() {
            if prev.end == range.start {
                prev.end = range.end;
                return;
            }
        }
        self.regions.push(Region::Serial(range));
    }
}

/// Reusable scratch for [`Tape::backward_segmented`]: the adjoint buffer
/// plus per-chunk spill queues, all retained across sweeps so steady-state
/// steps allocate nothing.
#[derive(Debug, Default)]
pub struct SegScratch {
    adj: Vec<f64>,
    spills: Vec<Vec<(NodeId, f64)>>,
}

impl SegScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> SegScratch {
        SegScratch::default()
    }
}

impl Tape {
    /// Run the backward sweep from `output` following `plan`, using up to
    /// `threads` workers for parallel groups.
    ///
    /// Bit-identical to [`Tape::backward_into`] for **every** value of
    /// `threads` (see the module docs for why); with `threads <= 1` or a
    /// plan without groups it *is* the flat serial sweep on the scratch
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not on this tape generation.
    pub fn backward_segmented<'a>(
        &self,
        output: Var<'_>,
        plan: &SegmentPlan,
        threads: usize,
        scratch: &'a mut SegScratch,
    ) -> GradientsView<'a> {
        let store = self.store();
        let n = store.len();
        assert!((output.id as usize) < n, "output var is not on this tape");
        {
            let adj = &mut scratch.adj;
            adj.clear();
            adj.resize(n, 0.0);
            adj[output.id as usize] = 1.0;
            let hi = output.id as usize + 1;
            if threads <= 1 || !plan.has_groups() {
                sweep_serial(store, adj, 0, hi);
            } else {
                // Tail above the last planned mark (the loss assembly
                // usually ends with a serial_to, making this empty).
                if hi > plan.pos as usize {
                    sweep_serial(store, adj, plan.pos as usize, hi);
                }
                for region in plan.regions.iter().rev() {
                    match region {
                        Region::Serial(r) => {
                            sweep_serial(store, adj, r.start as usize, r.end as usize)
                        }
                        Region::Group(idx) => {
                            let chunks = &plan.chunks[idx.clone()];
                            let first = chunks[0].start;
                            let last = chunks[chunks.len() - 1].end;
                            if ((last - first) as usize) < PAR_GROUP_MIN_NODES {
                                for c in chunks.iter().rev() {
                                    sweep_serial(store, adj, c.start as usize, c.end as usize);
                                }
                            } else {
                                sweep_group(store, adj, chunks, threads, &mut scratch.spills);
                            }
                        }
                    }
                }
            }
        }
        GradientsView { adj: &scratch.adj }
    }
}

/// One chunk's unit of parallel work: its node range, the adjoint slice
/// covering exactly that range, and the spill queue for contributions that
/// land below the group.
type ChunkPart<'a> = (Range<u32>, &'a mut [f64], &'a mut Vec<(NodeId, f64)>);

/// Sweep one group's chunks on up to `threads` scoped workers, then replay
/// the below-group spills serially in descending chunk order.
fn sweep_group(
    store: &TapeStore,
    adj: &mut [f64],
    chunks: &[Range<u32>],
    threads: usize,
    spills: &mut Vec<Vec<(NodeId, f64)>>,
) {
    let group_lo = chunks[0].start as usize;
    let group_hi = chunks[chunks.len() - 1].end as usize;
    if spills.len() < chunks.len() {
        spills.resize_with(chunks.len(), Vec::new);
    }
    let (below, rest) = adj.split_at_mut(group_lo);
    let (span, _above) = rest.split_at_mut(group_hi - group_lo);
    // Carve one disjoint (chunk range, local adjoint slice, spill queue)
    // triple per chunk; the group's chunks are contiguous by construction.
    let mut parts: Vec<ChunkPart<'_>> = Vec::with_capacity(chunks.len());
    let mut span_rest = span;
    for (c, spill) in chunks.iter().zip(spills.iter_mut()) {
        debug_assert_eq!(
            c.start as usize,
            group_hi - span_rest.len(),
            "group chunks must be contiguous"
        );
        let (local, tail) = span_rest.split_at_mut((c.end - c.start) as usize);
        span_rest = tail;
        spill.clear();
        parts.push((c.clone(), local, spill));
    }
    let workers = threads.min(parts.len()).max(1);
    let per = parts.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for block in parts.chunks_mut(per) {
            scope.spawn(move || {
                for (range, local, spill) in block.iter_mut() {
                    sweep_chunk(store, range.clone(), local, spill, group_lo as NodeId);
                }
            });
        }
    });
    // Replay out-of-group contributions in descending chunk order: per
    // target cell this reproduces the flat serial sweep's descending
    // consumer-id accumulation order exactly.
    for (_, _, spill) in parts.iter().rev() {
        for &(pid, contrib) in spill.iter() {
            below[pid as usize] += contrib;
        }
    }
}

/// Sweep one chunk against its local adjoint slice, queueing contributions
/// to ids below the chunk (and necessarily below the whole group).
fn sweep_chunk(
    store: &TapeStore,
    range: Range<u32>,
    local: &mut [f64],
    spill: &mut Vec<(NodeId, f64)>,
    group_lo: NodeId,
) {
    let lo = range.start as usize;
    for i in (lo..range.end as usize).rev() {
        let a = local[i - lo];
        // dosa-lint: allow(float-eq) — exact-zero adjoint skip, same contract
        // as `sweep_serial`: only bitwise zero means no gradient to propagate.
        if a == 0.0 {
            continue;
        }
        let node = &store.nodes[i];
        for p in 0..node.arity as usize {
            let pid = node.parents[p];
            if pid >= range.start {
                local[(pid - range.start) as usize] += a * node.grads[p];
            } else {
                debug_assert!(
                    pid < group_lo,
                    "cross-chunk edge inside a parallel group: {pid} from node {i}"
                );
                spill.push((pid, a * node.grads[p]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sum;

    /// Build an L-chunk loss: per chunk an independent expression over its
    /// own leaves, combined by a serial sum-of-squares tail.
    fn build<'t>(
        tape: &'t Tape,
        plan: &mut SegmentPlan,
        leaves: &[Var<'t>],
        chunks: usize,
    ) -> Var<'t> {
        plan.serial_to(tape.len() as u32);
        let per = leaves.len() / chunks;
        let mut terms = Vec::new();
        plan.begin_group();
        for c in 0..chunks {
            let xs = &leaves[c * per..(c + 1) * per];
            let mut t = xs[0] * 2.0 + 1.0;
            for &x in &xs[1..] {
                t = t * x.exp().max(x.square()) + x.ln().relu();
            }
            terms.push(t);
            plan.chunk_to(tape.len() as u32);
        }
        plan.end_group();
        let s = sum(tape, &terms);
        let out = s.square() + terms[0];
        plan.serial_to(tape.len() as u32);
        out
    }

    #[test]
    fn segmented_matches_flat_for_every_worker_budget() {
        let tape = Tape::new();
        let leaves: Vec<Var<'_>> = (0..24).map(|i| tape.var(0.3 + 0.17 * i as f64)).collect();
        let mut plan = SegmentPlan::new();
        let out = build(&tape, &mut plan, &leaves, 4);
        let mut adj = Vec::new();
        let flat = tape.backward_into(out, &mut adj);
        let expect: Vec<f64> = flat.wrt_slice(&leaves);
        for threads in [1, 2, 3, 8] {
            let mut scratch = SegScratch::default();
            let seg = tape.backward_segmented(out, &plan, threads, &mut scratch);
            let got = seg.wrt_slice(&leaves);
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.to_bits(), e.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn disabled_plan_still_sweeps_correctly() {
        let tape = Tape::new();
        let x = tape.var(3.0);
        let y = x * x + x;
        let mut scratch = SegScratch::default();
        let plan = SegmentPlan::disabled();
        let g = tape.backward_segmented(y, &plan, 8, &mut scratch);
        assert_eq!(g.wrt(x), 7.0);
    }

    #[test]
    fn single_chunk_groups_fold_to_serial() {
        let mut plan = SegmentPlan::new();
        plan.serial_to(4);
        plan.begin_group();
        plan.chunk_to(10);
        plan.end_group();
        assert!(!plan.has_groups());
        plan.begin_group();
        plan.chunk_to(20);
        plan.chunk_to(30);
        plan.end_group();
        assert!(plan.has_groups());
    }
}
