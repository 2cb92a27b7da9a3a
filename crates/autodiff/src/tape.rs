//! The gradient tape: an append-only arena of scalar-operation node
//! records.
//!
//! ## Layout and the recording hot path
//!
//! The tape stores one [`Node`] record per recorded operation: its parent
//! ids, the partial derivatives with respect to them, and its arity. The
//! backward sweep touches exactly these fields and nothing else, and
//! forward values are not stored on the tape at all ([`Var`](crate::Var)
//! carries its own value). One record per op replaced an earlier
//! structure-of-arrays layout (three parallel vectors) because recording
//! dominates a descent step: one vector means one capacity check and one
//! store per op instead of three.
//!
//! Recording is a single-owner bump append: the store sits behind one
//! [`UnsafeCell`] and every recording call takes exclusive access for the
//! duration of one push — the moral equivalent of holding a recording
//! session open for the whole forward pass, without threading a session
//! handle through every operator. This is sound because `Tape` is `!Sync`
//! (no two threads can record concurrently), no method hands out a
//! reference into the store, and no method calls user code while the
//! interior reference is live. The old implementation paid two
//! `RefCell::borrow_mut`s plus a bounds `assert!` per scalar op; the
//! rewrite pays one branch (`len == capacity`) that stays perfectly
//! predicted until the arena actually needs to grow.
//!
//! The node-id overflow check moved with it: ids are `u32`, and instead of
//! asserting on every push the tape asserts at the amortized [grow
//! boundary](TapeStore::grow) that capacity never exceeds [`MAX_NODES`] —
//! pushes between grows cannot overflow by construction.
//!
//! The backward sweep ([`Tape::backward`] and [`Tape::backward_into`])
//! walks the records once in descending id order, skipping zero adjoints.

use std::cell::UnsafeCell;
use std::fmt;

/// Index of a node on the tape.
type NodeId = u32;

/// Hard cap on tape length: node ids must fit in a `u32` (the sentinel
/// `u32::MAX` is excluded so `len` itself always fits too).
const MAX_NODES: usize = u32::MAX as usize - 1;

/// One recorded operation: `grads[p]` is the partial derivative of this
/// node with respect to `parents[p]`, computed at forward time, for
/// `p < arity`.
#[derive(Clone, Copy)]
struct Node {
    parents: [NodeId; 2],
    grads: [f64; 2],
    arity: u8,
}

/// The node storage: one record per recorded operation, in id order.
#[derive(Default)]
struct TapeStore {
    nodes: Vec<Node>,
}

impl TapeStore {
    #[inline]
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Append one node. Branch-light: the only branch is the amortized
    /// capacity check, and the id-overflow assertion lives inside the cold
    /// [`TapeStore::grow`] path.
    #[inline]
    fn push(&mut self, node: Node) -> NodeId {
        if self.nodes.len() == self.nodes.capacity() {
            self.grow();
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        id
    }

    /// The amortized capacity (and id-overflow) boundary: doubling growth,
    /// capped at [`MAX_NODES`] so ids can never silently wrap.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.reserve_extra(self.nodes.capacity().max(32));
    }

    fn reserve_extra(&mut self, extra: usize) {
        let len = self.nodes.len();
        assert!(
            len < MAX_NODES,
            "tape overflow: more than {MAX_NODES} nodes"
        );
        let want = len.saturating_add(extra).min(MAX_NODES);
        self.nodes.reserve(want - len);
    }

    fn clear(&mut self) {
        self.nodes.clear();
    }
}

/// A reverse-mode automatic-differentiation tape.
///
/// Values are recorded as [`Var`](crate::Var)s; calling
/// [`Tape::backward`] produces the gradient of one scalar output with
/// respect to every recorded variable.
///
/// # Examples
///
/// ```
/// use dosa_autodiff::Tape;
/// let tape = Tape::new();
/// let x = tape.var(3.0);
/// let y = tape.var(2.0);
/// let z = x * y + x.ln();
/// let grads = tape.backward(z);
/// assert!((grads.wrt(x) - (2.0 + 1.0 / 3.0)).abs() < 1e-12);
/// assert!((grads.wrt(y) - 3.0).abs() < 1e-12);
/// ```
#[derive(Default)]
pub struct Tape {
    store: UnsafeCell<TapeStore>,
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Borrow the store for read-only sweep access.
    ///
    /// Crate-internal invariant: callers must not trigger recording (or
    /// any other store mutation) while the returned reference is live.
    /// Every backward sweep upholds this by construction — it runs no user
    /// code — and `Tape` is `!Sync`, so no other thread can record.
    #[inline]
    fn store(&self) -> &TapeStore {
        // SAFETY: aliasing — this shared borrow of the arena is only ever
        // taken by sweep code, which records nothing, so no `&mut` from
        // `clear`/`record` can coexist with it (all three are confined to
        // single public-method bodies and `Tape` is `!Sync`).
        // The returned `&TapeStore` borrows `self`, so the borrow checker
        // keeps it from outliving the tape or crossing a `&mut self` call.
        unsafe { &*self.store.get() }
    }

    /// Number of nodes recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear the tape, invalidating all previously created variables.
    ///
    /// Reuses allocations; useful when re-running a model every optimizer
    /// step.
    pub fn clear(&self) {
        // SAFETY: the `&mut` is exclusive for the duration of this call —
        // `Tape` is `!Sync` (one thread), clear runs no user code that
        // could re-enter the tape, and no reference into the arena escapes
        // any public method, so none can be live across this borrow.
        // Clearing only resets lengths; it never frees the arena, so even
        // a leaked raw pointer would dangle into live (stale) storage.
        unsafe { &mut *self.store.get() }.clear();
    }

    /// Record a leaf variable with value `v`.
    #[inline]
    pub fn var(&self, v: f64) -> crate::Var<'_> {
        self.record(v, [0, 0], [0.0, 0.0], 0)
    }

    /// Record a constant (identical to [`Tape::var`]; constants still occupy
    /// a node so gradients w.r.t. them can be inspected, and are zero-cost on
    /// the backward sweep).
    #[inline]
    pub fn constant(&self, v: f64) -> crate::Var<'_> {
        self.var(v)
    }

    /// The recording hot path: one exclusive store access, one bump append.
    #[inline]
    pub(crate) fn record(
        &self,
        value: f64,
        parents: [NodeId; 2],
        grads: [f64; 2],
        arity: u8,
    ) -> crate::Var<'_> {
        // SAFETY: single-borrow recording — the `&mut` lives exactly for
        // this `push`, which runs no user code, so recording can never
        // re-enter the tape and observe a second live borrow. `Tape` is
        // `!Sync`, so no concurrent sweep holds a shared borrow. `push`
        // may take the grow path and reallocate the node vector; that is
        // sound because no reference into the old storage can exist here:
        // sweep borrows (`store()`) end before any `&self` method returns,
        // and no reference into the arena survives outside a method body.
        let id = unsafe { &mut *self.store.get() }.push(Node {
            parents,
            grads,
            arity,
        });
        crate::Var {
            tape: self,
            id,
            value,
        }
    }

    /// Run the backward sweep from `output`, returning the adjoint of every
    /// node on the tape.
    ///
    /// Allocates a fresh adjoint vector; hot loops that backpropagate once
    /// per optimizer step should keep a scratch buffer alive and use
    /// [`Tape::backward_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `output` belongs to a different tape generation (i.e. the
    /// tape was [`clear`](Tape::clear)ed after `output` was created).
    pub fn backward(&self, output: crate::Var<'_>) -> Gradients {
        let mut adj = Vec::new();
        self.backward_into(output, &mut adj);
        Gradients { adj }
    }

    /// Run the backward sweep from `output` into a caller-owned adjoint
    /// buffer, reusing its allocation across calls.
    ///
    /// `adj` is cleared and resized to the tape length; on return it holds
    /// the adjoint of every node and the returned [`GradientsView`] borrows
    /// it for lookups. A GD search backpropagates once per sample —
    /// ~900–1500 times per start point — so reusing one buffer per worker
    /// removes that many transient allocations of tape size.
    ///
    /// # Panics
    ///
    /// Panics if `output` belongs to a different tape generation (i.e. the
    /// tape was [`clear`](Tape::clear)ed after `output` was created).
    pub fn backward_into<'a>(
        &self,
        output: crate::Var<'_>,
        adj: &'a mut Vec<f64>,
    ) -> GradientsView<'a> {
        let store = self.store();
        assert!(
            (output.id as usize) < store.len(),
            "output var is not on this tape"
        );
        adj.clear();
        adj.resize(store.len(), 0.0);
        let cells: &mut [f64] = adj;
        cells[output.id as usize] = 1.0;
        for i in (0..=output.id as usize).rev() {
            let a = cells[i];
            // dosa-lint: allow(float-eq) — exact-zero adjoint skip: a dead
            // node contributes exactly 0.0, so skipping it changes no bit.
            if a == 0.0 {
                continue;
            }
            let node = &store.nodes[i];
            for p in 0..node.arity as usize {
                cells[node.parents[p] as usize] += a * node.grads[p];
            }
        }
        GradientsView { adj }
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tape").field("len", &self.len()).finish()
    }
}

/// The result of a backward sweep: adjoints for every tape node.
#[derive(Debug, Clone)]
pub struct Gradients {
    adj: Vec<f64>,
}

impl Gradients {
    /// Gradient of the backward output with respect to `v`.
    pub fn wrt(&self, v: crate::Var<'_>) -> f64 {
        self.adj[v.id as usize]
    }

    /// Gradients with respect to a slice of variables, in order.
    pub fn wrt_slice(&self, vars: &[crate::Var<'_>]) -> Vec<f64> {
        vars.iter().map(|&v| self.wrt(v)).collect()
    }

    /// Like [`Gradients::wrt_slice`] but writing into a caller-owned
    /// buffer (cleared first), so per-step leaf gathers allocate nothing.
    pub fn wrt_into(&self, vars: &[crate::Var<'_>], out: &mut Vec<f64>) {
        out.clear();
        out.extend(vars.iter().map(|&v| self.wrt(v)));
    }
}

/// A borrowed view of a backward sweep's adjoints, produced by
/// [`Tape::backward_into`]; the buffer it reads stays owned by the caller.
#[derive(Debug)]
pub struct GradientsView<'a> {
    adj: &'a [f64],
}

impl GradientsView<'_> {
    /// Gradient of the backward output with respect to `v`.
    pub fn wrt(&self, v: crate::Var<'_>) -> f64 {
        self.adj[v.id as usize]
    }

    /// Gradients with respect to a slice of variables, in order.
    pub fn wrt_slice(&self, vars: &[crate::Var<'_>]) -> Vec<f64> {
        vars.iter().map(|&v| self.wrt(v)).collect()
    }

    /// Like [`GradientsView::wrt_slice`] but writing into a caller-owned
    /// buffer (cleared first), so per-step leaf gathers allocate nothing.
    pub fn wrt_into(&self, vars: &[crate::Var<'_>], out: &mut Vec<f64>) {
        out.clear();
        out.extend(vars.iter().map(|&v| self.wrt(v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_resets() {
        let tape = Tape::new();
        let _ = tape.var(1.0);
        assert_eq!(tape.len(), 1);
        tape.clear();
        assert!(tape.is_empty());
    }

    #[test]
    fn backward_of_leaf_is_one() {
        let tape = Tape::new();
        let x = tape.var(5.0);
        let g = tape.backward(x);
        assert_eq!(g.wrt(x), 1.0);
    }

    #[test]
    fn backward_into_matches_backward_and_reuses_buffer() {
        let tape = Tape::new();
        let mut adj = Vec::new();
        for k in 1..=3 {
            tape.clear();
            let x = tape.var(2.0 * k as f64);
            let y = tape.var(3.0);
            let z = x * y + x.ln();
            let expect = tape.backward(z);
            let view = tape.backward_into(z, &mut adj);
            assert_eq!(view.wrt(x), expect.wrt(x));
            assert_eq!(view.wrt(y), expect.wrt(y));
            assert_eq!(view.wrt_slice(&[x, y]), expect.wrt_slice(&[x, y]));
        }
        // The buffer sticks around sized to the last sweep.
        assert_eq!(adj.len(), tape.len());
    }

    #[test]
    fn backward_into_clears_stale_adjoints() {
        let tape = Tape::new();
        let x = tape.var(5.0);
        let y = tape.var(7.0);
        let z = x * y;
        let mut adj = vec![99.0; 16];
        let view = tape.backward_into(z, &mut adj);
        assert_eq!(view.wrt(x), 7.0);
        assert_eq!(view.wrt(y), 5.0);
    }

    #[test]
    fn unreachable_nodes_have_zero_grad() {
        let tape = Tape::new();
        let x = tape.var(5.0);
        let y = tape.var(2.0);
        let z = x * x;
        let g = tape.backward(z);
        assert_eq!(g.wrt(y), 0.0);
        assert_eq!(g.wrt(x), 10.0);
    }

    #[test]
    fn wrt_into_reuses_buffer() {
        let tape = Tape::new();
        let x = tape.var(2.0);
        let y = tape.var(5.0);
        let z = x * y;
        let mut out = vec![1.0; 8];
        let g = tape.backward(z);
        g.wrt_into(&[x, y], &mut out);
        assert_eq!(out, vec![5.0, 2.0]);
        let mut adj = Vec::new();
        let view = tape.backward_into(z, &mut adj);
        view.wrt_into(&[y, x], &mut out);
        assert_eq!(out, vec![2.0, 5.0]);
    }
}
