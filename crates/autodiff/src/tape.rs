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
//! duration of one push (and a replay for the duration of its loop) — the moral equivalent of holding a recording
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
//!
//! ## The tape is the program
//!
//! Each record also names its operation ([`Op`], one byte of what used to
//! be padding), and an op's constant operand — `k` in `x * k`, `powf` or
//! `hinge_below`, the value of a constant node — sits in the partial slot
//! the op does not use. Recording therefore stays one 32-byte store per
//! op, and the recorded tape is a program: [`Tape::replay`] walks the
//! records in id order on new leaf values, writes every node's value into
//! a caller-owned buffer and its partials back into the record, and the
//! unchanged backward sweep then runs over the same records in the same
//! order. Recording and replay evaluate a node through one formula
//! ([`Op::eval`]), so a replayed value or partial is the recorded one bit
//! for bit.
//!
//! Side lists hold what a node record has no room for. Both refer to
//! *node groups*, runs of node ids in one more side list:
//!
//! * **guards** — the value-dependent questions the recording code asked
//!   ([`Scalar::any_exceeds`](crate::Scalar::any_exceeds)), each `(group,
//!   threshold, outcome)`: did any node of the group exceed the
//!   threshold? The recorded graph is valid for new leaf values exactly
//!   when every guard gets the same answer ([`Tape::guards_hold`]);
//! * **shifts** — an [`Op::SubMax`] node names the group of scores whose
//!   stop-gradient max it subtracts
//!   ([`Scalar::sub_max`](crate::Scalar::sub_max)); replay recomputes the
//!   max from the new score values.
//!
//! The guards of a well-formed program all read nodes of its *stem*, the
//! records before the first guard question ([`Tape::stem_len`]): the stem
//! cannot depend on a guard, so replaying it once answers every guard.

use std::cell::UnsafeCell;
use std::fmt;

/// Index of a node on the tape.
type NodeId = u32;

/// Hard cap on tape length: node ids must fit in a `u32` (the sentinel
/// `u32::MAX` is excluded so `len` itself always fits too).
const MAX_NODES: usize = u32::MAX as usize - 1;

/// What a node computes, for replay. The doc of each variant says where
/// its operands live: `a` is the value of `parents[0]`, `b` that of
/// `parents[1]`, and `k` the constant in `grads[1]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Op {
    /// A leaf; `parents[0]` is its leaf ordinal, the index of the replay
    /// input it reads.
    Leaf,
    /// A constant; its value is `grads[0]`.
    Const,
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `max(a, b)`, ties to `a`.
    Max,
    /// `min(a, b)`, ties to `a`.
    Min,
    /// `a + k`.
    AddK,
    /// `a - k`.
    SubK,
    /// `k - a`.
    KSub,
    /// `a * k`.
    MulK,
    /// `a / k`.
    DivK,
    /// `a` to the constant power `k`.
    PowK,
    /// `max(k - a, 0)`.
    HingeK,
    /// `-a`.
    Neg,
    /// `ln a`.
    Ln,
    /// `exp a`.
    Exp,
    /// `sqrt a`.
    Sqrt,
    /// `1 / a`.
    Recip,
    /// `a * a`.
    Square,
    /// `max(a, 0)`.
    Relu,
    /// `a - m`, `m` the largest value of the node group at side-list
    /// offset `parents[1]`, a stop-gradient constant.
    SubMax,
}

impl Op {
    /// The forward value and partials `(value, ∂/∂a, ∂/∂b)` of this op on
    /// operand values `a`, `b` and constant `k` (for [`Op::SubMax`], `b`
    /// is the group max). Unary ops ignore `b`; leaves and constants are
    /// not evaluated here. Recording and replay both call this, so they
    /// agree bit for bit.
    #[inline(always)]
    pub(crate) fn eval(self, a: f64, b: f64, k: f64) -> (f64, f64, f64) {
        match self {
            Op::Leaf | Op::Const => (a, 0.0, 0.0),
            Op::Add => (a + b, 1.0, 1.0),
            Op::Sub => (a - b, 1.0, -1.0),
            Op::Mul => (a * b, b, a),
            Op::Div => (a / b, 1.0 / b, -a / (b * b)),
            Op::Max => {
                if a >= b {
                    (a, 1.0, 0.0)
                } else {
                    (b, 0.0, 1.0)
                }
            }
            Op::Min => {
                if a <= b {
                    (a, 1.0, 0.0)
                } else {
                    (b, 0.0, 1.0)
                }
            }
            Op::AddK => (a + k, 1.0, 0.0),
            Op::SubK => (a - k, 1.0, 0.0),
            Op::KSub => (k - a, -1.0, 0.0),
            Op::MulK => (a * k, k, 0.0),
            Op::DivK => (a / k, 1.0 / k, 0.0),
            Op::PowK => (a.powf(k), k * a.powf(k - 1.0), 0.0),
            Op::HingeK => {
                if a < k {
                    (k - a, -1.0, 0.0)
                } else {
                    (0.0, 0.0, 0.0)
                }
            }
            Op::Neg => (-a, -1.0, 0.0),
            Op::Ln => (a.ln(), 1.0 / a, 0.0),
            Op::Exp => {
                let e = a.exp();
                (e, e, 0.0)
            }
            Op::Sqrt => {
                let v = a.sqrt();
                (v, 0.5 / v, 0.0)
            }
            Op::Recip => {
                let v = 1.0 / a;
                (v, -v * v, 0.0)
            }
            Op::Square => (a * a, 2.0 * a, 0.0),
            Op::Relu => {
                if a > 0.0 {
                    (a, 1.0, 0.0)
                } else {
                    (0.0, 0.0, 0.0)
                }
            }
            Op::SubMax => (a - b, 1.0, 0.0),
        }
    }
}

/// One recorded operation: `grads[p]` is the partial derivative of this
/// node with respect to `parents[p]`, computed at forward time, for
/// `p < arity`. Slots past `arity` hold what [`Op`] says.
#[derive(Clone, Copy)]
struct Node {
    parents: [NodeId; 2],
    grads: [f64; 2],
    arity: u8,
    op: Op,
}

// The op code lives in what used to be padding: a record stays 32 bytes.
const _: () = assert!(std::mem::size_of::<Node>() == 32);

/// A recorded value-dependent question: did any node of the group at
/// side-list offset `group` exceed `threshold`?
#[derive(Clone, Copy)]
struct Guard {
    group: NodeId,
    outcome: bool,
    threshold: f64,
}

/// The node storage: one record per recorded operation, in id order, plus
/// the guard and node-group side lists.
#[derive(Default)]
struct TapeStore {
    nodes: Vec<Node>,
    /// Leaves recorded so far (the next leaf's ordinal).
    leaves: NodeId,
    guards: Vec<Guard>,
    /// Tape length when the first guard was asked.
    stem: usize,
    /// Nodes whose operand ids were checked to precede them
    /// ([`TapeStore::check_operands`]).
    checked: usize,
    /// Some guard read a node recorded after the stem, so the stem alone
    /// cannot answer the guards.
    guard_past_stem: bool,
    /// Node groups, each `[n, id_0, .., id_{n-1}]`.
    groups: Vec<NodeId>,
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

    /// Check that every operand id of the nodes up to `end` precedes its
    /// node, once per recorded node: the replay loop reads operand values
    /// unchecked on the strength of it. A `Var` of another tape, or one
    /// kept across a [`Tape::clear`], can break it.
    fn check_operands(&mut self, end: usize) {
        for j in self.checked..end {
            let node = &self.nodes[j];
            let arity = node.arity as usize;
            assert!(
                node.parents[..arity].iter().all(|&p| (p as usize) < j),
                "node {j} reads a var that is not on this tape"
            );
        }
        self.checked = self.checked.max(end);
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.leaves = 0;
        self.guards.clear();
        self.stem = 0;
        self.checked = 0;
        self.guard_past_stem = false;
        self.groups.clear();
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
        self.store_mut().clear();
    }

    /// Exclusive access to the store for one recording or replay call.
    ///
    /// Crate-internal invariant: the caller holds the borrow only inside
    /// one method body that runs no user code and returns no reference
    /// into the store.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn store_mut(&self) -> &mut TapeStore {
        // SAFETY: single-borrow access — every caller confines the `&mut`
        // to its own body, which runs no user code, so recording or replay
        // can never re-enter the tape and observe a second live borrow.
        // `Tape` is `!Sync`, so no concurrent sweep holds a shared borrow,
        // and sweep borrows (`store()`) end before any `&self` method
        // returns. A push may take the grow path and reallocate the node
        // vector; no reference into the old storage survives outside a
        // method body, so none can dangle.
        unsafe { &mut *self.store.get() }
    }

    /// Record a leaf variable with value `v`.
    ///
    /// Leaves are numbered in recording order; [`Tape::replay`] reads the
    /// `i`-th leaf's new value from `leaves[i]`.
    #[inline]
    pub fn var(&self, v: f64) -> crate::Var<'_> {
        let ordinal = {
            let store = self.store_mut();
            let ordinal = store.leaves;
            store.leaves += 1;
            ordinal
        };
        self.record(v, [ordinal, 0], [0.0, 0.0], 0, Op::Leaf)
    }

    /// Record a constant. Constants still occupy a node so gradients
    /// w.r.t. them can be inspected, and are zero-cost on the backward
    /// sweep; replay keeps their recorded value.
    #[inline]
    pub fn constant(&self, v: f64) -> crate::Var<'_> {
        self.record(v, [0, 0], [v, 0.0], 0, Op::Const)
    }

    /// Number of leaves recorded so far.
    pub fn leaf_count(&self) -> usize {
        self.store().leaves as usize
    }

    /// The recording hot path: one exclusive store access, one bump append.
    #[inline]
    pub(crate) fn record(
        &self,
        value: f64,
        parents: [NodeId; 2],
        grads: [f64; 2],
        arity: u8,
        op: Op,
    ) -> crate::Var<'_> {
        let id = self.store_mut().push(Node {
            parents,
            grads,
            arity,
            op,
        });
        crate::Var {
            tape: self,
            id,
            value,
        }
    }

    /// Answer whether any of `of` has a value above `threshold`, and
    /// record the question as a guard.
    pub(crate) fn guard(&self, of: &[crate::Var<'_>], threshold: f64) -> bool {
        let outcome = of.iter().any(|v| v.value > threshold);
        let group = self.group(of);
        let store = self.store_mut();
        if store.guards.is_empty() {
            store.stem = store.len();
        }
        if of.iter().any(|v| v.id as usize >= store.stem) {
            store.guard_past_stem = true;
        }
        store.guards.push(Guard {
            group,
            outcome,
            threshold,
        });
        outcome
    }

    /// Append the node group `of` to the side list; returns its offset.
    pub(crate) fn group(&self, of: &[crate::Var<'_>]) -> NodeId {
        let store = self.store_mut();
        let at = store.groups.len() as NodeId;
        store.groups.push(of.len() as NodeId);
        store.groups.extend(of.iter().map(|v| v.id));
        at
    }

    /// The node ids of the group at side-list offset `at`.
    fn members(groups: &[NodeId], at: NodeId) -> &[NodeId] {
        let at = at as usize + 1;
        &groups[at..at + groups[at - 1] as usize]
    }

    /// Number of nodes recorded before the first guard question (every
    /// node when no guard was asked). Nothing in the stem can depend on a
    /// guard, so every program a loss records between two changes of its
    /// guard-free inputs shares it.
    pub fn stem_len(&self) -> usize {
        let store = self.store();
        if store.guards.is_empty() {
            store.len()
        } else {
            store.stem
        }
    }

    /// Whether every recorded guard gets its recorded answer from
    /// `values`, node values from a replay of at least the stem
    /// ([`Tape::replay_stem`]). When they all do, recording at those values
    /// would record exactly this graph, so replaying it is exact. False
    /// when some guard read a node past the stem, whose value the stem
    /// replay does not provide.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the stem.
    pub fn guards_hold(&self, values: &[f64]) -> bool {
        let store = self.store();
        !store.guard_past_stem
            && store.guards.iter().all(|g| {
                let above = Tape::members(&store.groups, g.group)
                    .iter()
                    .any(|&id| values[id as usize] > g.threshold);
                above == g.outcome
            })
    }

    /// Replay the stem ([`Tape::stem_len`]) on new leaf values, so that
    /// `values` can answer [`Tape::guards_hold`] (see [`Tape::replay`]).
    ///
    /// # Panics
    ///
    /// As [`Tape::replay`].
    pub fn replay_stem(&self, leaves: &[f64], values: &mut Vec<f64>) {
        self.replay_nodes(0..self.stem_len(), leaves, values);
    }

    /// Re-evaluate the nodes `from..=output`, in id order, on new leaf
    /// values and return `output`'s new value. Each node's value goes into
    /// `values[id]` (grown to the tape length if shorter) and its partials
    /// into its record, with the formula of the `Var` op that recorded it.
    /// Leaf `i` takes `leaves[i]`; constants keep their value; a softmax
    /// shift recomputes its stop-gradient max from its group's new values.
    /// Nodes before `from` must already hold their new values in `values`
    /// and their partials in their records — a `from` of `0` replays the
    /// whole program, [`Tape::stem_len`] follows [`Tape::replay_stem`].
    ///
    /// The caller then sweeps with [`Tape::backward_into`] as after a
    /// recording. Replay reuses the records in place, so every
    /// [`Var`](crate::Var) handle recorded on this tape stays valid for the
    /// sweep and the gradient lookups; only its cached
    /// [`Var::value`](crate::Var::value) is stale. The result equals a
    /// fresh recording's bit for bit while [`Tape::guards_hold`].
    ///
    /// # Panics
    ///
    /// Panics if `output` is not on this tape or `leaves` is shorter than
    /// [`Tape::leaf_count`].
    pub fn replay(
        &self,
        from: usize,
        output: crate::Var<'_>,
        leaves: &[f64],
        values: &mut Vec<f64>,
    ) -> f64 {
        let end = output.id as usize + 1;
        self.replay_nodes(from.min(end)..end, leaves, values);
        values[output.id as usize]
    }

    /// The replay loop of [`Tape::replay`] over the node ids in `nodes`.
    fn replay_nodes(&self, nodes: std::ops::Range<usize>, leaves: &[f64], values: &mut Vec<f64>) {
        let store = self.store_mut();
        store.check_operands(nodes.end);
        if values.len() < store.nodes.len() {
            values.resize(store.nodes.len(), 0.0);
        }
        let groups = &store.groups;
        let vals: &mut [f64] = values;
        let start = nodes.start;
        for (i, node) in (start..).zip(&mut store.nodes[nodes]) {
            let (p0, p1) = (node.parents[0] as usize, node.parents[1] as usize);
            // The operand value of parent slot `p` of this node.
            macro_rules! at {
                ($p:expr) => {
                    // SAFETY: only arms of ops with an operand read `p0`,
                    // and only arms of binary ops `p1`; `check_operands`
                    // above asserted both below `i` for every node up to
                    // `nodes.end`, and `i < store.nodes.len() <=
                    // vals.len()` (slicing `store.nodes[nodes]` checked the
                    // first bound, the resize above the second). Replay
                    // never changes `parents`, and recording only appends.
                    unsafe { *vals.get_unchecked($p) }
                };
            }
            // One arm per op, each evaluating its own `Op::eval` case. Ops
            // whose partials are constants keep the recorded ones; the
            // others write theirs back.
            macro_rules! unary {
                ($op:ident) => {{
                    let (v, g, _) = Op::$op.eval(at!(p0), 0.0, node.grads[1]);
                    node.grads[0] = g;
                    v
                }};
            }
            macro_rules! binary {
                ($op:ident) => {{
                    let (v, ga, gb) = Op::$op.eval(at!(p0), at!(p1), 0.0);
                    node.grads = [ga, gb];
                    v
                }};
            }
            macro_rules! value_only {
                ($op:ident, $b:expr) => {
                    Op::$op.eval(at!(p0), $b, node.grads[1]).0
                };
            }
            let value = match node.op {
                Op::Mul => binary!(Mul),
                Op::Add => value_only!(Add, at!(p1)),
                Op::Leaf => leaves[p0],
                Op::Const => node.grads[0],
                Op::Sub => value_only!(Sub, at!(p1)),
                Op::Div => binary!(Div),
                Op::Max => binary!(Max),
                Op::Min => binary!(Min),
                Op::AddK => value_only!(AddK, 0.0),
                Op::SubK => value_only!(SubK, 0.0),
                Op::KSub => value_only!(KSub, 0.0),
                Op::MulK => value_only!(MulK, 0.0),
                Op::DivK => value_only!(DivK, 0.0),
                Op::Neg => value_only!(Neg, 0.0),
                Op::PowK => unary!(PowK),
                Op::HingeK => unary!(HingeK),
                Op::Ln => unary!(Ln),
                Op::Exp => unary!(Exp),
                Op::Sqrt => unary!(Sqrt),
                Op::Recip => unary!(Recip),
                Op::Square => unary!(Square),
                Op::Relu => unary!(Relu),
                Op::SubMax => {
                    let m = Tape::members(groups, p1 as NodeId)
                        .iter()
                        .map(|&id| vals[id as usize])
                        .fold(f64::NEG_INFINITY, f64::max);
                    value_only!(SubMax, m)
                }
            };
            // SAFETY: `i < store.nodes.len() <= vals.len()`, as for `at!`.
            unsafe { *vals.get_unchecked_mut(i) = value };
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
    /// Panics if `output`'s id is not below the tape length. That is the
    /// only check: a `Var` kept across a [`clear`](Tape::clear) whose id
    /// is still in range is not detected, and sweeps whatever node now
    /// has that id. Replay does not clear, so handles recorded before a
    /// [`Tape::replay`] stay valid.
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
    /// As [`Tape::backward`]: only `output`'s id is checked against the
    /// tape length.
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

    /// Every op kind, a guard and a softmax shift, on two leaves.
    fn program(tape: &Tape, x: f64, y: f64) -> (crate::Var<'_>, [crate::Var<'_>; 2]) {
        let (a, b) = (tape.var(x), tape.var(y));
        let c = tape.constant(1.5);
        let mut t = (a * b + c) / (a - b).square().sqrt().max(c).min(a + 9.0);
        t = t + (a * 2.0 - 1.0).powf(1.5) / 3.0 + (4.0 - b).relu() - b.hinge_below(2.0);
        t = t + (-a).exp().ln() + 2.0 / b;
        if crate::Var::any_exceeds(&[a, c], 1.6) {
            t = t * b;
        }
        let scores = [a, b, t];
        let soft = scores.map(|s| s.sub_max(&scores).exp());
        (t + soft[0] / (soft[1] + soft[2]), [a, b])
    }

    fn bits_of(tape: &Tape, out: crate::Var<'_>, leaves: &[crate::Var<'_>]) -> Vec<u64> {
        let g = tape.backward(out);
        leaves.iter().map(|&l| g.wrt(l).to_bits()).collect()
    }

    #[test]
    fn replay_matches_a_fresh_recording_bit_for_bit() {
        let tape = Tape::new();
        let (out, leaves) = program(&tape, 1.75, 0.75);
        let mut values = Vec::new();
        for (x, y) in [(1.75, 0.75), (1.7, 0.3), (3.0, 2.5), (1.61, 5.0)] {
            tape.replay_stem(&[x, y], &mut values);
            assert!(tape.guards_hold(&values));
            let v = tape.replay(tape.stem_len(), out, &[x, y], &mut values);
            let fresh = Tape::new();
            let (f_out, f_leaves) = program(&fresh, x, y);
            assert_eq!(fresh.len(), tape.len());
            assert_eq!(v.to_bits(), f_out.value().to_bits());
            assert_eq!(
                bits_of(&tape, out, &leaves),
                bits_of(&fresh, f_out, &f_leaves)
            );
        }
    }

    #[test]
    fn a_flipped_guard_fails_and_a_clear_resets_the_side_lists() {
        let tape = Tape::new();
        let _ = program(&tape, 1.75, 0.75);
        assert!(tape.stem_len() < tape.len());
        let mut values = Vec::new();
        tape.replay_stem(&[1.5, 0.75], &mut values);
        assert!(!tape.guards_hold(&values));
        tape.clear();
        assert_eq!((tape.leaf_count(), tape.stem_len()), (0, 0));
        let x = tape.var(2.0);
        assert_eq!(tape.stem_len(), 1);
        assert!(tape.guards_hold(&[]));
        assert_eq!(tape.replay(0, x * 3.0, &[4.0], &mut values), 12.0);
    }

    #[test]
    fn a_guard_past_the_stem_never_holds() {
        let tape = Tape::new();
        let x = tape.var(2.0);
        assert!(crate::Var::any_exceeds(&[x], 1.0));
        let y = x * 3.0;
        assert!(crate::Var::any_exceeds(&[x, y], 1.0));
        let mut values = Vec::new();
        tape.replay_stem(&[2.0], &mut values);
        assert!(!tape.guards_hold(&values));
    }

    #[test]
    #[should_panic(expected = "reads a var that is not on this tape")]
    fn replaying_an_op_on_a_foreign_var_panics() {
        let (mine, other) = (Tape::new(), Tape::new());
        let x = mine.var(1.0);
        let far = (0..4).fold(other.var(2.0), |v, _| v * 2.0);
        let y = x * far;
        let _ = mine.replay(0, y, &[1.0], &mut Vec::new());
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
