//! Compatibility names for callers written against the removed segmented
//! sweep: [`SegmentPlan`] records nothing and
//! [`Tape::backward_segmented`] is the flat [`Tape::backward_into`].
//! New code should call [`Tape::backward_into`] directly.

use crate::{GradientsView, Tape, Var};

/// An ignored placeholder kept so existing `plan` arguments still compile.
#[derive(Debug, Clone, Default)]
pub struct SegmentPlan;

impl SegmentPlan {
    /// The placeholder.
    pub fn new() -> SegmentPlan {
        SegmentPlan
    }

    /// Does nothing; there is nothing recorded to reset.
    pub fn clear(&mut self) {}
}

/// The reused adjoint buffer of [`Tape::backward_segmented`].
#[derive(Debug, Default)]
pub struct SegScratch {
    adj: Vec<f64>,
}

impl SegScratch {
    /// An empty scratch; the buffer grows on first use and is then reused.
    pub fn new() -> SegScratch {
        SegScratch::default()
    }
}

impl Tape {
    /// [`Tape::backward_into`] on `scratch`'s buffer; `plan` and `threads`
    /// are ignored, so every `threads` value gives the same bits.
    pub fn backward_segmented<'a>(
        &self,
        output: Var<'_>,
        _plan: &SegmentPlan,
        _threads: usize,
        scratch: &'a mut SegScratch,
    ) -> GradientsView<'a> {
        self.backward_into(output, &mut scratch.adj)
    }
}
