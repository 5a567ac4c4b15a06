//! The compiler's count of fused instructions, kept under this module
//! path because the benchmark reads [`last_stats`] here. Delete the
//! module when the benchmark next changes.

use std::cell::Cell;

thread_local! {
    static LAST: Cell<u64> = const { Cell::new(0) };
}

/// What the most recent module compilation on this thread emitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeepStats {
    /// Instructions with a folded operand address or a branch target
    /// (those [`Op::is_fused`](crate::bytecode::Op::is_fused) marks).
    pub fused: u64,
}

/// Statistics for the most recent module compilation on this thread.
pub fn last_stats() -> PeepStats {
    PeepStats {
        fused: LAST.with(Cell::get),
    }
}

pub(crate) fn record(fused: u64) {
    LAST.with(|l| l.set(fused));
}
