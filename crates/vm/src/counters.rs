//! Per-opcode execution counters.
//!
//! Counting is always compiled in and off until [`set_active`] turns it
//! on for a run. The machine ([`crate::machine`]) checks [`active`] once
//! per VM entry and selects a monomorphized interpreter loop, so the hot
//! loop carries no per-opcode branch when counting is off. The counting
//! loop adds each instruction into a [`Tally`] of its own activation and
//! adds that into the thread's counts once, when the activation exits.

use crate::bytecode::{Op, OpClass, KINDS};
use std::cell::{Cell, RefCell};

/// Slots of a dense count table: one per instruction kind with and
/// without folded operands.
const SLOTS: usize = 2 * KINDS.len();

/// Executions per instruction kind and fused flag, slot `2 * kind +
/// fused` (see [`Op::kind`] and [`Op::is_fused`]).
pub(crate) struct Tally([u64; SLOTS]);

impl Default for Tally {
    fn default() -> Tally {
        Tally([0; SLOTS])
    }
}

impl Tally {
    /// Counts one execution of `op`. An instruction counts separately
    /// with and without folded operands (`Add2(S, S)` and `Add2(L0, K1)`
    /// are two rows), so the fused share is exact.
    #[inline(always)]
    pub(crate) fn record(&mut self, op: &Op) {
        self.0[2 * op.kind() + usize::from(op.is_fused())] += 1;
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COUNTS: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Turns opcode counting on or off for this thread. The machine samples
/// this once per entry, so toggling mid-run affects only later entries.
pub fn set_active(active: bool) {
    ACTIVE.with(|a| a.set(active));
}

/// Whether opcode counting is currently active on this thread.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Adds an activation's counts into this thread's.
pub(crate) fn add(tally: &Tally) {
    COUNTS.with(|c| {
        for (total, n) in c.borrow_mut().0.iter_mut().zip(&tally.0) {
            *total += n;
        }
    });
}

/// Records one execution of `op` in this thread's counts.
pub fn record(op: &Op) {
    COUNTS.with(|c| c.borrow_mut().record(op));
}

/// Clears all recorded counts.
pub fn reset() {
    COUNTS.with(|c| *c.borrow_mut() = Tally::default());
}

/// The recorded counts as `(mnemonic, class, fused, count)`, sorted by
/// descending count (ties by mnemonic, then fused, for stable output).
/// `fused` marks executions with a folded operand or a branch target
/// ([`Op::is_fused`]), so reports can show a fusion rate.
pub fn snapshot() -> Vec<(&'static str, OpClass, bool, u64)> {
    let mut rows: Vec<_> = COUNTS.with(|c| {
        c.borrow()
            .0
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(slot, &count)| {
                let (name, class) = KINDS[slot / 2];
                (name, class, slot % 2 == 1, count)
            })
            .collect()
    });
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)).then(a.2.cmp(&b.2)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Arg;

    #[test]
    fn record_and_snapshot() {
        let (s, l) = (Arg::STACK, Arg::local(0).unwrap());
        reset();
        record(&Op::Add2(s, s));
        record(&Op::Add2(s, s));
        record(&Op::Add2(l, s));
        record(&Op::FlAdd(s, s));
        record(&Op::BrLt2(s, s, 0));
        let snap = snapshot();
        assert_eq!(snap[0], ("Add2", OpClass::Generic, false, 2));
        assert!(snap.contains(&("Add2", OpClass::Generic, true, 1)));
        assert!(snap.contains(&("FlAdd", OpClass::Specialized, false, 1)));
        assert!(snap.contains(&("BrLt2", OpClass::Generic, true, 1)));
        reset();
        assert!(snapshot().is_empty());
    }
}
