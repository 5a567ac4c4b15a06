//! Per-opcode execution counters.
//!
//! Counting is always compiled in and off until [`set_active`] turns it
//! on for a run. The machine ([`crate::machine`]) checks [`active`] once
//! per VM entry and selects a monomorphized interpreter loop, so the hot
//! loop carries no per-opcode branch when counting is off.

use crate::bytecode::{Op, OpClass};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Executions per (mnemonic, fused), with the instruction's class.
type Counts = HashMap<(&'static str, bool), (OpClass, u64)>;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COUNTS: RefCell<Counts> = RefCell::new(HashMap::new());
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

/// Records one execution of `op`. An instruction counts separately with
/// and without folded operands (`Add2(S, S)` and `Add2(L0, K1)` are two
/// rows), so the fused share is exact.
#[inline]
pub fn record(op: &Op) {
    COUNTS.with(|c| {
        c.borrow_mut()
            .entry((op.mnemonic(), op.is_fused()))
            .or_insert((op.class(), 0))
            .1 += 1;
    });
}

/// Clears all recorded counts.
pub fn reset() {
    COUNTS.with(|c| c.borrow_mut().clear());
}

/// The recorded counts as `(mnemonic, class, fused, count)`, sorted by
/// descending count (ties by mnemonic, then fused, for stable output).
/// `fused` marks executions with a folded operand or a branch target
/// ([`Op::is_fused`]), so reports can show a fusion rate.
pub fn snapshot() -> Vec<(&'static str, OpClass, bool, u64)> {
    let mut rows: Vec<_> = COUNTS.with(|c| {
        c.borrow()
            .iter()
            .map(|(&(name, fused), &(class, count))| (name, class, fused, count))
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
