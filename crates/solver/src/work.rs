//! The per-thread work meter: every deterministic counter of the back-end, and
//! the work deadline, in one unit.
//!
//! The paper's T/O columns count exhausted budgets, not wall-clock races, so the
//! analyzer meters its work deterministically. A *work unit* is one simplex
//! pivot (of [`crate::simplex`] or [`crate::bounded`]) or one node of the logic
//! layer's satisfiability search; [`units`] is their sum. The meter also counts
//! the search's walks stopped at its node cap ([`cap_events`]) and saturated
//! rational operations ([`overflows`]).
//!
//! Every counter is monotone and **per-thread**: a caller that attributes the
//! work of a unit of analysis snapshots a counter before and after on the same
//! thread and compares. A [`Budget`] sets the thread's deadline in the same
//! unit, and long-running synthesis loops stop between LP solves once
//! [`deadline_exceeded`]; an individual solve always runs to completion, so LP
//! answers are never truncated.

use std::cell::Cell;
use std::marker::PhantomData;

struct Meter {
    pivots: Cell<u64>,
    nodes: Cell<u64>,
    cap_events: Cell<u64>,
    overflows: Cell<u64>,
    deadline: Cell<u64>,
}

thread_local! {
    static METER: Meter = const {
        Meter {
            pivots: Cell::new(0),
            nodes: Cell::new(0),
            cap_events: Cell::new(0),
            overflows: Cell::new(0),
            deadline: Cell::new(u64::MAX),
        }
    };
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get().wrapping_add(by));
}

/// Simplex pivots performed on this thread.
#[inline]
pub fn pivots() -> u64 {
    METER.with(|m| m.pivots.get())
}

/// Satisfiability-search nodes visited on this thread: the root of each walk
/// and each alternative it tried.
#[inline]
pub fn nodes() -> u64 {
    METER.with(|m| m.nodes.get())
}

/// Walks of the satisfiability search stopped at its node cap on this thread.
#[inline]
pub fn cap_events() -> u64 {
    METER.with(|m| m.cap_events.get())
}

/// Saturated (overflowed) rational operations on this thread.
#[inline]
pub fn overflows() -> u64 {
    METER.with(|m| m.overflows.get())
}

/// Work units spent on this thread: [`pivots`] plus [`nodes`].
#[inline]
pub fn units() -> u64 {
    METER.with(|m| m.pivots.get().wrapping_add(m.nodes.get()))
}

#[inline]
pub(crate) fn record_pivot() {
    METER.with(|m| bump(&m.pivots, 1));
}

#[inline]
pub(crate) fn record_overflow() {
    METER.with(|m| bump(&m.overflows, 1));
}

/// Charges `count` search nodes, once per walk of the satisfiability search.
#[inline]
pub fn record_nodes(count: u64) {
    METER.with(|m| bump(&m.nodes, count));
}

/// Records a walk of the satisfiability search stopped at its node cap.
#[inline]
pub fn record_cap_event() {
    METER.with(|m| bump(&m.cap_events, 1));
}

/// Returns `true` once [`units`] has passed the deadline of the innermost
/// live [`Budget`]; never without one.
#[inline]
pub fn deadline_exceeded() -> bool {
    units() > METER.with(|m| m.deadline.get())
}

/// A scoped work budget. While it lives, the thread's deadline is its limit
/// past the [`units`] it was made at, lowered by whatever [`Budget::charge`]
/// charged; dropping it, on return or unwind, restores the enclosing deadline.
/// It stays on the thread that made it, whose meter it sets.
#[must_use = "the deadline is restored when the budget is dropped"]
pub struct Budget {
    previous: u64,
    _thread: PhantomData<*const ()>,
}

impl Budget {
    /// Starts a budget of `limit` units from now.
    pub fn new(limit: u64) -> Budget {
        let deadline = units().saturating_add(limit);
        let previous = METER.with(|m| m.deadline.replace(deadline));
        Budget {
            previous,
            _thread: PhantomData,
        }
    }

    /// Charges `amount` units of work not done on this meter (a replayed
    /// proof whose cost was recorded) by lowering the deadline, when they fit
    /// before it. Returns whether they did; a charge that does not fit
    /// changes nothing.
    pub fn charge(&self, amount: u64) -> bool {
        let spent = units();
        METER.with(|m| {
            let fits = spent.saturating_add(amount) <= m.deadline.get();
            if fits {
                m.deadline.set(m.deadline.get() - amount);
            }
            fits
        })
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        METER.with(|m| m.deadline.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Search nodes count toward the deadline as pivots do.
    #[test]
    fn deadline_trips_on_search_nodes_alone() {
        let budget = Budget::new(10);
        let pivots_before = pivots();
        record_nodes(10);
        assert!(!deadline_exceeded(), "ten units fit a budget of ten");
        record_nodes(1);
        assert!(deadline_exceeded());
        assert_eq!(pivots(), pivots_before);
        drop(budget);
        assert!(!deadline_exceeded(), "no budget, no deadline");
    }

    /// A charge lowers the deadline by its amount, and one that does not fit
    /// is refused and changes nothing.
    #[test]
    fn a_charge_lowers_the_deadline_only_when_it_fits() {
        let budget = Budget::new(10);
        assert!(!budget.charge(11));
        assert!(budget.charge(6));
        record_pivot();
        record_nodes(3);
        assert!(!deadline_exceeded());
        assert!(!budget.charge(1));
        record_pivot();
        assert!(deadline_exceeded());
    }

    /// An inner budget unwound by a caught panic restores the outer deadline.
    #[test]
    fn a_budget_dropped_by_a_caught_panic_restores_the_outer_deadline() {
        let _outer = Budget::new(1_000);
        let unwound = std::panic::catch_unwind(|| {
            let _inner = Budget::new(0);
            record_pivot();
            assert!(deadline_exceeded());
            panic!("unwind through the inner budget");
        });
        assert!(unwound.is_err());
        assert!(!deadline_exceeded(), "the outer deadline is back");
        record_nodes(1_000);
        assert!(deadline_exceeded());
    }
}
