//! RAII scoped timers and the deterministic accumulator behind them.
//!
//! The fast path is one relaxed atomic load: when profiling is disabled
//! (the default), [`ProfScope::enter`] reads a flag and returns an inert
//! guard — no wall-clock read, no thread-local access, no allocation.
//! When enabled, each scope stamps the clock on entry, and on drop charges
//! the elapsed nanoseconds to a `(parent-site, site)` edge in a
//! thread-local table of fixed site-indexed arrays. Workers flush their
//! tables into a process-global registry ([`flush_thread`], called by the
//! `JobPool` worker loop), and [`snapshot`] reads the registry into a
//! [`ProfReport`](crate::ProfReport) whose edges are emitted in canonical
//! site order — merges are commutative sums over a fixed universe, so the
//! *call counts* in a report are independent of worker scheduling, exactly
//! like obs metric merges.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::clock::{ClockStamp, ProfClock};
use crate::report::{ProfEdge, ProfReport};
use crate::site::{Site, NUM_SITES};

#[derive(Clone, Copy)]
struct Cell {
    ns: u64,
    calls: u64,
}

const ZERO: Cell = Cell { ns: 0, calls: 0 };

/// The `(parent, site)` edge matrix. Parent slot 0 is the root (no
/// enclosing scope); slot `1 + s.index()` is site `s`.
#[derive(Clone)]
struct EdgeTable {
    cells: [[Cell; NUM_SITES]; NUM_SITES + 1],
}

impl EdgeTable {
    const fn new() -> EdgeTable {
        EdgeTable {
            cells: [[ZERO; NUM_SITES]; NUM_SITES + 1],
        }
    }

    fn is_empty(&self) -> bool {
        self.cells
            .iter()
            .all(|row| row.iter().all(|c| c.calls == 0 && c.ns == 0))
    }

    fn add(&mut self, other: &EdgeTable) {
        for (drow, srow) in self.cells.iter_mut().zip(&other.cells) {
            for (d, s) in drow.iter_mut().zip(srow) {
                d.ns = d.ns.saturating_add(s.ns);
                d.calls = d.calls.saturating_add(s.calls);
            }
        }
    }
}

struct ThreadAcc {
    /// Stack of currently-open sites on this thread (for parent edges).
    stack: Vec<Site>,
    /// Edges recorded on this thread since its last flush.
    table: EdgeTable,
}

thread_local! {
    static ACC: RefCell<ThreadAcc> = const {
        RefCell::new(ThreadAcc {
            stack: Vec::new(),
            table: EdgeTable::new(),
        })
    };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<EdgeTable> = Mutex::new(EdgeTable::new());

fn lock_global() -> MutexGuard<'static, EdgeTable> {
    match GLOBAL.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Turn profiling on or off process-wide. Off is the default; scopes taken
/// while off cost one atomic load and record nothing.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An RAII scoped timer: charges the wall time between construction and
/// drop to `site`, parented under whatever scope encloses it on this
/// thread. Inert (one atomic load) when profiling is disabled.
#[must_use = "a ProfScope measures the span until it is dropped"]
pub struct ProfScope {
    open: Option<(Site, ClockStamp)>,
}

impl ProfScope {
    /// Open a scope attributed to `site`.
    #[inline]
    pub fn enter(site: Site) -> ProfScope {
        if !ENABLED.load(Ordering::Relaxed) {
            return ProfScope { open: None };
        }
        ProfScope::enter_enabled(site)
    }

    #[cold]
    fn enter_enabled(site: Site) -> ProfScope {
        ACC.with(|a| {
            if let Ok(mut a) = a.try_borrow_mut() {
                a.stack.push(site);
            }
        });
        ProfScope {
            open: Some((site, ProfClock::stamp())),
        }
    }
}

impl Drop for ProfScope {
    #[inline]
    fn drop(&mut self) {
        if let Some((site, stamp)) = self.open.take() {
            let ns = ProfClock::elapsed_ns(stamp);
            record_exit(site, ns);
        }
    }
}

#[cold]
fn record_exit(site: Site, ns: u64) {
    ACC.with(|a| {
        let Ok(mut a) = a.try_borrow_mut() else {
            return;
        };
        // Pop this scope; RAII drop order makes the top of the stack ours,
        // but tolerate imbalance (e.g. a scope moved across an early
        // return) by removing the deepest matching entry.
        if a.stack.last() == Some(&site) {
            a.stack.pop();
        } else if let Some(pos) = a.stack.iter().rposition(|s| *s == site) {
            a.stack.remove(pos);
        }
        let parent_slot = a.stack.last().map(|s| 1 + s.index()).unwrap_or(0);
        let cell = &mut a.table.cells[parent_slot][site.index()];
        cell.ns = cell.ns.saturating_add(ns);
        cell.calls = cell.calls.saturating_add(1);
    });
}

/// Merge this thread's accumulated table into the process-global registry
/// and clear it. The `JobPool` worker loop calls this before a worker
/// thread exits; [`snapshot`] calls it for the reading thread.
pub fn flush_thread() {
    ACC.with(|a| {
        let Ok(mut a) = a.try_borrow_mut() else {
            return;
        };
        if a.table.is_empty() {
            return;
        }
        lock_global().add(&a.table);
        a.table = EdgeTable::new();
    });
}

/// Read everything recorded since the last [`reset`] into a report,
/// without clearing it. Edges are emitted in canonical order: parents
/// root-first then in [`Site::ALL`] order, sites in [`Site::ALL`] order —
/// so two reports built from the same merged counts render identically
/// regardless of which worker recorded what.
pub fn snapshot() -> ProfReport {
    flush_thread();
    let table = lock_global().clone();
    let mut edges = Vec::new();
    for (parent_slot, row) in table.cells.iter().enumerate() {
        let parent = parent_slot.checked_sub(1).map(|i| Site::ALL[i]);
        for site in Site::ALL {
            let cell = row[site.index()];
            if cell.calls > 0 || cell.ns > 0 {
                edges.push(ProfEdge {
                    site,
                    parent,
                    ns: cell.ns,
                    calls: cell.calls,
                });
            }
        }
    }
    ProfReport { edges }
}

/// Discard everything recorded so far (this thread's table and open-scope
/// stack, and the global registry). A command that profiles calls this
/// before enabling so its report covers exactly that command.
pub fn reset() {
    ACC.with(|a| {
        if let Ok(mut a) = a.try_borrow_mut() {
            a.table = EdgeTable::new();
            a.stack.clear();
        }
    });
    *lock_global() = EdgeTable::new();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag and global registry are process-wide; tests that
    /// touch them serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _l = locked();
        reset();
        set_enabled(false);
        for _ in 0..100 {
            let _s = ProfScope::enter(Site::Timing);
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn nested_scopes_build_parent_edges_in_canonical_order() {
        let _l = locked();
        reset();
        set_enabled(true);
        {
            let _outer = ProfScope::enter(Site::MigrationPolicy);
            let _inner = ProfScope::enter(Site::TraceGen);
        }
        {
            let _solo = ProfScope::enter(Site::Timing);
        }
        set_enabled(false);
        let shape: Vec<(Site, Option<Site>, u64)> = snapshot()
            .edges
            .iter()
            .map(|e| (e.site, e.parent, e.calls))
            .collect();
        // Root-parented edges first (in ALL order), then parented ones.
        assert_eq!(
            shape,
            vec![
                (Site::Timing, None, 1),
                (Site::MigrationPolicy, None, 1),
                (Site::TraceGen, Some(Site::MigrationPolicy), 1),
            ]
        );
    }

    #[test]
    fn worker_flushes_merge_by_summing() {
        let _l = locked();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let _s = ProfScope::enter(Site::Tlb);
                    }
                    flush_thread();
                });
            }
        });
        set_enabled(false);
        let report = snapshot();
        assert_eq!(report.edges.len(), 1);
        let edge = &report.edges[0];
        assert_eq!((edge.site, edge.parent), (Site::Tlb, None));
        assert_eq!(edge.calls, 15, "3 workers x 5 scopes");
    }

    #[test]
    fn snapshots_accumulate_until_reset() {
        let _l = locked();
        reset();
        set_enabled(true);
        {
            let _s = ProfScope::enter(Site::Checkpoint);
        }
        assert_eq!(snapshot().edges[0].calls, 1);
        {
            let _s = ProfScope::enter(Site::Checkpoint);
        }
        set_enabled(false);
        assert_eq!(snapshot().edges[0].calls, 2, "a snapshot does not drain");
        reset();
        assert!(snapshot().is_empty());
    }
}
