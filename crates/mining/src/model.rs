//! Model-checked harnesses for the mining crate's concurrency protocols.
//!
//! Each harness runs the *real* production code — [`StealPool`], the
//! parallel driver, [`CancelToken`], [`MemGauge`]/[`GaugeScope`] — under the
//! [`fingers_conc::model`] bounded schedule explorer and asserts an invariant
//! that must hold in **every** interleaving within the preemption bound:
//!
//! 1. **Deque partition** — tasks claimed from a [`StealPool`] (including
//!    through the steal-and-split path) always partition the seeded root
//!    range: every root mined exactly once, none lost, none duplicated.
//! 2. **Cancel all-or-nothing** — the engine's own root-task driver
//!    (`parallel::drive`) racing a `cancel()`: its verdict is either every
//!    root or `Cancelled`.
//! 3. **Gauge drain** — concurrent [`GaugeScope`] publishes into a
//!    parent/child gauge chain always drain both gauges back to baseline,
//!    and the recorded peak stays within the outstanding-publish envelope.
//!
//! A fourth harness drives the intentionally broken
//! [`StealPool::claim_racy`] and must *catch* its TOCTOU bug — evidence the
//! checker has teeth. The server crate hosts the phoenix-rebuild harness.
//!
//! Keep harnesses tiny: state-space size is exponential in schedule points.
//! The shapes below exhaust in well under a second each in release mode;
//! `tests/model_check.rs` asserts completeness, and the `conc_check` binary
//! (server crate) records the state-space statistics in
//! `BENCH_conc_check.json`.

use crate::cancel::{CancelKind, CancelToken};
use crate::gauge::{GaugeScope, MemGauge};
use crate::parallel::{drive, StealPool};
use crate::task::MiningTask;
use fingers_conc::model::{check, CheckOptions, CheckReport};
use std::sync::Arc;

/// Roots seeded into the deque harnesses (kept tiny on purpose).
const DEQUE_ROOTS: usize = 4;

/// Collect every root of every task `me` can claim, via `claim`.
fn drain_pool(pool: &StealPool, me: usize) -> Vec<u32> {
    let mut mined = Vec::new();
    while let Some(t) = pool.claim(me) {
        mined.extend(t.roots());
    }
    mined
}

/// Invariant 1: claimed tasks partition the seeded roots, two workers
/// racing over striped deques (covers local pop and whole-task steal).
pub fn deque_partition_check(opts: CheckOptions) -> CheckReport {
    check("deque-partition", opts, |sim| {
        let tasks = MiningTask::partition(DEQUE_ROOTS, 3);
        let pool = Arc::new(StealPool::new(&tasks, 2));
        let workers: Vec<_> = (0..2)
            .map(|me| {
                let pool = Arc::clone(&pool);
                sim.spawn(move || drain_pool(&pool, me))
            })
            .collect();
        let mut mined: Vec<u32> = workers.into_iter().flat_map(|w| w.join()).collect();
        mined.sort_unstable();
        let expected: Vec<u32> = (0..DEQUE_ROOTS as u32).collect();
        assert_eq!(mined, expected, "claimed roots must partition the range");
    })
}

/// Invariant 1, split path: one worker owns a lone splittable task, the
/// other must go through `steal_from`'s `split_off_half` arm. The partition
/// must survive a steal-split racing the owner's own pop.
pub fn deque_split_check(opts: CheckOptions) -> CheckReport {
    check("deque-split", opts, |sim| {
        let tasks = vec![MiningTask {
            start: 0,
            end: DEQUE_ROOTS as u32,
        }];
        let pool = Arc::new(StealPool::new(&tasks, 2));
        let workers: Vec<_> = (0..2)
            .map(|me| {
                let pool = Arc::clone(&pool);
                sim.spawn(move || drain_pool(&pool, me))
            })
            .collect();
        let mut mined: Vec<u32> = workers.into_iter().flat_map(|w| w.join()).collect();
        mined.sort_unstable();
        let expected: Vec<u32> = (0..DEQUE_ROOTS as u32).collect();
        assert_eq!(mined, expected, "split steal must preserve the partition");
    })
}

/// Seeded-bug fixture: the same partition invariant over
/// [`StealPool::claim_racy`], which drops the deque lock between peek and
/// pop. The checker must find the schedule where a thief splits the peeked
/// task inside the window, double-mining its upper half.
pub fn deque_racy_check(opts: CheckOptions) -> CheckReport {
    check("deque-racy", opts, |sim| {
        let tasks = vec![MiningTask {
            start: 0,
            end: DEQUE_ROOTS as u32,
        }];
        let pool = Arc::new(StealPool::new(&tasks, 2));
        let workers: Vec<_> = (0..2)
            .map(|me| {
                let pool = Arc::clone(&pool);
                sim.spawn(move || {
                    let mut mined = Vec::new();
                    while let Some(t) = pool.claim_racy(me) {
                        mined.extend(t.roots());
                    }
                    mined
                })
            })
            .collect();
        let mut mined: Vec<u32> = workers.into_iter().flat_map(|w| w.join()).collect();
        mined.sort_unstable();
        let expected: Vec<u32> = (0..DEQUE_ROOTS as u32).collect();
        assert_eq!(mined, expected, "racy claim must break the partition");
    })
}

/// Invariant 2: the cancel protocol of the parallel engine, run on the real
/// driver (`parallel::drive`) with one worker on a model thread while a
/// second thread fires `cancel()` at an arbitrary point — including inside
/// the window between two task claims, the only place a partial tally
/// exists. All-or-nothing: the driver's verdict is either the full root
/// count or `Cancelled`, never a partial sum. One worker keeps the space
/// small and keeps the driver on its model thread (it only spawns OS
/// threads for two or more workers); the multi-worker claim protocol is
/// exhausted separately by the deque harnesses. The per-task closure
/// touches no instrumented primitive, so the driver's `catch_unwind` never
/// sees the explorer's teardown unwinds.
pub fn cancel_all_or_nothing_check(opts: CheckOptions) -> CheckReport {
    check("cancel-all-or-nothing", opts, |sim| {
        let roots = 2usize;
        let token = CancelToken::new();
        let worker = {
            let token = token.clone();
            sim.spawn(move || {
                drive(roots, 1, true, &token, || (), |(), t| Ok(t.len() as u64))
                    .map(|(total, _)| total)
            })
        };
        let canceller = {
            let token = token.clone();
            sim.spawn(move || token.cancel())
        };
        let verdict = worker.join();
        canceller.join();
        match verdict {
            Ok(total) => assert_eq!(
                total, roots as u64,
                "uncancelled verdict requires every root mined exactly once"
            ),
            Err(e) => assert_eq!(
                e.cancel_kind(),
                Some(CancelKind::Explicit),
                "the only failure is the cancel: {e}"
            ),
        }
    })
}

/// Invariant 3: concurrent [`GaugeScope`]s over a parent/child gauge chain.
/// After every scope has dropped, both gauges read exactly zero (nothing
/// lost to a racing release, nothing double-charged and stranded), and the
/// peak lies within [largest single publish, sum of publishes].
pub fn gauge_drain_check(opts: CheckOptions) -> CheckReport {
    check("gauge-drain", opts, |sim| {
        let global = MemGauge::new();
        let query = global.child();
        let workers: Vec<_> = [30u64, 50]
            .iter()
            .map(|&amount| {
                let query = query.clone();
                sim.spawn(move || {
                    let mut scope = GaugeScope::new(query, Some(60));
                    if let Some((used, budget)) = scope.publish(amount) {
                        assert!(
                            used > budget,
                            "budget violation must only fire past the budget"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        assert_eq!(query.bytes(), 0, "query gauge must drain to baseline");
        assert_eq!(global.bytes(), 0, "global gauge must drain to baseline");
        let peak = global.peak_bytes();
        assert!(peak >= 50, "peak covers the largest single publish: {peak}");
        assert!(peak <= 80, "peak bounded by the sum of publishes: {peak}");
    })
}
