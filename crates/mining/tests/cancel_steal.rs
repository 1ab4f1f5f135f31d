//! Property test: cancellation racing the work-stealing scheduler never
//! corrupts a count.
//!
//! A token can fire at any moment relative to a worker's claim cycle —
//! including between popping a task from its own deque and splitting a
//! stolen range — so the property is phrased over *outcomes*: whatever
//! the interleaving, a run either completes with the exact serial count
//! (no root partition lost, none counted twice) or reports a typed
//! cancellation with no count at all. There is no third outcome.
//!
//! Swept across {1, 2, 4, 8} threads × simd on/off × stealing on/off,
//! with the cancel delay fuzzed so the token lands in every phase of the
//! run: before the first claim, mid-storm, and after the last task.

use std::sync::OnceLock;
use std::time::Duration;

use fingers_graph::CsrGraph;
use fingers_mining::{count_plan_with, try_count_plan_parallel_shared, CancelToken, EngineConfig};
use fingers_pattern::{parse_pattern, ExecutionPlan, Induced};
use proptest::prelude::*;

fn graph() -> &'static CsrGraph {
    static GRAPH: OnceLock<CsrGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        fingers_graph::gen::chung_lu_power_law(&fingers_graph::gen::ChungLuConfig::new(
            600, 5400, 9,
        ))
    })
}

fn plan() -> &'static ExecutionPlan {
    static PLAN: OnceLock<ExecutionPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        ExecutionPlan::compile(
            &parse_pattern("4cl").expect("pattern parses"),
            Induced::Vertex,
        )
    })
}

/// The reference count, from the serial engine: it shares no partition,
/// claim or verdict code with the parallel driver under test.
fn serial_count(config: &EngineConfig) -> u64 {
    count_plan_with(graph(), plan(), config)
}

fn config_for(simd: bool, stealing: bool) -> EngineConfig {
    EngineConfig {
        simd,
        work_stealing: stealing,
        ..EngineConfig::default()
    }
}

/// The core property: fire the token `delay_us` into the run and assert
/// the all-or-nothing contract.
fn run_race(threads: usize, simd: bool, stealing: bool, delay_us: u64) {
    let config = config_for(simd, stealing);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(delay_us));
            token.cancel();
        })
    };
    let result = try_count_plan_parallel_shared(graph(), plan(), threads, &config, None, &token);
    canceller.join().expect("canceller thread");
    match result {
        Ok(count) => assert_eq!(
            count,
            serial_count(&config),
            "a completed run must count every root partition exactly once \
             (threads={threads}, simd={simd}, stealing={stealing}, delay={delay_us}us)"
        ),
        Err(e) => assert!(
            e.cancel_kind().is_some(),
            "the only legal failure is a typed cancellation, got {e:?} \
             (threads={threads}, simd={simd}, stealing={stealing}, delay={delay_us}us)"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancelling mid-steal never double-counts or leaks a partition.
    #[test]
    fn cancel_racing_the_scheduler_is_all_or_nothing(
        threads in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        simd in (0u32..2).prop_map(|b| b == 1),
        stealing in (0u32..2).prop_map(|b| b == 1),
        delay_us in 0u64..4000,
    ) {
        run_race(threads, simd, stealing, delay_us);
    }
}

#[test]
fn pre_cancelled_token_aborts_every_configuration() {
    for threads in [1usize, 2, 4, 8] {
        for simd in [false, true] {
            for stealing in [false, true] {
                let config = config_for(simd, stealing);
                let token = CancelToken::new();
                token.cancel();
                let err =
                    try_count_plan_parallel_shared(graph(), plan(), threads, &config, None, &token)
                        .expect_err("pre-cancelled run cannot complete");
                assert!(err.cancel_kind().is_some(), "{err:?}");
            }
        }
    }
}

#[test]
fn uncancelled_token_matches_serial_everywhere() {
    for threads in [1usize, 2, 4, 8] {
        for simd in [false, true] {
            for stealing in [false, true] {
                let config = config_for(simd, stealing);
                let count = try_count_plan_parallel_shared(
                    graph(),
                    plan(),
                    threads,
                    &config,
                    None,
                    &CancelToken::new(),
                )
                .expect("uncancelled run completes");
                assert_eq!(count, serial_count(&config));
            }
        }
    }
}
