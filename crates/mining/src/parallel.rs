//! Root-partitioned parallel mining over [`PlanMiner`] workers.
//!
//! Level-0 DFS trees are independent, so the vertex range is split into
//! more [`MiningTask`]s than workers and workers obtain tasks dynamically
//! (a task holding a hub vertex does not serialize the run). Two
//! schedulers implement that claim step:
//!
//! - **Work stealing** (`EngineConfig::work_stealing`, the default): each
//!   worker owns a mutex-guarded deque seeded with a round-robin stripe of
//!   tasks. Workers pop locally from the front; an empty worker steals the
//!   back half of a victim's deque, and splits a victim's lone oversized
//!   task at root granularity ([`MiningTask::split_off_half`]) when there
//!   is nothing whole left to take. Local pops touch an uncontended mutex,
//!   and a straggler grinding a hub-heavy range sheds its queued tail to
//!   idle peers.
//! - **Shared cursor** (`--no-steal`): every worker claims the next task
//!   index from one shared atomic — the PR-2 baseline, kept as the
//!   `steal_balance` benchmark's comparison point.
//!
//! One private driver runs every entry point: it partitions the roots,
//! spawns the workers (or runs the only one on the caller's thread),
//! isolates each task with `catch_unwind`, polls the cancellation token
//! before each claim, and turns the run into one verdict. The plan entry
//! points hand it a closure that owns one [`PlanMiner`] (and therefore one
//! scratch arena) per worker; the brute-force and ESU oracles hand it their
//! counters through [`sum_over_root_tasks`].
//!
//! Each worker reduces into a private `u64`. The final reduction is a sum
//! of per-task partial counts: each task's count is a pure function of its
//! root range, and addition over `u64` is commutative and associative, so
//! the result is **bit-identical** to the sequential count regardless of
//! thread count or steal schedule — the determinism tests assert exactly
//! this (DESIGN.md §14).

use crate::cancel::{CancelKind, CancelToken};
use crate::config::EngineConfig;
use crate::error::{panic_message, EngineError, PartitionFailure};
use crate::executor::{MineOutcome, PlanMiner, RunHalt};
use crate::gauge::MemGauge;
use crate::sink::CountSink;
use crate::task::MiningTask;
use fingers_conc::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use fingers_conc::sync::{Mutex, PoisonError};
use fingers_graph::hubs::HubSet;
use fingers_graph::CsrGraph;
use fingers_pattern::benchmarks::Benchmark;
use fingers_pattern::{ExecutionPlan, MultiPlan};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// lint: lock-order(deque < failures)

/// Tasks created per worker: oversubscription for dynamic load balance.
/// Generous because tasks are two integers — the cost of a fine partition
/// is one mutex lock (stealing) or one fetch-add (cursor) per task, while
/// a coarse one leaves a hub-heavy chunk indivisible once a worker starts
/// it (in-flight tasks are never split).
const TASKS_PER_WORKER: usize = 32;

/// Per-worker deques of unstarted tasks for the work-stealing scheduler.
///
/// The deques only ever hold tasks no worker has begun, so stealing or
/// splitting one can never duplicate or drop roots: at every instant the
/// queued tasks plus the in-flight tasks partition the unmined remainder
/// of `[0, |V|)`. Mutex-guarded rather than lock-free Chase–Lev: the claim
/// rate is one lock per *task* (thousands of DFS roots), so even a
/// contended lock costs noise, and a mutex keeps the scheduler trivially
/// race-free.
pub struct StealPool {
    deques: Vec<Mutex<VecDeque<MiningTask>>>,
}

impl StealPool {
    /// Distributes `tasks` across `workers` deques round-robin (task `i`
    /// to worker `i % workers`), preserving ascending root order inside
    /// each deque. Round-robin rather than contiguous blocks: real graphs
    /// sort hubs into one id region (CSR relabeling, crawl order), and a
    /// block seed would hand that entire region to one owner who then eats
    /// its heavy tasks serially — thieves only relieve the queued tail.
    /// Striping spreads the hot region across every deque up front, so
    /// stealing only has to correct residual skew.
    pub fn new(tasks: &[MiningTask], workers: usize) -> Self {
        let workers = workers.max(1);
        let mut deques: Vec<Mutex<VecDeque<MiningTask>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, t) in tasks.iter().enumerate() {
            deques[i % workers]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(t.clone());
        }
        Self { deques }
    }

    /// The next task for worker `me`: its own deque's front, else stolen
    /// work. Returns `None` only when every deque is empty at scan time —
    /// tasks still in flight on other workers are never visible here, so a
    /// `None` is final for this worker (peers only ever *remove* queued
    /// work; splits happen under the victim's lock during the scan).
    pub fn claim(&self, me: usize) -> Option<MiningTask> {
        // lock: deque
        if let Some(t) = self.deques[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            return Some(t);
        }
        let n = self.deques.len();
        for off in 1..n {
            if let Some(stolen) = self.steal_from((me + off) % n) {
                // lock: deque
                let mut mine = self.deques[me]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                mine.extend(stolen);
                let t = mine.pop_front();
                drop(mine);
                if t.is_some() {
                    return t;
                }
            }
        }
        None
    }

    /// Takes the back half of `victim`'s queued tasks (its furthest-future
    /// root ranges, so the victim keeps the work nearest what it is mining
    /// now). A victim down to one splittable task gets it halved at root
    /// granularity instead; a lone unsplittable task is taken whole.
    // lock: acquires(deque)
    fn steal_from(&self, victim: usize) -> Option<VecDeque<MiningTask>> {
        // lock: deque
        let mut v = self.deques[victim]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match v.len() {
            0 => None,
            1 => {
                // §11: len() == 1 was just checked under this lock.
                #[allow(clippy::expect_used)]
                let last = v.front_mut().expect("deque has one task");
                match last.split_off_half() {
                    Some(upper) => Some(VecDeque::from([upper])),
                    None => v.pop_front().map(|t| VecDeque::from([t])),
                }
            }
            len => Some(v.split_off(len - len / 2)),
        }
    }

    /// Seeded-bug fixture for the model checker: a deliberately broken
    /// `claim` that peeks the front task under one lock acquisition and pops
    /// it under a *second* one, releasing the deque lock in between. A thief
    /// that splits the peeked task in the window makes this worker mine the
    /// stale full-range clone while the thief mines the stolen half — the
    /// exact lost-update/double-mine family of bug the deque harness exists
    /// to catch. Never called by production code.
    #[cfg(feature = "model-check")]
    pub fn claim_racy(&self, me: usize) -> Option<MiningTask> {
        // lock: deque
        let peeked = self.deques[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .front()
            .cloned();
        if let Some(t) = peeked {
            // BUG (intentional): the lock was dropped after the peek, so the
            // pop below may remove a task a thief has since split or taken.
            // lock: deque
            self.deques[me]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            return Some(t);
        }
        // Fall back to the correct steal path once the own deque is empty.
        self.claim(me)
    }
}

/// How a worker obtains its next task: the work-stealing deques or the
/// shared-cursor baseline. Both hand every task out exactly once, so the
/// summed counts are identical — only the schedule (and therefore load
/// balance) differs.
enum TaskSource<'t> {
    Cursor {
        tasks: &'t [MiningTask],
        cursor: AtomicUsize,
    },
    Steal(StealPool),
}

impl<'t> TaskSource<'t> {
    /// A source over `tasks` for `workers` workers, stealing iff `steal`.
    fn new(tasks: &'t [MiningTask], workers: usize, steal: bool) -> Self {
        if steal {
            TaskSource::Steal(StealPool::new(tasks, workers))
        } else {
            TaskSource::Cursor {
                tasks,
                cursor: AtomicUsize::new(0),
            }
        }
    }

    /// Claims the next task for worker `me` (`None` = no work left).
    fn claim(&self, me: usize) -> Option<MiningTask> {
        match self {
            TaskSource::Cursor { tasks, cursor } => {
                // ord: relaxed(pure ticket counter; the claimed task data is read-only shared)
                tasks.get(cursor.fetch_add(1, Ordering::Relaxed)).cloned()
            }
            TaskSource::Steal(pool) => pool.claim(me),
        }
    }
}

/// Counts embeddings of `plan` using `threads` workers under an explicit
/// engine config.
///
/// Deterministic: returns exactly [`crate::count_plan_with`]'s value for
/// every thread count and config (the reduction is an order-independent
/// `u64` sum). `threads == 0` is treated as 1.
///
/// # Panics
///
/// On any [`EngineError`] of [`try_count_plan_parallel_with`] — a worker
/// panic (none occur for plans produced by the compiler; see the
/// invariants documented on [`PlanMiner`]), an unsound plan, or a blown
/// `config.query_mem_budget`.
pub fn count_plan_parallel_with(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
) -> u64 {
    or_panic(try_count_plan_parallel_with(graph, plan, threads, config))
}

/// [`count_plan_parallel_with`] plus a schedule trace: returns the count
/// and, per worker, the tasks that worker actually executed, in execution
/// order (tasks split by a thief appear as their split ranges).
///
/// Bench support for the `steal_balance` experiment: replaying each
/// worker's task list serially — uncontended — measures the schedule's
/// critical path, which is what the wall clock would show on a machine
/// with at least `threads` idle cores (a contended or single-core host
/// inflates every concurrent measurement uniformly, hiding exactly the
/// imbalance the experiment exists to show). The count is bit-identical
/// to [`count_plan_parallel_with`]; the trace's tasks partition
/// `[0, |V|)` for every scheduler and thread count.
///
/// # Panics
///
/// As [`count_plan_parallel_with`].
pub fn count_plan_parallel_trace(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
) -> (u64, Vec<Vec<MiningTask>>) {
    let hubs = config.hub_set(graph);
    or_panic(mine_plan(
        graph,
        plan,
        threads,
        config,
        hubs,
        &CancelToken::new(),
        None,
    ))
}

/// Fallible counterpart of [`count_plan_parallel_with`]: a failed run
/// returns its typed error instead of panicking.
///
/// Every task runs under `catch_unwind`; a panicking task is recorded (with
/// its root partition and panic message), the worker's miner is rebuilt —
/// a panic can leave scratch state mid-DFS — and mining continues with the
/// remaining tasks so *all* failures of a run are reported at once. On any
/// failure the whole count is discarded: a partial count would silently
/// under-report.
///
/// # Errors
///
/// As [`try_count_plan_parallel_governed`]; [`EngineError::Cancelled`]
/// cannot occur (the token is private to the call).
pub fn try_count_plan_parallel_with(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
) -> Result<u64, EngineError> {
    try_count_plan_parallel_shared(
        graph,
        plan,
        threads,
        config,
        config.hub_set(graph),
        &CancelToken::new(),
    )
}

/// [`try_count_plan_parallel_with`] with a caller-owned hub set and
/// cancellation token:
///
/// - `hubs` is taken pre-identified instead of recomputed, so a resident
///   graph store (the service's storage layer) can run top-k hub selection
///   once at load time and share one `Arc<HubSet>` across every query that
///   ever touches the graph;
/// - `cancel` is polled by every worker at root-task boundaries (between
///   claimed tasks *and* between level-0 roots inside a task, via
///   [`PlanMiner::run_governed`]); once it fires, all workers stop
///   promptly, every partial count is discarded, and the call returns
///   [`EngineError::Cancelled`] — never a partial total.
///
/// On success the count is bit-identical to [`count_plan_parallel_with`]
/// for every thread count, token state, and hub set. A run that
/// *completes* just as its deadline passes still returns its (complete,
/// correct) count: cancellation is only reported when a worker actually
/// stopped early.
///
/// # Errors
///
/// As [`try_count_plan_parallel_governed`].
pub fn try_count_plan_parallel_shared(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
    hubs: Option<Arc<HubSet>>,
    cancel: &CancelToken,
) -> Result<u64, EngineError> {
    try_count_plan_parallel_governed(graph, plan, threads, config, hubs, cancel, None)
}

/// The engine's full-featured counting entry point: everything
/// [`try_count_plan_parallel_shared`] does, plus memory governance. When
/// `config.query_mem_budget` is set or a `global_gauge` is supplied, the
/// run meters its scratch footprint on a per-query gauge (a child of
/// `global_gauge` when one is given, so the daemon's process-wide gauge
/// sees every query's bytes). Workers publish at root-task boundaries —
/// the cancellation cadence — and a budget violation aborts the whole run
/// with [`EngineError::MemBudgetExceeded`] under the cancellation
/// contract: all-or-nothing, no partial count, gauge back to baseline on
/// return.
///
/// # Errors
///
/// [`EngineError::InvalidPlan`] before any worker runs; otherwise, in
/// this precedence, [`EngineError::WorkerPanic`] naming every failed root
/// partition, [`EngineError::Cancelled`] when the token interrupted the
/// run, and [`EngineError::MemBudgetExceeded`].
pub fn try_count_plan_parallel_governed(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
    hubs: Option<Arc<HubSet>>,
    cancel: &CancelToken,
    global_gauge: Option<&MemGauge>,
) -> Result<u64, EngineError> {
    mine_plan(graph, plan, threads, config, hubs, cancel, global_gauge).map(|(total, _)| total)
}

/// Counts every pattern of a multi-plan with `threads` workers per plan.
/// Hubs are identified once per call and shared by every plan. Per-pattern
/// counts equal [`crate::count_multi_with`]'s exactly.
///
/// # Errors
///
/// Returns the first constituent plan's [`EngineError`] (per-plan counting
/// stops at the first failing plan).
pub fn try_count_multi_parallel_with(
    graph: &CsrGraph,
    multi: &MultiPlan,
    threads: usize,
    config: &EngineConfig,
) -> Result<MineOutcome, EngineError> {
    let hubs = config.hub_set(graph);
    let cancel = CancelToken::new();
    Ok(MineOutcome {
        per_pattern: multi
            .plans()
            .iter()
            .map(|p| {
                try_count_plan_parallel_shared(graph, p, threads, config, hubs.clone(), &cancel)
            })
            .collect::<Result<_, _>>()?,
    })
}

/// Counts a benchmark workload with `threads` workers per plan under an
/// explicit engine config.
///
/// # Panics
///
/// As [`count_plan_parallel_with`].
pub fn count_benchmark_parallel_with(
    graph: &CsrGraph,
    benchmark: Benchmark,
    threads: usize,
    config: &EngineConfig,
) -> MineOutcome {
    or_panic(try_count_multi_parallel_with(
        graph,
        &benchmark.plan(),
        threads,
        config,
    ))
}

/// Runs `worker` once per root-range task on `threads` workers and sums
/// the returned counts: the root-partitioned scaffold the brute-force and
/// ESU oracles run on. Unlike the plan path, it draws no chaos site.
///
/// `worker(task)` must be a pure function of the task (plus captured shared
/// state) for the sum to be schedule-independent.
///
/// # Panics
///
/// When any `worker` call panicked (after every task has run), naming
/// each failed root partition and its panic message.
pub fn sum_over_root_tasks<W>(vertex_count: usize, threads: usize, worker: W) -> u64
where
    W: Fn(&MiningTask) -> u64 + Sync,
{
    let run = drive(
        vertex_count,
        threads,
        true,
        &CancelToken::new(),
        || (),
        |(), task| Ok(worker(task)),
    );
    or_panic(run).0
}

/// The plan path over [`drive`]: verifies `plan`, sets up the per-query
/// gauge, and runs one [`PlanMiner`] per worker. Returns the count and
/// each worker's executed tasks.
fn mine_plan(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
    hubs: Option<Arc<HubSet>>,
    cancel: &CancelToken,
    global_gauge: Option<&MemGauge>,
) -> Result<(u64, Vec<Vec<MiningTask>>), EngineError> {
    // Fail fast before spawning anything: an unsound plan would read
    // unmaterialized buffers or miscount in every worker at once.
    let report = fingers_verify::verify(plan);
    if !report.is_sound() {
        return Err(EngineError::InvalidPlan { report });
    }
    // One shared gauge for the whole query; each worker's miner publishes
    // its own footprint into it. Skipped entirely (no atomics anywhere)
    // when neither a budget nor a global gauge asks for metering.
    let query_gauge = if config.query_mem_budget.is_some() || global_gauge.is_some() {
        Some(global_gauge.map_or_else(MemGauge::new, MemGauge::child))
    } else {
        None
    };
    drive(
        graph.vertex_count(),
        threads,
        config.work_stealing,
        cancel,
        || {
            let mut miner = PlanMiner::with_hubs(graph, plan, hubs.clone(), config);
            if let Some(gauge) = &query_gauge {
                miner.attach_gauge(gauge.clone(), config.query_mem_budget);
            }
            miner
        },
        |miner, task| {
            // Chaos worker-panic site: inside the per-task isolation, so an
            // injected death surfaces exactly like a real one.
            crate::chaos::maybe_panic_worker();
            let mut sink = CountSink::default();
            miner.run_governed(task.clone(), &mut sink, cancel)?;
            Ok(sink.count)
        },
    )
}

/// The one root-task driver every parallel entry point runs on.
///
/// Partitions `[0, vertex_count)` into [`TASKS_PER_WORKER`] tasks per
/// worker and runs the workers on scoped threads — or on the caller's
/// thread when there is only one. Each worker builds its state with
/// `init`, polls `cancel` before every claim, and runs each claimed task
/// through `run` under `catch_unwind`. A panicking task is recorded with
/// its root partition and the worker rebuilds its state (the panic may
/// have left it mid-DFS) before claiming again, so every failure of a run
/// is reported at once. A [`RunHalt`] from `run` stops that worker.
///
/// Returns the summed count and, per worker, the tasks it ran in claim
/// order (one push per task, so the traced and untraced entry points
/// share this one loop). The verdict's precedence is worker panic,
/// then cancelled, then over budget: a panic is a bug worth reporting
/// even in a run that was also cancelled, and a cancel is what the caller
/// asked for, so it wins over an incidental budget halt.
pub(crate) fn drive<S, I, R>(
    vertex_count: usize,
    threads: usize,
    steal: bool,
    cancel: &CancelToken,
    init: I,
    run: R,
) -> Result<(u64, Vec<Vec<MiningTask>>), EngineError>
where
    I: Fn() -> S + Sync,
    R: Fn(&mut S, &MiningTask) -> Result<u64, RunHalt> + Sync,
{
    let threads = effective_threads(threads, vertex_count);
    let tasks = MiningTask::partition(vertex_count, threads * TASKS_PER_WORKER);
    let source = TaskSource::new(&tasks, threads, steal);
    let failures: Mutex<Vec<PartitionFailure>> = Mutex::new(Vec::new());
    // Set by any worker that *observed* the token and stopped early; the
    // verdict reads this rather than the token so a run that finished all
    // its tasks before the deadline passed is still a success.
    let interrupted = AtomicBool::new(false);
    // The largest used bytes some worker halted on, and the budget it
    // crossed (0 = no violation; a violation always has used > budget ≥ 0).
    let over_budget = AtomicU64::new(0);
    let budget = AtomicU64::new(0);
    let worker = |me: usize| {
        let mut state = init();
        let mut local = 0u64;
        let mut claimed = Vec::new();
        loop {
            if cancel.is_cancelled() {
                // ord: relaxed(flag only latches true; the scope join synchronizes before into_inner reads it)
                interrupted.store(true, Ordering::Relaxed);
                break;
            }
            let Some(task) = source.claim(me) else { break };
            match catch_unwind(AssertUnwindSafe(|| run(&mut state, &task))) {
                Ok(Ok(n)) => local += n,
                Ok(Err(RunHalt::Cancelled)) => {
                    // Interrupted mid-task: the partial tally was never
                    // added; stop claiming.
                    // ord: relaxed(flag only latches true; the scope join synchronizes before into_inner reads it)
                    interrupted.store(true, Ordering::Relaxed);
                    break;
                }
                Ok(Err(RunHalt::MemBudget {
                    used_bytes,
                    budget_bytes,
                })) => {
                    // ord: relaxed(monotone max of a scalar; read only after the scope join)
                    over_budget.fetch_max(used_bytes, Ordering::Relaxed);
                    // ord: relaxed(every worker stores the same config budget; read only after the scope join)
                    budget.store(budget_bytes, Ordering::Relaxed);
                    break;
                }
                Err(payload) => {
                    // lock: failures
                    failures
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(PartitionFailure {
                            task: task.clone(),
                            message: panic_message(payload),
                        });
                    state = init();
                }
            }
            claimed.push(task);
        }
        (local, claimed)
    };
    let per_worker: Vec<(u64, Vec<MiningTask>)> = if threads == 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|me| {
                    let worker = &worker;
                    scope.spawn(move || worker(me))
                })
                .collect();
            handles
                .into_iter()
                // §11: each task runs under catch_unwind, so the join handle
                // itself cannot carry a panic; one escaping means the
                // isolation wrapper is broken.
                .map(
                    #[allow(clippy::expect_used)] // §11: justified above
                    |h| h.join().expect("isolated worker cannot panic"),
                )
                .collect()
        })
    };
    let mut failures = failures.into_inner().unwrap_or_else(|p| p.into_inner());
    if !failures.is_empty() {
        // Root order, not claim order: a steal schedule has no global claim
        // sequence, and root order is deterministic for reporting either way
        // (tasks never overlap, so starts are unique).
        failures.sort_by_key(|f| f.task.start);
        return Err(EngineError::WorkerPanic { failures });
    }
    if interrupted.into_inner() {
        return Err(EngineError::Cancelled {
            // A worker only sets `interrupted` after seeing the token
            // cancelled, and tokens never un-cancel, so a kind is always
            // available; `Explicit` is an unreachable fallback.
            kind: cancel.kind().unwrap_or(CancelKind::Explicit),
        });
    }
    let used_bytes = over_budget.into_inner();
    if used_bytes > 0 {
        return Err(EngineError::MemBudgetExceeded {
            used_bytes,
            budget_bytes: budget.into_inner(),
        });
    }
    let total = per_worker.iter().map(|(count, _)| count).sum();
    Ok((
        total,
        per_worker.into_iter().map(|(_, claimed)| claimed).collect(),
    ))
}

/// The infallible entry points' policy (§11): any engine error is fatal.
fn or_panic<T>(result: Result<T, EngineError>) -> T {
    result.unwrap_or_else(|e| panic!("mining run failed: {e}"))
}

/// Clamps a requested thread count to something useful: at least 1, and no
/// more than the number of roots (extra workers would only spin on an empty
/// task queue).
fn effective_threads(requested: usize, vertex_count: usize) -> usize {
    requested.max(1).min(vertex_count.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_plan, count_plan_with};
    use fingers_graph::gen::erdos_renyi;
    use fingers_pattern::{ExecutionPlan, Induced, Pattern};

    #[test]
    fn parallel_equals_sequential_for_every_thread_count() {
        let g = erdos_renyi(60, 240, 11);
        for p in [
            Pattern::triangle(),
            Pattern::four_cycle(),
            Pattern::clique(4),
        ] {
            let plan = ExecutionPlan::compile(&p, Induced::Vertex);
            let expected = count_plan(&g, &plan);
            for threads in [0, 1, 2, 3, 4, 8] {
                assert_eq!(
                    count_plan_parallel_with(&g, &plan, threads, &EngineConfig::default()),
                    expected,
                    "{p} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn multi_plan_parallel_matches_sequential() {
        let g = erdos_renyi(40, 150, 3);
        for b in [Benchmark::Mc3, Benchmark::Tc] {
            let seq = crate::count_benchmark(&g, b);
            assert_eq!(
                count_benchmark_parallel_with(&g, b, 4, &EngineConfig::default()),
                seq,
                "{b}"
            );
        }
    }

    #[test]
    fn parallel_configs_agree_with_sequential_baseline() {
        // Bitmap on/off × thread counts all land on the same counts.
        let g = erdos_renyi(50, 300, 29);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let expected = count_plan_with(&g, &plan, &EngineConfig::without_bitmap());
        for cfg in [EngineConfig::without_bitmap(), EngineConfig::default()] {
            for threads in [1, 2, 4] {
                assert_eq!(
                    count_plan_parallel_with(&g, &plan, threads, &cfg),
                    expected,
                    "{threads} threads under {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn steal_and_cursor_schedules_agree_on_hub_heavy_graphs() {
        // A power-law graph concentrates work in a few root tasks — the
        // regime stealing exists for. Counts must be bit-identical across
        // schedulers, thread counts, and simd settings.
        let g = fingers_graph::gen::chung_lu_power_law(&fingers_graph::gen::ChungLuConfig::new(
            500, 6_000, 42,
        ));
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        for cfg in [
            EngineConfig::default(),
            EngineConfig::without_stealing(),
            EngineConfig::without_simd(),
            EngineConfig {
                simd: false,
                work_stealing: false,
                ..EngineConfig::default()
            },
        ] {
            for threads in [1, 2, 4, 8] {
                assert_eq!(
                    count_plan_parallel_with(&g, &plan, threads, &cfg),
                    expected,
                    "{threads} threads under {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn stealing_survives_task_splits_with_few_tasks() {
        // More workers than tasks forces the lone-task split path: with 9
        // vertices and 8 workers the pool starts with at most 9 one-root
        // tasks spread thin, and thieves hit the len==1 branches.
        let g = erdos_renyi(9, 20, 5);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        for threads in [2, 8] {
            assert_eq!(
                count_plan_parallel_with(&g, &plan, threads, &EngineConfig::default()),
                expected
            );
        }
    }

    #[test]
    fn trace_partitions_roots_under_both_schedulers() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        for cfg in [EngineConfig::default(), EngineConfig::without_stealing()] {
            for threads in [1, 2, 4] {
                let (total, traces) = count_plan_parallel_trace(&g, &plan, threads, &cfg);
                assert_eq!(total, expected, "{threads} threads under {cfg:?}");
                assert_eq!(traces.len(), threads);
                let mut roots: Vec<_> = traces
                    .iter()
                    .flatten()
                    .flat_map(MiningTask::roots)
                    .collect();
                roots.sort_unstable();
                let everything: Vec<_> = (0..g.vertex_count() as u32).collect();
                assert_eq!(roots, everything, "trace must partition the roots");
            }
        }
    }

    #[test]
    fn more_threads_than_vertices_is_fine() {
        let g = erdos_renyi(5, 6, 1);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        assert_eq!(
            count_plan_parallel_with(&g, &plan, 64, &EngineConfig::default()),
            count_plan(&g, &plan)
        );
    }

    #[test]
    fn empty_graph_parallel_counts_zero() {
        let g = fingers_graph::GraphBuilder::new().vertex_count(0).build();
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        assert_eq!(
            count_plan_parallel_with(&g, &plan, 4, &EngineConfig::default()),
            0
        );
    }

    #[test]
    fn sum_over_root_tasks_partitions_work() {
        // Sum of task lengths = vertex count, for any thread count.
        for threads in [1, 2, 5] {
            let total = sum_over_root_tasks(97, threads, |t| t.len() as u64);
            assert_eq!(total, 97);
        }
    }

    #[test]
    fn tiny_mem_budget_aborts_all_or_nothing_and_gauge_returns_to_baseline() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let global = MemGauge::new();
        for threads in [1, 2, 4] {
            // 1 byte: the first root boundary after any scratch retention
            // must trip it, for every thread count and scheduler.
            let cfg = EngineConfig::with_query_mem_budget(1);
            let err = try_count_plan_parallel_governed(
                &g,
                &plan,
                threads,
                &cfg,
                cfg.hub_set(&g),
                &CancelToken::new(),
                Some(&global),
            )
            .expect_err("1-byte budget must abort");
            let (used, budget) = err.mem_budget().expect("typed budget error");
            assert!(used > budget, "{used} must exceed {budget}");
            assert_eq!(budget, 1);
            assert_eq!(
                global.bytes(),
                0,
                "aborted query must release everything it published"
            );
        }
        assert!(global.peak_bytes() > 0, "the abort metered real bytes");
    }

    #[test]
    fn generous_mem_budget_changes_nothing_and_meters_the_run() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        let global = MemGauge::new();
        for threads in [1, 4] {
            let cfg = EngineConfig::with_query_mem_budget(64 << 20);
            let total = try_count_plan_parallel_governed(
                &g,
                &plan,
                threads,
                &cfg,
                cfg.hub_set(&g),
                &CancelToken::new(),
                Some(&global),
            )
            .expect("generous budget never aborts");
            assert_eq!(total, expected, "{threads} threads");
            assert_eq!(global.bytes(), 0, "gauge back to baseline after the run");
        }
        assert!(
            global.peak_bytes() > 0,
            "a bitmap-tier clique count retains metered scratch"
        );
    }

    /// The driver over 97 roots with a stateless per-task `count`, as the
    /// oracles use it.
    fn drive_sum(
        threads: usize,
        cancel: &CancelToken,
        count: impl Fn(&MiningTask) -> u64 + Sync,
    ) -> Result<u64, EngineError> {
        drive(97, threads, true, cancel, || (), |(), t| Ok(count(t))).map(|(total, _)| total)
    }

    #[test]
    fn isolated_scaffold_reports_failed_partitions_and_survives() {
        // Panic in the task containing root 50; every other task still runs
        // and the process survives at every thread count.
        for threads in [1, 2, 4] {
            let err = drive_sum(threads, &CancelToken::new(), |t| {
                assert!(!t.roots().any(|r| r == 50), "injected failure");
                t.len() as u64
            })
            .expect_err("one task must fail");
            let failures = err.failed_partitions();
            assert_eq!(failures.len(), 1, "{threads} threads");
            let task = &failures[0].task;
            assert!(task.start <= 50 && 50 < task.end, "{task:?}");
            assert!(failures[0].message.contains("injected failure"));
            assert!(err.to_string().contains("1 mining task panicked"));
        }
    }

    #[test]
    fn isolated_scaffold_collects_every_failure() {
        // Three poisoned roots in distinct partitions → three failures, in
        // ascending root order (a steal schedule has no global claim order).
        let poisoned = [5u32, 40, 90];
        let err = drive_sum(2, &CancelToken::new(), |t| {
            if t.roots().any(|r| poisoned.contains(&r)) {
                panic!("poisoned root in [{}, {})", t.start, t.end);
            }
            t.len() as u64
        })
        .expect_err("three tasks must fail");
        let failures = err.failed_partitions();
        assert_eq!(failures.len(), 3, "{failures:?}");
        for w in failures.windows(2) {
            assert!(
                w[0].task.start < w[1].task.start,
                "root order: {failures:?}"
            );
        }
    }

    #[test]
    fn isolated_scaffold_succeeds_without_failures() {
        for threads in [1, 3] {
            let total = drive_sum(threads, &CancelToken::new(), |t| t.len() as u64);
            assert_eq!(total.expect("no panics"), 97);
        }
    }

    #[test]
    fn shared_entry_with_live_token_is_bit_identical() {
        let g = erdos_renyi(60, 240, 11);
        let cfg = EngineConfig::default();
        for p in [Pattern::triangle(), Pattern::clique(4)] {
            let plan = ExecutionPlan::compile(&p, Induced::Vertex);
            let expected = count_plan(&g, &plan);
            for threads in [1, 2, 4] {
                let got = try_count_plan_parallel_shared(
                    &g,
                    &plan,
                    threads,
                    &cfg,
                    cfg.hub_set(&g),
                    &CancelToken::new(),
                )
                .expect("live token must not cancel");
                assert_eq!(got, expected, "{p} at {threads} threads");
            }
        }
    }

    #[test]
    fn pre_cancelled_token_yields_cancelled_not_partial() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let cfg = EngineConfig::default();
        for threads in [1, 4] {
            let cancel = CancelToken::new();
            cancel.cancel();
            let err = try_count_plan_parallel_shared(&g, &plan, threads, &cfg, None, &cancel)
                .expect_err("cancelled before any task ran");
            assert_eq!(err.cancel_kind(), Some(CancelKind::Explicit), "{err}");
            assert!(err.failed_partitions().is_empty());
        }
    }

    #[test]
    fn expired_deadline_yields_deadline_kind() {
        let g = erdos_renyi(40, 150, 3);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let cancel = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let err =
            try_count_plan_parallel_shared(&g, &plan, 2, &EngineConfig::default(), None, &cancel)
                .expect_err("deadline already passed");
        assert_eq!(err.cancel_kind(), Some(CancelKind::Deadline));
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn mid_run_cancel_stops_workers_and_discards_counts() {
        // A timer thread cancels while workers grind a slow 5-clique count;
        // the run must return Cancelled (never a partial count) and every
        // scoped worker is joined before the entry point returns, proving
        // the pool is reclaimed.
        let g = fingers_graph::gen::chung_lu_power_law(&fingers_graph::gen::ChungLuConfig::new(
            3_000, 36_000, 7,
        ));
        let plan = ExecutionPlan::compile(&Pattern::clique(5), Induced::Vertex);
        let cancel = CancelToken::new();
        let canceller = {
            let token = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.cancel();
            })
        };
        let res =
            try_count_plan_parallel_shared(&g, &plan, 4, &EngineConfig::default(), None, &cancel);
        canceller.join().expect("canceller thread");
        match res {
            Err(e) => assert_eq!(e.cancel_kind(), Some(CancelKind::Explicit), "{e}"),
            // If the machine is fast enough to finish in <20ms the count
            // must be the full, correct one — never something in between.
            Ok(n) => assert_eq!(n, count_plan(&g, &plan)),
        }
    }

    #[test]
    fn cancellable_scaffold_cancels_and_succeeds() {
        let cancel = CancelToken::new();
        for threads in [1, 3] {
            let total = drive_sum(threads, &cancel, |t| t.len() as u64);
            assert_eq!(total.expect("live token"), 97);
        }
        cancel.cancel();
        let err = drive_sum(2, &cancel, |t| t.len() as u64).expect_err("cancelled");
        assert_eq!(err.cancel_kind(), Some(CancelKind::Explicit));
    }

    #[test]
    fn worker_panic_outranks_cancel_and_budget_halt_is_typed() {
        // Chaos-free: the closures raise each outcome directly, so nothing
        // here touches the process-global chaos plan.
        let halt = RunHalt::MemBudget {
            used_bytes: 10,
            budget_bytes: 4,
        };
        let has_50 = |t: &MiningTask| t.roots().any(|r| r == 50);
        for threads in [1, 2] {
            // A task panics after cancelling the token, and the worker then
            // observes the cancel at its next claim: the panic wins.
            let cancel = CancelToken::new();
            let err = drive(
                97,
                threads,
                true,
                &cancel,
                || (),
                |(), t| {
                    if has_50(t) {
                        cancel.cancel();
                        panic!("panic beside a cancel");
                    }
                    Ok(t.len() as u64)
                },
            )
            .expect_err("panic must fail the run");
            assert_eq!(err.failed_partitions().len(), 1, "{err}");

            // A budget halt alone is typed with the halt's bytes.
            let err = drive(
                97,
                threads,
                true,
                &CancelToken::new(),
                || (),
                |(), t| {
                    if has_50(t) {
                        return Err(halt);
                    }
                    Ok(t.len() as u64)
                },
            )
            .expect_err("budget halt must fail the run");
            assert_eq!(err.mem_budget(), Some((10, 4)), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "poisoned oracle task")]
    fn sum_over_root_tasks_panics_naming_the_failure() {
        sum_over_root_tasks(97, 2, |t| {
            assert!(!t.roots().any(|r| r == 50), "poisoned oracle task");
            t.len() as u64
        });
    }

    #[test]
    fn shared_entry_rejects_unsound_plan_before_running() {
        let g = erdos_renyi(10, 20, 1);
        let sound = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let unsound = fingers_verify::PlanMutation::DropInit
            .apply(&sound)
            .expect("drop-init applies to the triangle plan");
        let err = try_count_plan_parallel_shared(
            &g,
            &unsound,
            2,
            &EngineConfig::default(),
            None,
            &CancelToken::new(),
        )
        .expect_err("unsound plan must be rejected");
        assert!(matches!(err, EngineError::InvalidPlan { .. }), "{err}");
    }
}
