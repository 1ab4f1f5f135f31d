//! Plan-driven DFS execution (the paper's Figure 2 as an interpreter).
//!
//! The interpreter is layered, replacing the seed's monolithic closure
//! walker:
//!
//! - [`PlanMiner`] — a reusable worker that executes [`MiningTask`]s (runs
//!   of level-0 roots) against one compiled plan, materializing candidate
//!   sets into a [`ScratchArena`] so steady-state mining never allocates
//!   per embedding.
//! - [`Sink`] — what happens at each match: [`CountSink`] counts leaf runs
//!   in bulk, [`FnSink`] materializes embeddings for listing.
//! - [`count_plan`] / [`list_plan`] / [`count_multi`] — thin sequential
//!   wrappers over the engine, API-compatible with the seed.
//! - [`crate::parallel`] — root-partitioned execution of the same engine
//!   across threads, with an order-independent reduction.

// lint: hot-path(alloc)

use crate::config::EngineConfig;
use crate::gauge::{GaugeScope, MemGauge};
use crate::scratch::{BitmapCache, ScratchArena};
use crate::sink::{CountSink, FnSink, Sink};
use crate::task::MiningTask;
use fingers_graph::hubs::HubSet;
use fingers_graph::{CsrGraph, VertexId};
use fingers_pattern::benchmarks::Benchmark;
use fingers_pattern::{ExecutionPlan, MultiPlan, PlanOp};
use fingers_setops::adaptive::{select_count_tier_with, select_tier_with, KernelTier};
use fingers_setops::bitmap::NeighborBitmap;
use fingers_setops::{bitmap, bound, galloping, merge, simd, Elem, SetOpKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Result of mining a (multi-)plan: per-pattern embedding counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MineOutcome {
    /// One embedding count per constituent plan, in plan order.
    pub per_pattern: Vec<u64>,
}

impl MineOutcome {
    /// Total embeddings across all patterns.
    pub fn total(&self) -> u64 {
        self.per_pattern.iter().sum()
    }
}

/// Counts embeddings of one compiled plan in `graph` with the default
/// [`EngineConfig`].
pub fn count_plan(graph: &CsrGraph, plan: &ExecutionPlan) -> u64 {
    count_plan_with(graph, plan, &EngineConfig::default())
}

/// Counts embeddings of one compiled plan under an explicit engine config.
/// The count is identical for every config — only timing changes.
pub fn count_plan_with(graph: &CsrGraph, plan: &ExecutionPlan, config: &EngineConfig) -> u64 {
    let mut sink = CountSink::default();
    PlanMiner::with_config(graph, plan, config).run(MiningTask::all(graph), &mut sink);
    sink.count
}

/// Invokes `visitor` with every embedding of `plan` in `graph` (the mapped
/// input-graph vertex for each level, in level order).
pub fn list_plan<F: FnMut(&[VertexId])>(graph: &CsrGraph, plan: &ExecutionPlan, visitor: &mut F) {
    let mut sink = FnSink::new(visitor);
    PlanMiner::new(graph, plan).run(MiningTask::all(graph), &mut sink);
}

/// Counts embeddings of every pattern in a multi-plan.
pub fn count_multi(graph: &CsrGraph, multi: &MultiPlan) -> MineOutcome {
    count_multi_with(graph, multi, &EngineConfig::default())
}

/// Counts embeddings of every pattern in a multi-plan under an explicit
/// engine config.
pub fn count_multi_with(graph: &CsrGraph, multi: &MultiPlan, config: &EngineConfig) -> MineOutcome {
    MineOutcome {
        per_pattern: multi
            .plans()
            .iter()
            .map(|p| count_plan_with(graph, p, config))
            .collect(), // lint: allow-alloc(one vector per mining run, not per embedding)
    }
}

/// Counts embeddings for one of the paper's benchmark workloads.
pub fn count_benchmark(graph: &CsrGraph, benchmark: Benchmark) -> MineOutcome {
    count_multi(graph, &benchmark.plan())
}

/// Counts embeddings for a benchmark workload under an explicit engine
/// config.
pub fn count_benchmark_with(
    graph: &CsrGraph,
    benchmark: Benchmark,
    config: &EngineConfig,
) -> MineOutcome {
    count_multi_with(graph, &benchmark.plan(), config)
}

/// A reusable plan-execution worker: one graph, one compiled plan, and the
/// scratch memory to run any number of [`MiningTask`]s against them.
///
/// Construction is cheap; the arena warms up during the first task and is
/// reused across tasks, which is what makes one `PlanMiner` per parallel
/// worker (rather than per task) the right shape. The same lifecycle holds
/// for the worker's [`BitmapCache`]: hub bitmaps built during one task
/// stay resident for later tasks and deeper DFS levels.
///
/// Every scheduled set operation dispatches adaptively across the four
/// kernel tiers (merge / galloping / dense bitmap / SIMD block compare)
/// via [`fingers_setops::adaptive::select_tier_with`]; all tiers produce
/// identical sorted outputs, so tier choice — and therefore cache state,
/// thread count, and configuration — can never change counts.
///
/// For counting sinks ([`Sink::COUNTS_ONLY`]) with
/// `EngineConfig::fuse_terminal_counts` on (the default), the action that
/// would materialize the *leaf* candidate set instead dispatches a fused,
/// bound-pushed count kernel ([`select_count_tier`]) — the leaf set is
/// never written, and the symmetry-breaking bound trims both operands
/// before the kernel runs. Totals are bit-identical with fusion on or off;
/// listing sinks always take the materializing path.
///
/// # Invariants
///
/// The interpreter trusts two properties of compiler-produced plans, and
/// panics (rather than silently miscounting) if handed a plan violating
/// them: every level's candidate set is materialized by the previous
/// level's actions, and every `Apply` refines a set already materialized
/// at its own level. Both are structural guarantees of
/// `ExecutionPlan::compile*`; no user input can break them.
///
/// # Example
///
/// ```
/// use fingers_graph::GraphBuilder;
/// use fingers_mining::{CountSink, MiningTask, PlanMiner};
/// use fingers_pattern::{ExecutionPlan, Induced, Pattern};
///
/// let g = GraphBuilder::new()
///     .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
///     .build();
/// let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
/// let mut miner = PlanMiner::new(&g, &plan);
/// let mut sink = CountSink::default();
/// miner.run(MiningTask::all(&g), &mut sink);
/// assert_eq!(sink.count, 4); // K4 has 4 triangles
/// ```
#[derive(Debug)]
pub struct PlanMiner<'g, 'p> {
    graph: &'g CsrGraph,
    plan: &'p ExecutionPlan,
    arena: ScratchArena,
    mapped: Vec<VertexId>,
    /// Materialized candidate sets, indexed by target level.
    sets: Vec<Option<Vec<Elem>>>,
    /// Per-level undo stacks `(target, previous set)`, reused across roots.
    undo: Vec<Vec<(usize, Option<Vec<Elem>>)>>,
    /// Vertices eligible for the dense-bitmap tier (`None` disables it).
    /// Shared across a mining call's workers; selection runs once.
    hubs: Option<Arc<HubSet>>,
    /// This worker's resident hub bitmaps.
    cache: BitmapCache,
    /// Per-level symmetry-breaking bound sources, precomputed once per plan
    /// so the per-embedding restriction check reduces to `mapped[]` reads.
    bound_sources: Vec<BoundSource>,
    /// Whether terminal-counting levels run the fused count kernels
    /// (`EngineConfig::fuse_terminal_counts`; counting sinks only).
    fuse: bool,
    /// Whether the tier choosers may pick the SIMD block-compare kernels
    /// (`EngineConfig::simd`; ANDed with the build/CPU probe inside
    /// [`select_tier_with`]).
    simd: bool,
    /// Memory-governor window (`None` = ungoverned): publishes this
    /// worker's scratch footprint into a shared gauge at root-task
    /// boundaries and reports budget violations (see [`crate::gauge`]).
    governor: Option<GaugeScope>,
}

/// Why a governed run stopped before finishing its task. Same cooperative
/// contract for both arms: the halt was observed at a root-task boundary,
/// the sink holds an unpredictable partial tally that the caller must
/// discard, and the miner is immediately reusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunHalt {
    /// The run's [`crate::cancel::CancelToken`] fired.
    Cancelled,
    /// The governed gauge crossed its byte budget.
    MemBudget {
        /// Metered bytes at the boundary that tripped the budget.
        used_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
}

/// Where a level's symmetry-breaking lower bound comes from — hoisted out
/// of the per-embedding loop into a table built once per [`PlanMiner`].
/// Most restricted levels have exactly one bound ancestor, so the common
/// case resolves with a single indexed read instead of an iterator max
/// over `schedule(level).lower_bounds`.
#[derive(Debug, Clone)]
enum BoundSource {
    /// Unrestricted level: every candidate is eligible.
    None,
    /// Bound is the vertex mapped at one ancestor level.
    Single(usize),
    /// Bound is the max over several ancestor levels' mapped vertices.
    Max(Vec<usize>),
}

impl BoundSource {
    fn from_levels(levels: &[usize]) -> Self {
        match levels {
            [] => BoundSource::None,
            [a] => BoundSource::Single(*a),
            // lint: allow-alloc(plan-construction time, once per schedule level)
            many => BoundSource::Max(many.to_vec()),
        }
    }

    /// The level's effective lower bound for the current prefix (`None`
    /// when unrestricted).
    #[inline]
    fn resolve(&self, mapped: &[VertexId]) -> Option<VertexId> {
        match self {
            BoundSource::None => None,
            BoundSource::Single(a) => Some(mapped[*a]),
            BoundSource::Max(list) => list.iter().map(|&a| mapped[a]).max(),
        }
    }
}

impl<'g, 'p> PlanMiner<'g, 'p> {
    /// A worker for executing `plan` over `graph` with the default
    /// [`EngineConfig`].
    pub fn new(graph: &'g CsrGraph, plan: &'p ExecutionPlan) -> Self {
        Self::with_config(graph, plan, &EngineConfig::default())
    }

    /// A worker configured by `config`; identifies the hub set itself.
    /// Parallel callers that share one hub set across workers should use
    /// [`PlanMiner::with_hubs`] instead.
    pub fn with_config(
        graph: &'g CsrGraph,
        plan: &'p ExecutionPlan,
        config: &EngineConfig,
    ) -> Self {
        Self::with_hubs(graph, plan, config.hub_set(graph), config)
    }

    /// A worker using a pre-identified (possibly shared) hub set (`None`
    /// disables the bitmap tier for this worker); every other knob is read
    /// from `config`.
    pub fn with_hubs(
        graph: &'g CsrGraph,
        plan: &'p ExecutionPlan,
        hubs: Option<Arc<HubSet>>,
        config: &EngineConfig,
    ) -> Self {
        // Every construction path funnels through here, so this is the
        // debug-build gate: a plan that fails static verification would
        // make the interpreter read unmaterialized buffers or miscount.
        #[cfg(debug_assertions)]
        {
            let report = fingers_verify::verify(plan);
            assert!(report.is_sound(), "unsound execution plan:\n{report}");
        }
        let k = plan.pattern_size();
        // Level 0 has no schedule (roots are unrestricted by construction).
        let bound_sources = (0..k)
            .map(|j| {
                if j == 0 {
                    BoundSource::None
                } else {
                    BoundSource::from_levels(&plan.schedule(j).lower_bounds)
                }
            })
            .collect(); // lint: allow-alloc(one-time interpreter construction, not per embedding)
        Self {
            graph,
            plan,
            arena: ScratchArena::new(),
            // lint: allow-alloc(one-time interpreter construction, not per embedding)
            mapped: Vec::with_capacity(k),
            sets: vec![None; k], // lint: allow-alloc(one-time interpreter construction, not per embedding)
            // lint: allow-alloc(one-time interpreter construction, not per embedding)
            undo: (0..k).map(|_| Vec::new()).collect(),
            hubs,
            cache: BitmapCache::new(config.bitmap_cache_slots),
            bound_sources,
            fuse: config.fuse_terminal_counts,
            simd: config.simd,
            governor: None,
        }
    }

    /// Puts this miner under memory governance: its scratch footprint is
    /// published into `gauge` at every root-task boundary, and — when
    /// `budget` is set — a governed run ([`PlanMiner::run_governed`])
    /// aborts with [`RunHalt::MemBudget`] once the gauge (shared across
    /// all miners publishing into it) exceeds the budget. Dropping the
    /// miner releases everything it published, so the gauge returns to
    /// its prior baseline.
    pub fn attach_gauge(&mut self, gauge: MemGauge, budget: Option<u64>) {
        self.governor = Some(GaugeScope::new(gauge, budget));
    }

    /// Runs the plan DFS for every root in `task`, reporting matches to
    /// `sink`. Scratch buffers persist across calls, so running many tasks
    /// through one miner allocates no more than running one.
    pub fn run<S: Sink>(&mut self, task: MiningTask, sink: &mut S) {
        let k = self.plan.pattern_size();
        if k == 1 {
            for v in task.roots() {
                self.mapped.push(v);
                sink.embedding(&self.mapped);
                self.mapped.pop();
            }
            return;
        }
        for v in task.roots() {
            self.enter(0, v, sink);
        }
    }

    /// Like [`PlanMiner::run`], but polls `cancel` between level-0 roots
    /// and — when a gauge is attached via [`PlanMiner::attach_gauge`] —
    /// publishes the footprint and checks the budget at the same boundary.
    /// Cancellation is checked before the budget, so a query that is both
    /// cancelled and over budget reports the cancellation (the caller asked
    /// for it; the budget was incidental).
    ///
    /// The poll is per *root*, never per embedding: a live token costs one
    /// relaxed atomic load (plus a clock read when a deadline is armed) per
    /// level-0 vertex, preserving the engine's zero-per-embedding-overhead
    /// property. A subtree below one root is never interrupted mid-walk.
    ///
    /// Both halts share the cancellation contract: `sink` holds an
    /// unpredictable partial tally the caller must discard, and the miner
    /// is immediately reusable. An ungoverned miner never returns
    /// [`RunHalt::MemBudget`], and pays nothing for the feature.
    ///
    /// # Errors
    ///
    /// [`RunHalt::Cancelled`] when the token fired, [`RunHalt::MemBudget`]
    /// when the governed gauge crossed its budget.
    pub fn run_governed<S: Sink>(
        &mut self,
        task: MiningTask,
        sink: &mut S,
        cancel: &crate::cancel::CancelToken,
    ) -> Result<(), RunHalt> {
        let k = self.plan.pattern_size();
        if k == 1 {
            for v in task.roots() {
                if cancel.is_cancelled() {
                    return Err(RunHalt::Cancelled);
                }
                self.mapped.push(v);
                sink.embedding(&self.mapped);
                self.mapped.pop();
            }
            return Ok(());
        }
        for v in task.roots() {
            if cancel.is_cancelled() {
                return Err(RunHalt::Cancelled);
            }
            self.poll_governor(sink.heap_bytes())?;
            self.enter(0, v, sink);
        }
        // Final publish so a completed task's full footprint is visible to
        // sibling workers' budget checks without waiting for this worker's
        // next claim.
        self.poll_governor(sink.heap_bytes())
    }

    /// Publishes the miner's current footprint into the attached gauge and
    /// converts a budget violation into the governed halt. No-op (and no
    /// atomics) when ungoverned.
    fn poll_governor(&mut self, sink_bytes: u64) -> Result<(), RunHalt> {
        let Some(governor) = self.governor.as_mut() else {
            return Ok(());
        };
        let footprint = self.arena.footprint_bytes() + self.cache.footprint_bytes() + sink_bytes;
        match governor.publish(footprint) {
            Some((used_bytes, budget_bytes)) => Err(RunHalt::MemBudget {
                used_bytes,
                budget_bytes,
            }),
            None => Ok(()),
        }
    }

    /// Scratch-memory statistics, for tests asserting the
    /// no-per-embedding-allocation property.
    pub fn arena(&self) -> &ScratchArena {
        &self.arena
    }

    /// Bitmap-cache statistics (hits, builds, allocation bounds), for tests
    /// asserting the cache half of the no-per-embedding-allocation
    /// property.
    pub fn bitmap_cache(&self) -> &BitmapCache {
        &self.cache
    }

    /// Matches `v` at `level`, runs the level's scheduled set ops, recurses.
    fn enter<S: Sink>(&mut self, level: usize, v: VertexId, sink: &mut S) {
        let k = self.plan.pattern_size();
        let plan = self.plan;
        self.mapped.push(v);

        let actions = plan.actions_at(level);
        // Terminal-count fusion (DESIGN.md § count fusion & bound pushing):
        // when the next level is the leaf and the sink only counts, this
        // level's *finalizing* action on the leaf set — actions are
        // target-ordered, so any op for S_{k−1} scheduled here comes last —
        // runs as a fused count kernel instead of materializing. Earlier
        // actions (including partial refinements of S_{k−1}) materialize as
        // usual; if the leaf set was finalized at an earlier level there is
        // no such action and the materializing leaf path below runs.
        let fused = if S::COUNTS_ONLY && self.fuse && level + 2 == k {
            actions
                .split_last()
                .filter(|(last, _)| last.target() + 1 == k)
        } else {
            None
        };
        let run_actions = fused.map_or(actions, |(_, rest)| rest);

        // Run the compiled actions for this level, remembering what to undo.
        // `undo[level]` is empty here: each invocation drains it before
        // returning and recursion only touches deeper levels.
        for op in run_actions {
            let target = op.target();
            let mut buf = self.arena.take();
            self.evaluate_into(op, level, &mut buf);
            let old = self.sets[target].take();
            self.undo[level].push((target, old));
            self.sets[target] = Some(buf);
        }

        if let Some((op, _)) = fused {
            sink.leaf_count(self.count_terminal(op, level));
        } else {
            let next = level + 1;
            if next < k {
                // Iterate candidates for the next level. The compiler
                // schedules every set `S_next` to be materialized by level
                // `next − 1`, so a missing set here is a plan-compiler bug,
                // not a data error.
                // §11: see the comment above — fingers-verify proves this
                // materialization statically before the engine runs.
                #[allow(clippy::expect_used)]
                let candidates = self.sets[next]
                    .take()
                    .expect("schedule materializes S_{next} by level next-1");
                let start = self.candidate_start(next, &candidates);
                if next + 1 == k {
                    // Leaf: the whole remaining run extends `mapped`.
                    sink.leaf_run(&mut self.mapped, &candidates[start..]);
                } else {
                    for &c in &candidates[start..] {
                        if self.mapped.contains(&c) {
                            continue; // embeddings map distinct vertices
                        }
                        self.enter(next, c, sink);
                    }
                }
                self.sets[next] = Some(candidates);
            }
        }

        while let Some((target, old)) = self.undo[level].pop() {
            if let Some(fresh) = std::mem::replace(&mut self.sets[target], old) {
                self.arena.recycle(fresh);
            }
        }
        self.mapped.pop();
    }

    /// First candidate index satisfying the level's symmetry-breaking lower
    /// bounds (`u_level > u_a`), found by binary search on the sorted set.
    fn candidate_start(&self, level: usize, candidates: &[Elem]) -> usize {
        match self.bound_sources[level].resolve(&self.mapped) {
            Some(b) => bound::lower_bound_start(candidates, b),
            None => 0,
        }
    }

    /// Executes a terminal level's finalizing action as a count: the number
    /// of embeddings the materializing path would have reported for this
    /// prefix — `|result above bound| − |prefix ∩ result above bound|` —
    /// with the restriction bound pushed into the operands and no output
    /// written.
    fn count_terminal(&mut self, op: &PlanOp, level: usize) -> u64 {
        let leaf = self.plan.pattern_size() - 1;
        let lower = self.bound_sources[leaf].resolve(&self.mapped);
        let current = self.mapped[level];
        match *op {
            PlanOp::Init { .. } => {
                // Leaf set = N(u_level) wholesale: no kernel needed, only
                // the bound trim and prefix-duplicate exclusion.
                let long = bound::trim(self.graph.neighbors(current), lower);
                let dup = self
                    .mapped
                    .iter()
                    .filter(|p| long.binary_search(p).is_ok())
                    .count();
                (long.len() - dup) as u64
            }
            PlanOp::InitAnti { short, .. } => count_dispatch(
                self.graph,
                self.hubs.as_deref(),
                &mut self.cache,
                SetOpKind::AntiSubtract,
                self.graph.neighbors(self.mapped[short]),
                current,
                lower,
                &self.mapped,
                self.simd,
            ),
            PlanOp::Apply { target, list, kind } => {
                // §11: same materialized-set invariant as `evaluate_into`,
                // proven statically by fingers-verify's use-before-init check.
                #[allow(clippy::expect_used)]
                let short = self.sets[target]
                    .as_ref()
                    .expect("Apply requires a materialized set");
                count_dispatch(
                    self.graph,
                    self.hubs.as_deref(),
                    &mut self.cache,
                    kind,
                    short,
                    self.mapped[list],
                    lower,
                    &self.mapped,
                    self.simd,
                )
            }
        }
    }

    /// Computes the new value of an op's target set into `out` (cleared).
    fn evaluate_into(&mut self, op: &PlanOp, level: usize, out: &mut Vec<Elem>) {
        let current = self.mapped[level];
        match *op {
            PlanOp::Init { .. } => {
                out.clear();
                out.extend_from_slice(self.graph.neighbors(current));
            }
            PlanOp::InitAnti { short, .. } => {
                // N(u_level) − N(u_short): the postponed anti-subtraction.
                let short_list = self.graph.neighbors(self.mapped[short]);
                kernel_dispatch(
                    self.graph,
                    self.hubs.as_deref(),
                    &mut self.cache,
                    SetOpKind::AntiSubtract,
                    short_list,
                    current,
                    out,
                    self.simd,
                );
            }
            PlanOp::Apply { target, list, kind } => {
                // §11: `Apply` only ever refines a set a previous op of this
                // same level materialized; fingers-verify proves the action
                // order statically. Absence is a compiler bug.
                #[allow(clippy::expect_used)] // §11: justified above
                let short = self.sets[target]
                    .as_ref()
                    .expect("Apply requires a materialized set");
                kernel_dispatch(
                    self.graph,
                    self.hubs.as_deref(),
                    &mut self.cache,
                    kind,
                    short,
                    self.mapped[list],
                    out,
                    self.simd,
                );
            }
        }
    }
}

/// Four-tier adaptive kernel dispatch for one scheduled set operation
/// whose long operand is the adjacency of `long_v`.
///
/// Tier choice is delegated to [`select_tier_with`]: the dense-bitmap tier
/// is a candidate only when `long_v` is a configured hub (its bitmap is
/// then fetched or lazily built through the worker's cache); otherwise the
/// merge/galloping crossover applies, with the SIMD block compare taking
/// the merge's balanced region when `use_simd` (the `EngineConfig::simd`
/// policy toggle) and the build/CPU probe both hold. All four tiers
/// produce identical sorted outputs, so this function is a pure
/// performance decision.
#[allow(clippy::too_many_arguments)]
fn kernel_dispatch(
    graph: &CsrGraph,
    hubs: Option<&HubSet>,
    cache: &mut BitmapCache,
    kind: SetOpKind,
    short: &[Elem],
    long_v: VertexId,
    out: &mut Vec<Elem>,
    use_simd: bool,
) {
    let long = graph.neighbors(long_v);
    let resident_words = hubs
        .filter(|h| h.contains(long_v))
        .map(|_| NeighborBitmap::words_for(graph.vertex_count()));
    match select_tier_with(kind, short.len(), long.len(), resident_words, use_simd) {
        KernelTier::Bitmap => {
            let bm = cache.get_or_build(graph, long_v);
            bitmap::apply_into(kind, short, bm, out);
        }
        KernelTier::Galloping => galloping::apply_into(kind, short, long, out),
        KernelTier::Merge => merge::apply_into(kind, short, long, out),
        KernelTier::Simd => simd::apply_into(kind, short, long, out),
    }
}

/// Fused count dispatch for a terminal level's finalizing set operation:
/// returns how many embeddings the prefix `mapped` completes, without
/// materializing the leaf set.
///
/// Bound pushing happens here: both operands are trimmed to elements
/// strictly above `lower` *before* the kernel runs (the shared
/// [`bound::trim`] convention), so restricted elements are never compared,
/// unlike the materializing path which filters the finished set. Tier
/// choice is delegated to [`select_count_tier_with`] — counting reduces
/// every kind to intersect counting, so a resident bitmap always wins (no
/// anti-subtract word-scan caveat), and the SIMD block compare counts the
/// merge's balanced region via `movemask` popcounts when `use_simd` holds.
/// The prefix-duplicate exclusion mirrors
/// `CountSink::leaf_run`: each mapped vertex that would have appeared in
/// the trimmed result is one overcount, checked by binary searches against
/// the trimmed operands (valid because the vertex is itself above the
/// bound).
#[allow(clippy::too_many_arguments)]
fn count_dispatch(
    graph: &CsrGraph,
    hubs: Option<&HubSet>,
    cache: &mut BitmapCache,
    kind: SetOpKind,
    short_full: &[Elem],
    long_v: VertexId,
    lower: Option<Elem>,
    mapped: &[VertexId],
    use_simd: bool,
) -> u64 {
    let short = bound::trim(short_full, lower);
    let long = bound::trim(graph.neighbors(long_v), lower);
    let resident = hubs.is_some_and(|h| h.contains(long_v));
    let n = match select_count_tier_with(kind, short.len(), long.len(), resident, use_simd) {
        KernelTier::Bitmap => {
            let bm = cache.get_or_build(graph, long_v);
            bitmap::count(kind, short, bm, long.len())
        }
        KernelTier::Galloping => galloping::count(kind, short, long),
        KernelTier::Merge => merge::count(kind, short, long),
        // Operands are already bound-trimmed above, so the unbounded
        // count form is the right one here (same as the other tiers).
        KernelTier::Simd => simd::count(kind, short, long),
    };
    let dup = mapped
        .iter()
        .filter(|&&p| {
            lower.is_none_or(|b| p > b) && {
                let in_short = short.binary_search(&p).is_ok();
                let in_long = long.binary_search(&p).is_ok();
                match kind {
                    SetOpKind::Intersect => in_short && in_long,
                    SetOpKind::Subtract => in_short && !in_long,
                    SetOpKind::AntiSubtract => in_long && !in_short,
                }
            }
        })
        .count() as u64;
    n - dup
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::gen::erdos_renyi;
    use fingers_graph::GraphBuilder;
    use fingers_pattern::{Induced, Pattern};

    fn complete(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..n as VertexId {
            for b in (a + 1)..n as VertexId {
                edges.push((a, b));
            }
        }
        GraphBuilder::new().edges(edges).build()
    }

    fn choose(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn triangles_in_complete_graphs() {
        for n in 3..=8 {
            let g = complete(n);
            let got = count_benchmark(&g, Benchmark::Tc).total();
            assert_eq!(got, choose(n as u64, 3), "K{n}");
        }
    }

    #[test]
    fn cliques_in_complete_graphs() {
        let g = complete(8);
        assert_eq!(count_benchmark(&g, Benchmark::Cl4).total(), choose(8, 4));
        assert_eq!(count_benchmark(&g, Benchmark::Cl5).total(), choose(8, 5));
    }

    #[test]
    fn vertex_induced_cycles_absent_in_complete_graphs() {
        // Every 4-subset of K_n has chords, so no *vertex-induced* 4-cycle.
        let g = complete(6);
        assert_eq!(count_benchmark(&g, Benchmark::Cyc).total(), 0);
        // Same for tailed triangles and diamonds (missing edges required).
        assert_eq!(count_benchmark(&g, Benchmark::Tt).total(), 0);
        assert_eq!(count_benchmark(&g, Benchmark::Dia).total(), 0);
    }

    #[test]
    fn edge_induced_cycles_in_complete_graph() {
        // Each 4-subset of K_n contains 3 (edge-induced) 4-cycles.
        let g = complete(6);
        let plan = ExecutionPlan::compile(&Pattern::four_cycle(), Induced::Edge);
        assert_eq!(count_plan(&g, &plan), 3 * choose(6, 4));
    }

    #[test]
    fn wedges_in_star() {
        // Star with c leaves: C(c, 2) wedges (vertex-induced), no triangles.
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (0, 4)])
            .build();
        let out = count_benchmark(&g, Benchmark::Mc3);
        assert_eq!(out.per_pattern, vec![0, 6]);
    }

    #[test]
    fn motif_census_covers_all_connected_triads() {
        // In any graph, #triangles + #wedges = number of connected 3-vertex
        // induced subgraphs. Cross-check on a random graph by direct count.
        let g = erdos_renyi(40, 120, 5);
        let out = count_benchmark(&g, Benchmark::Mc3);
        let mut triangles = 0u64;
        let mut wedges = 0u64;
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                for c in (b + 1)..40 {
                    let e = [g.has_edge(a, b), g.has_edge(a, c), g.has_edge(b, c)];
                    match e.iter().filter(|&&x| x).count() {
                        3 => triangles += 1,
                        2 => wedges += 1,
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(out.per_pattern, vec![triangles, wedges]);
    }

    #[test]
    fn figure_1_tailed_triangle_embeddings() {
        // A Figure-1-style input graph: triangle {1, 2, 3}, with 4 and 5
        // hanging off it so that {2, 1, 3, 5} is a tailed-triangle
        // embedding (u0=2, {u1,u2}={1,3}, tail u3=5 adjacent only to 2) —
        // the example embedding the paper's Section 2.1 names.
        let g = GraphBuilder::new()
            .edges([(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4)])
            .build();
        let plan = ExecutionPlan::compile(&Pattern::tailed_triangle(), Induced::Vertex);
        let mut found = Vec::new();
        list_plan(&g, &plan, &mut |emb| found.push(emb.to_vec()));
        assert!(
            found.iter().any(|e| e[0] == 2 && e[3] == 5 && {
                let mut tri = [e[1], e[2]];
                tri.sort_unstable();
                tri == [1, 3]
            }),
            "expected embedding 2-{{1,3}}-5 in {found:?}"
        );
        // Each embedding's vertices are distinct.
        for e in &found {
            let mut s = e.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4, "duplicate vertices in {e:?}");
        }
    }

    #[test]
    fn single_vertex_pattern_counts_vertices() {
        let g = erdos_renyi(10, 12, 1);
        let plan = ExecutionPlan::compile(&Pattern::from_edges_named(1, &[], "v"), Induced::Vertex);
        assert_eq!(count_plan(&g, &plan), 10);
    }

    #[test]
    fn empty_graph_counts_zero() {
        let g = GraphBuilder::new().vertex_count(5).build();
        for b in Benchmark::ALL {
            assert_eq!(count_benchmark(&g, b).total(), 0, "{b}");
        }
    }

    #[test]
    fn listed_embeddings_satisfy_restrictions() {
        let g = erdos_renyi(25, 90, 13);
        let plan = ExecutionPlan::compile(&Pattern::four_cycle(), Induced::Vertex);
        let mut count = 0u64;
        list_plan(&g, &plan, &mut |emb| {
            count += 1;
            for &(a, b) in plan.restrictions() {
                assert!(
                    emb[a] < emb[b],
                    "restriction u{a} < u{b} violated by {emb:?}"
                );
            }
        });
        assert_eq!(count, count_plan(&g, &plan));
    }

    #[test]
    fn listed_embeddings_have_pattern_edges() {
        let g = erdos_renyi(20, 70, 21);
        for p in [Pattern::diamond(), Pattern::tailed_triangle()] {
            let plan = ExecutionPlan::compile(&p, Induced::Vertex);
            list_plan(&g, &plan, &mut |emb| {
                let pat = plan.pattern();
                for a in 0..pat.size() {
                    for b in (a + 1)..pat.size() {
                        assert_eq!(
                            pat.are_adjacent(a, b),
                            g.has_edge(emb[a], emb[b]),
                            "vertex-induced adjacency mismatch at ({a},{b}) in {emb:?}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn wedges_on_paths_closed_form() {
        // A path on n vertices has exactly n−2 wedges and nothing else.
        for n in [3u32, 5, 9] {
            let g = GraphBuilder::new()
                .edges((0..n - 1).map(|i| (i, i + 1)))
                .build();
            let out = count_benchmark(&g, Benchmark::Mc3);
            assert_eq!(out.per_pattern, vec![0, (n - 2) as u64], "P{n}");
        }
    }

    #[test]
    fn cycles_on_rings_closed_form() {
        // C4 has one 4-cycle; C5 has none (vertex-induced 4-cycles need an
        // induced square); C6 likewise none, but C6 has 4-paths etc.
        let ring = |n: u32| {
            GraphBuilder::new()
                .edges((0..n).map(|i| (i, (i + 1) % n)))
                .build()
        };
        assert_eq!(count_benchmark(&ring(4), Benchmark::Cyc).total(), 1);
        assert_eq!(count_benchmark(&ring(5), Benchmark::Cyc).total(), 0);
        assert_eq!(count_benchmark(&ring(6), Benchmark::Cyc).total(), 0);
    }

    #[test]
    fn disconnected_components_mine_independently() {
        // Two disjoint K4s: counts double a single K4's.
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    edges.push((base + a, base + b));
                }
            }
        }
        let g = GraphBuilder::new().edges(edges).build();
        assert_eq!(count_benchmark(&g, Benchmark::Tc).total(), 8);
        assert_eq!(count_benchmark(&g, Benchmark::Cl4).total(), 2);
    }

    #[test]
    fn task_union_equals_full_run() {
        // Splitting the root range into tasks partitions the embeddings.
        let g = erdos_renyi(30, 110, 4);
        let plan = ExecutionPlan::compile(&Pattern::diamond(), Induced::Vertex);
        let full = count_plan(&g, &plan);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sum = 0u64;
        for task in MiningTask::partition(g.vertex_count(), 7) {
            let mut sink = CountSink::default();
            miner.run(task, &mut sink);
            sum += sink.count;
        }
        assert_eq!(sum, full);
    }

    #[test]
    fn no_per_embedding_allocation() {
        // The arena creates at most one buffer per scheduled op per level —
        // never one per embedding. K8 Cl4 has 70 embeddings and far more
        // partial ones; the arena must stay in the single digits.
        let g = complete(8);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sink = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink);
        assert_eq!(sink.count, choose(8, 4));
        let ops: usize = (0..plan.pattern_size())
            .map(|l| plan.actions_at(l).len())
            .sum();
        assert!(
            miner.arena().fresh_buffers() <= ops.max(1),
            "{} fresh buffers for {} scheduled ops",
            miner.arena().fresh_buffers(),
            ops
        );
        // A second full run on the warmed arena must allocate nothing new.
        let before = miner.arena().fresh_buffers();
        let mut sink2 = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink2);
        assert_eq!(sink2.count, sink.count);
        assert_eq!(miner.arena().fresh_buffers(), before);
        // Same discipline for the bitmap tier: storage allocations are
        // bounded by the cache capacity, never by embeddings, and a warmed
        // cache serves repeat runs from residency.
        let cache = miner.bitmap_cache();
        assert!(
            cache.fresh_bitmaps() <= cache.capacity(),
            "{} bitmap allocations exceed capacity {}",
            cache.fresh_bitmaps(),
            cache.capacity()
        );
        assert!(
            cache.hits() > 0,
            "a K8 clique run must reuse hub bitmaps across embeddings"
        );
    }

    #[test]
    fn fused_counts_match_listing() {
        // The listing path is fusion-blind (FnSink never counts), so the
        // number of listed embeddings is an independent oracle for the
        // fused count — including patterns whose terminal action is an
        // Init (path), InitAnti, or Apply of every kind.
        let g = erdos_renyi(35, 140, 9);
        for p in [
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::four_cycle(),
            Pattern::tailed_triangle(),
            Pattern::diamond(),
            Pattern::from_edges_named(4, &[(0, 1), (1, 2), (2, 3)], "path4"),
            Pattern::from_edges_named(4, &[(0, 1), (0, 2), (0, 3)], "star4"),
        ] {
            for induced in [Induced::Vertex, Induced::Edge] {
                let plan = ExecutionPlan::compile(&p, induced);
                let mut listed = 0u64;
                list_plan(&g, &plan, &mut |_| listed += 1);
                assert_eq!(
                    count_plan_with(&g, &plan, &EngineConfig::default()),
                    listed,
                    "fused count vs listing for {p:?} ({induced:?})"
                );
            }
        }
    }

    #[test]
    fn fused_runs_keep_allocation_discipline() {
        // Fusion removes the leaf buffer entirely; what remains must still
        // obey the no-per-embedding-allocation property.
        let g = complete(8);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sink = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink);
        assert_eq!(sink.count, choose(8, 4));
        let before = miner.arena().fresh_buffers();
        let mut sink2 = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink2);
        assert_eq!(sink2.count, sink.count);
        assert_eq!(miner.arena().fresh_buffers(), before);
    }

    #[test]
    fn configs_agree_on_counts() {
        // Bit-identical counts across every kernel-tier configuration.
        let g = erdos_renyi(60, 600, 77);
        for b in Benchmark::ALL {
            let baseline = count_benchmark_with(&g, b, &EngineConfig::without_bitmap());
            for cfg in [
                EngineConfig::default(),
                EngineConfig::with_bitmap_hubs(1),
                EngineConfig::without_count_fusion(),
                EngineConfig::without_simd(),
                EngineConfig {
                    bitmap_hubs: 8,
                    bitmap_cache_slots: 2,
                    ..EngineConfig::default()
                },
                EngineConfig {
                    bitmap_hubs: 0,
                    fuse_terminal_counts: false,
                    ..EngineConfig::default()
                },
                EngineConfig {
                    bitmap_hubs: 0,
                    fuse_terminal_counts: false,
                    simd: false,
                    ..EngineConfig::default()
                },
            ] {
                assert_eq!(
                    count_benchmark_with(&g, b, &cfg).per_pattern,
                    baseline.per_pattern,
                    "{b} under {cfg:?}"
                );
            }
        }
    }
}
