//! Software reference miner for the FINGERS reproduction.
//!
//! Executes compiled pattern-aware execution plans on CSR graphs by plain
//! depth-first search, exactly as the paper's Figure 2 loop nest does. This
//! is (a) the functional oracle every accelerator model is validated
//! against, and (b) the CPU baseline in spirit of AutoMine/GraphZero.
//!
//! The execution layer is task-based:
//!
//! - [`task::MiningTask`] — a contiguous run of level-0 roots, the unit of
//!   (parallel) work;
//! - [`scratch::ScratchArena`] — per-worker recycled candidate-set buffers,
//!   so steady-state mining performs no per-embedding heap allocation;
//! - [`scratch::BitmapCache`] — per-worker LRU of dense hub-adjacency
//!   bitmaps backing the third kernel tier, with the same bounded-allocation
//!   discipline ([`config::EngineConfig`] sizes both the hub set and the
//!   cache);
//! - [`sink::Sink`] — pluggable match consumers (counting, listing,
//!   statistics) over one shared interpreter;
//! - [`PlanMiner`] — the interpreter tying the three together;
//! - [`parallel`] — root-partitioned multi-threaded counting whose results
//!   are bit-identical to the sequential engine. One driver runs every
//!   entry point: [`try_count_plan_parallel_governed`] (hub sharing,
//!   cancellation, memory budget) and its shorter forms
//!   [`try_count_plan_parallel_shared`], [`try_count_plan_parallel_with`]
//!   and [`try_count_multi_parallel_with`] isolate worker panics per task
//!   and surface them as typed [`EngineError`]s carrying the failed root
//!   partitions; the infallible [`count_plan_parallel_with`],
//!   [`count_benchmark_parallel_with`] and [`count_plan_parallel_trace`]
//!   panic on the same errors.
//!
//! The crate also contains a brute-force enumerator ([`brute`]) used to
//! validate the *compiler* itself (vertex orders, schedules, and symmetry
//! breaking) on small graphs; both it and the pattern-oblivious ESU oracle
//! ([`oblivious`]) get the same root-partitioned parallel treatment through
//! [`parallel::sum_over_root_tasks`].
//!
//! # Example
//!
//! ```
//! use fingers_graph::GraphBuilder;
//! use fingers_mining::count_benchmark;
//! use fingers_pattern::benchmarks::Benchmark;
//!
//! // K4 contains exactly 4 triangles and 1 four-clique.
//! let g = GraphBuilder::new()
//!     .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
//!     .build();
//! assert_eq!(count_benchmark(&g, Benchmark::Tc).total(), 4);
//! assert_eq!(count_benchmark(&g, Benchmark::Cl4).total(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod cancel;
pub mod chaos;
pub mod config;
pub mod error;
mod executor;
pub mod gauge;
#[cfg(feature = "model-check")]
pub mod model;
pub mod oblivious;
pub mod parallel;
pub mod scratch;
pub mod sink;
pub mod task;

pub use cancel::{CancelKind, CancelToken};
pub use chaos::{Chaos, ChaosPlan, ChaosSite};
pub use config::EngineConfig;
pub use error::{EngineError, PartitionFailure};
pub use executor::{
    count_benchmark, count_benchmark_with, count_multi, count_multi_with, count_plan,
    count_plan_with, list_plan, MineOutcome, PlanMiner, RunHalt,
};
pub use gauge::{GaugeScope, MemGauge};
pub use parallel::{
    count_benchmark_parallel_with, count_plan_parallel_trace, count_plan_parallel_with,
    try_count_multi_parallel_with, try_count_plan_parallel_governed,
    try_count_plan_parallel_shared, try_count_plan_parallel_with,
};
pub use scratch::{BitmapCache, ScratchArena};
pub use sink::{CountSink, FnSink, ListSink, Sink};
pub use task::MiningTask;
