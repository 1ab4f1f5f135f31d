//! Deterministic seeded fault injection for robustness testing.
//!
//! The self-healing claims of the service layer (worker pools that rebuild
//! after panics, budgets that abort instead of OOM-ing, sockets that close
//! cleanly) are only credible if they are *exercised*. This module plants
//! cheap fault points at the places real failures originate —
//!
//! - [`ChaosSite::Alloc`]: fresh scratch/bitmap allocations (a simulated
//!   allocation failure panics, which the engine's per-task isolation
//!   converts into a typed [`crate::EngineError::WorkerPanic`]);
//! - [`ChaosSite::WorkerPanic`]: an engine worker dying mid-task;
//! - [`ChaosSite::SchedWorker`]: a scheduler pool worker dying outside the
//!   engine (exercises the supervisor's pool rebuild);
//! - [`ChaosSite::SocketIo`]: a connection handler dropping a live socket
//!   mid-request (clients see a transport failure, never a hang)
//!
//! — and drives them from one seeded plan. Decisions are pure functions of
//! `(seed, site, draw index)`: for a fixed seed, the multiset of faults
//! injected over the first N draws at a site is exactly reproducible, so a
//! chaos soak that passes once passes every time (which faults land on
//! which query still varies with thread interleaving — that is the point
//! of a soak).
//!
//! A plan belongs to one run: [`Chaos::new`] wraps it with its own draw
//! and injection counters, and the run carries that value in
//! [`crate::EngineConfig::chaos`] to every probe it reaches (the
//! worker-panic site in the parallel driver, the alloc sites in each
//! worker's scratch arena and bitmap cache, the scheduler worker that
//! dequeues the run's job, the daemon connection that serves it). A
//! daemon whose `DaemonConfig::engine` carries a plan shares it across
//! every query it serves, so there the run is the daemon's lifetime. Draw
//! order is therefore a property of the run, and two runs in one process
//! never fault each other. With `chaos: None` — the default — no probe
//! draws at all. Injected panics carry the [`CHAOS_PANIC_PREFIX`] marker
//! so harnesses can tell injected faults from real bugs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Marker prefixing every chaos-injected panic message.
pub const CHAOS_PANIC_PREFIX: &str = "chaos:";

/// A fault-injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// Fresh heap allocation in the scratch arena / bitmap cache.
    Alloc,
    /// Engine mining worker, per claimed task.
    WorkerPanic,
    /// Scheduler pool worker, per dequeued job.
    SchedWorker,
    /// Server connection handler, per protocol request.
    SocketIo,
}

const SITES: usize = 4;

impl ChaosSite {
    fn index(self) -> usize {
        match self {
            ChaosSite::Alloc => 0,
            ChaosSite::WorkerPanic => 1,
            ChaosSite::SchedWorker => 2,
            ChaosSite::SocketIo => 3,
        }
    }

    /// Human-readable site name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::Alloc => "alloc",
            ChaosSite::WorkerPanic => "worker-panic",
            ChaosSite::SchedWorker => "sched-worker",
            ChaosSite::SocketIo => "socket-io",
        }
    }
}

/// Per-site fault rates in permille (0 = never, 1000 = every draw), plus
/// the seed that makes the draw sequence reproducible.
///
/// Sites draw at wildly different frequencies — an engine probes the
/// alloc site thousands of times per query but the socket site once per
/// request — so a rate alone cannot shape a survivable storm.
/// [`max_per_site`](Self::max_per_site) bounds the total faults any one
/// site injects: the storm front-loads its faults, then the site goes
/// quiet and recovery can actually be observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Permille of fresh allocations that fail.
    pub alloc_per_mille: u32,
    /// Permille of engine tasks whose worker panics.
    pub worker_panic_per_mille: u32,
    /// Permille of scheduled jobs whose pool worker panics.
    pub sched_worker_per_mille: u32,
    /// Permille of protocol requests whose connection is dropped.
    pub socket_io_per_mille: u32,
    /// Ceiling on faults injected per site (`u64::MAX` = unbounded). The
    /// hit *schedule* stays seed-deterministic; under concurrency the cap
    /// admits the first `max_per_site` scheduled hits in draw order.
    pub max_per_site: u64,
}

impl ChaosPlan {
    /// A plan injecting nothing (rates all zero) under `seed` — a base to
    /// build on with struct update syntax.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            alloc_per_mille: 0,
            worker_panic_per_mille: 0,
            sched_worker_per_mille: 0,
            socket_io_per_mille: 0,
            max_per_site: u64::MAX,
        }
    }

    fn rate(&self, site: ChaosSite) -> u32 {
        match site {
            ChaosSite::Alloc => self.alloc_per_mille,
            ChaosSite::WorkerPanic => self.worker_panic_per_mille,
            ChaosSite::SchedWorker => self.sched_worker_per_mille,
            ChaosSite::SocketIo => self.socket_io_per_mille,
        }
    }
}

/// One run's fault injector: an immutable [`ChaosPlan`] plus per-site
/// draw and injection counters and a disarm latch.
///
/// A run owns its `Chaos` through [`crate::EngineConfig::chaos`]; every
/// probe that run reaches draws from this value alone, so concurrent runs
/// in one process never see each other's faults or counters.
#[derive(Debug)]
pub struct Chaos {
    plan: ChaosPlan,
    armed: AtomicBool,
    draws: [AtomicU64; SITES],
    injected: [AtomicU64; SITES],
}

impl Chaos {
    /// An armed injector for `plan` with fresh counters.
    pub fn new(plan: ChaosPlan) -> Arc<Self> {
        Arc::new(Self {
            plan,
            armed: AtomicBool::new(true),
            draws: Default::default(),
            injected: Default::default(),
        })
    }

    /// Turns every later probe into a no-op. A one-way latch: a soak
    /// disarms before it checks recovery, and nothing re-arms.
    pub fn disarm(&self) {
        // ord: relaxed(one-way latch; no data is published through it)
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Faults injected so far at `site`.
    pub fn injected(&self, site: ChaosSite) -> u64 {
        // ord: relaxed(counter read after the run being measured has joined)
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Draws one fault decision at `site`: `true` on the plan's
    /// deterministic per-mille schedule, `false` once disarmed.
    pub fn should_fail(&self, site: ChaosSite) -> bool {
        let rate = self.plan.rate(site);
        // ord: relaxed(one-way latch; no data is published through it)
        if rate == 0 || !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        let i = site.index();
        // ord: relaxed(independent draw ticket; cross-thread draw order is intentionally unspecified)
        let draw = self.draws[i].fetch_add(1, Ordering::Relaxed);
        // Salt the site index in so sites draw independent streams.
        let hit = splitmix64(self.plan.seed ^ ((i as u64) << 56) ^ draw) % 1000 < u64::from(rate);
        if !hit {
            return false;
        }
        // A scheduled hit past the per-site ceiling is withheld (and not
        // counted), so `injected()` never exceeds the cap.
        // ord: relaxed(counter pair; over-reservation is corrected by the fetch_sub below)
        if self.injected[i].fetch_add(1, Ordering::Relaxed) >= self.plan.max_per_site {
            // ord: relaxed(undoes this thread's own reservation)
            self.injected[i].fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Probes the allocation site and panics — simulating the allocation
    /// failure the real allocator would abort on — when the plan says so.
    /// Callers sit under the engine's per-task `catch_unwind`, so the panic
    /// surfaces as a typed [`crate::EngineError::WorkerPanic`], never a crash.
    pub fn maybe_fail_alloc(&self, what: &str) {
        if self.should_fail(ChaosSite::Alloc) {
            panic!("{CHAOS_PANIC_PREFIX} injected allocation failure ({what})");
        }
    }

    /// Probes the engine-worker site and panics when the plan says so.
    pub fn maybe_panic_worker(&self) {
        if self.should_fail(ChaosSite::WorkerPanic) {
            panic!("{CHAOS_PANIC_PREFIX} injected mining-worker panic");
        }
    }

    /// Probes the scheduler-worker site and panics when the plan says so.
    pub fn maybe_panic_sched_worker(&self) {
        if self.should_fail(ChaosSite::SchedWorker) {
            panic!("{CHAOS_PANIC_PREFIX} injected scheduler-worker panic");
        }
    }
}

/// SplitMix64: the standard 64-bit finalizer, statistically strong enough
/// for fault scheduling (and dependency-free).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `message` (a panic payload) is a chaos-injected fault rather
/// than a real bug.
pub fn is_chaos_panic(message: &str) -> bool {
    message.starts_with(CHAOS_PANIC_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_chaos_never_fires() {
        let chaos = Chaos::new(ChaosPlan {
            alloc_per_mille: 1000,
            ..ChaosPlan::quiet(5)
        });
        chaos.disarm();
        for _ in 0..100 {
            assert!(!chaos.should_fail(ChaosSite::Alloc));
        }
        assert_eq!(chaos.injected(ChaosSite::Alloc), 0);
    }

    #[test]
    fn decision_stream_is_seed_deterministic() {
        let plan = ChaosPlan {
            worker_panic_per_mille: 250,
            ..ChaosPlan::quiet(42)
        };
        let stream = |chaos: &Chaos| -> Vec<bool> {
            (0..200)
                .map(|_| chaos.should_fail(ChaosSite::WorkerPanic))
                .collect()
        };
        let first = stream(&Chaos::new(plan));
        let second = stream(&Chaos::new(plan));
        assert_eq!(first, second);
        let hits = first.iter().filter(|h| **h).count();
        assert!(hits > 10 && hits < 100, "250‰ over 200 draws hit {hits}×");
        assert_eq!(Chaos::new(plan).injected(ChaosSite::WorkerPanic), 0);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let chaos = Chaos::new(ChaosPlan {
            alloc_per_mille: 500,
            socket_io_per_mille: 500,
            ..ChaosPlan::quiet(7)
        });
        let a: Vec<bool> = (0..64)
            .map(|_| chaos.should_fail(ChaosSite::Alloc))
            .collect();
        let s: Vec<bool> = (0..64)
            .map(|_| chaos.should_fail(ChaosSite::SocketIo))
            .collect();
        assert_ne!(a, s, "same-rate sites must not fire in lockstep");
    }

    #[test]
    fn injected_panics_carry_the_marker() {
        let chaos = Chaos::new(ChaosPlan {
            worker_panic_per_mille: 1000,
            ..ChaosPlan::quiet(1)
        });
        let payload = std::panic::catch_unwind(|| chaos.maybe_panic_worker())
            .expect_err("1000‰ must fire on every draw");
        let message = crate::error::panic_message(payload);
        assert!(is_chaos_panic(&message), "{message}");
        assert!(!is_chaos_panic("index out of bounds"));
    }

    #[test]
    fn per_site_cap_bounds_injections() {
        let chaos = Chaos::new(ChaosPlan {
            alloc_per_mille: 1000,
            max_per_site: 3,
            ..ChaosPlan::quiet(9)
        });
        let hits = (0..50)
            .filter(|_| chaos.should_fail(ChaosSite::Alloc))
            .count();
        assert_eq!(hits, 3, "cap must stop a 1000‰ site after 3 faults");
        assert_eq!(chaos.injected(ChaosSite::Alloc), 3);
    }

    #[test]
    fn zero_rate_site_never_fires_even_when_armed() {
        let chaos = Chaos::new(ChaosPlan {
            socket_io_per_mille: 1000,
            ..ChaosPlan::quiet(3)
        });
        for _ in 0..50 {
            assert!(!chaos.should_fail(ChaosSite::Alloc));
        }
        assert!(chaos.should_fail(ChaosSite::SocketIo));
    }
}
