//! Chaos soak: storm the daemon under seeded fault injection and prove
//! the resource governor's claims (DESIGN.md §15) hold end to end.
//!
//! For each seed in a fixed matrix, an in-process daemon (real Unix
//! socket, global memory budget small enough that the storm walks the
//! degradation ladder) is stormed by retrying client threads while the
//! chaos plan injects allocation failures, mining-worker panics,
//! scheduler-pool panics, and socket drops. The harness then asserts:
//!
//! - **survival** — the daemon answers `ping` after the storm; injected
//!   pool panics were healed by the phoenix guard (rebuild count ≥ the
//!   injected count is reported, never a dead socket);
//! - **no leaked bytes** — once the storm drains, the global gauge is
//!   back to its baseline: exactly the plan cache's footprint, nothing
//!   orphaned by any aborted or panicked query;
//! - **no leaked sockets** — shutdown removes the socket file;
//! - **bit-identical counts** — every successful repetition of a class
//!   returned the same counts as a single-threaded ungoverned run;
//! - **typed budget failures** — a companion daemon with a 1-byte
//!   per-query budget fails a heavy query with the `mem-budget` kind
//!   (client exit 11), never an OOM or a partial count.
//!
//! Recovery latency (a failure on a connection to that client's next
//! success) is reported as a p99 per seed. The raw series lands in
//! `BENCH_soak_chaos.json` under the usual results-directory gating.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fingers_graph::CsrGraph;
use fingers_mining::chaos::{self, Chaos, ChaosPlan, ChaosSite};
use fingers_mining::{try_count_multi_parallel_with, EngineConfig};
use fingers_pattern::{Induced, MultiPlan};
use fingers_server::{Client, Daemon, DaemonConfig, GraphSpec, Json, RetryPolicy, SchedulerConfig};

use crate::report::write_json;

/// The fixed seed matrix: every CI run replays exactly these fault
/// streams (ci.sh runs the same three via `FINGERS_CHAOS_SEED`).
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// How a class's responses are allowed to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Must succeed (chaos failures aside) with the serial counts.
    Ok,
    /// A 1 ms deadline: `cancelled` is the norm, a fast `ok` is legal.
    MostlyCancelled,
    /// Malformed on purpose: always a `bad-request` rejection.
    BadRequest,
}

/// One query class of the storm mix.
struct SoakClass {
    name: &'static str,
    request: &'static str,
    /// Graph + patterns for the serial baseline (`Expect::Ok` only).
    baseline: Option<(&'static str, &'static [&'static str])>,
    expect: Expect,
}

const PL_SPEC: &str = "gen:pl:2000:24000:7";
const ER_SPEC: &str = "gen:er:1500:9000:3";

const CLASSES: [SoakClass; 6] = [
    SoakClass {
        name: "tc@pl",
        request: r#"{"op":"count","graph":"pl","patterns":["tc"],"threads":2}"#,
        baseline: Some(("pl", &["tc"])),
        expect: Expect::Ok,
    },
    SoakClass {
        name: "wedge@er",
        request: r#"{"op":"count","graph":"er","patterns":["wedge"],"threads":2}"#,
        baseline: Some(("er", &["wedge"])),
        expect: Expect::Ok,
    },
    SoakClass {
        name: "census@er",
        request: r#"{"op":"motif-census","graph":"er","threads":2}"#,
        baseline: Some(("er", &["tc", "wedge"])),
        expect: Expect::Ok,
    },
    SoakClass {
        name: "4cl@pl",
        request: r#"{"op":"count","graph":"pl","patterns":["4cl"],"threads":2}"#,
        baseline: Some(("pl", &["4cl"])),
        expect: Expect::Ok,
    },
    SoakClass {
        name: "deadline@pl",
        request: r#"{"op":"count","graph":"pl","patterns":["4cl"],"threads":2,"timeout_ms":1}"#,
        baseline: Some(("pl", &["4cl"])),
        expect: Expect::MostlyCancelled,
    },
    SoakClass {
        name: "bad-pattern",
        request: r#"{"op":"count","graph":"pl","patterns":["zzz"]}"#,
        baseline: None,
        expect: Expect::BadRequest,
    },
];

/// Outcome of one seed's storm.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The chaos seed.
    pub seed: u64,
    /// Requests the clients attempted (including retried lines once).
    pub attempted: usize,
    /// Requests answered `ok` with verified counts.
    pub ok: usize,
    /// Typed failures by response kind (`engine`, `cancelled`, …).
    pub typed_failures: Vec<(String, usize)>,
    /// Connections the chaos plan (or a pool death) severed mid-request.
    pub transport_failures: usize,
    /// Ladder steps the scheduler took during the storm (stat delta).
    pub degradations: u64,
    /// Pool workers the phoenix guard rebuilt.
    pub pool_rebuilds: u64,
    /// Faults the chaos plan actually injected, by site name.
    pub injected: Vec<(&'static str, u64)>,
    /// p99 of failure→next-success latency per client, milliseconds.
    pub recovery_p99_ms: f64,
    /// Global gauge after the storm drained (must equal the baseline).
    pub gauge_final_bytes: u64,
    /// The gauge's baseline: the plan cache's accounted footprint.
    pub gauge_baseline_bytes: u64,
    /// High-water mark the gauge reached during the storm.
    pub gauge_peak_bytes: u64,
    /// Whether the post-storm `ping` answered ok.
    pub survived: bool,
    /// Wall-clock of the storm, milliseconds.
    pub wall_ms: f64,
}

/// The whole experiment: one storm per seed plus the budget probe.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Per-seed outcomes, in `SEEDS` order.
    pub seeds: Vec<SeedOutcome>,
    /// Whether the 1-byte-budget probe failed typed with `mem-budget`.
    pub mem_budget_typed: bool,
}

/// Runs the full seed matrix and writes `BENCH_soak_chaos.json`.
pub fn run(quick: bool) -> String {
    let result = run_soak(quick);
    write_json("BENCH_soak_chaos", &render_json(&result));
    render(&result)
}

/// Storms every seed of the matrix, then runs the budget probe.
pub fn run_soak(quick: bool) -> SoakResult {
    let seeds = SEEDS.iter().map(|&s| run_seed(s, quick)).collect();
    SoakResult {
        seeds,
        mem_budget_typed: mem_budget_probe(),
    }
}

/// Suppresses chaos-injected panic messages (and only those) so a soak's
/// output is the report, not a wall of expected backtraces.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| chaos::is_chaos_panic(s))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| chaos::is_chaos_panic(s))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Serial, ungoverned baseline counts for every `Expect::Ok` class.
// §11: the baseline runs chaos-free on clean generated graphs; a failure
// there is a harness bug the panic-isolated section reports.
#[allow(clippy::expect_used)]
fn baselines() -> Vec<Option<Vec<u64>>> {
    let pl = load(PL_SPEC);
    let er = load(ER_SPEC);
    CLASSES
        .iter()
        .map(|class| {
            class.baseline.map(|(graph, patterns)| {
                let graph = if graph == "pl" { &pl } else { &er };
                let patterns: Vec<_> = patterns
                    .iter()
                    .map(|p| fingers_pattern::parse_pattern(p).expect("soak pattern parses"))
                    .collect();
                let multi = MultiPlan::new("soak", &patterns, Induced::Vertex);
                try_count_multi_parallel_with(graph, &multi, 1, &EngineConfig::default())
                    .expect("serial baseline")
                    .per_pattern
            })
        })
        .collect()
}

// §11: generator specs are compile-time constants; see above.
#[allow(clippy::expect_used)]
fn load(spec: &str) -> CsrGraph {
    GraphSpec::parse(spec)
        .and_then(|s| s.load())
        .expect("soak graph spec loads")
}

/// Storms one seed: start a governed daemon whose engine carries the
/// seed's fault injector, let retrying clients walk the mix, then disarm
/// the injector and verify recovery and drain state.
// §11: a daemon that cannot start or a stats/ping line that does not
// parse is a harness bug the panic-isolated section reports.
#[allow(clippy::expect_used)]
pub fn run_seed(seed: u64, quick: bool) -> SeedOutcome {
    quiet_chaos_panics();
    let clients = if quick { 4 } else { 6 };
    let per_client = if quick { 20 } else { 100 };
    let socket =
        std::env::temp_dir().join(format!("fingers-soak-{seed}-{}.sock", std::process::id()));
    // Rates are per *draw*, and the sites draw at wildly different
    // frequencies (the alloc site thousands of times per query, the socket
    // site once per request), so the per-site cap is what shapes the
    // storm: faults front-load while the cap fills, then the tail of the
    // storm observes recovery and drain.
    let chaos = Chaos::new(ChaosPlan {
        alloc_per_mille: 2,
        worker_panic_per_mille: 5,
        sched_worker_per_mille: 30,
        socket_io_per_mille: 20,
        max_per_site: if quick { 6 } else { 15 },
        ..ChaosPlan::quiet(seed)
    });
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        graphs: vec![
            ("pl".to_owned(), PL_SPEC.to_owned()),
            ("er".to_owned(), ER_SPEC.to_owned()),
        ],
        engine: EngineConfig {
            chaos: Some(Arc::clone(&chaos)),
            ..EngineConfig::default()
        },
        sched: SchedulerConfig {
            workers: 3,
            queue_depth: 16,
            max_threads_per_query: 2,
            // Sized against the storm's observed gauge peak (~0.5 MiB
            // with every class in flight) so concurrent scratch walks the
            // whole ladder — shrink and clamp bands included, not just an
            // instant jump to shed — while drained-state queries still
            // fit comfortably.
            mem_budget: Some(256 * 1024),
            ..SchedulerConfig::default()
        },
    })
    .expect("soak daemon starts");
    let expected = baselines();

    let cursor = Arc::new(AtomicUsize::new(0));
    let cancel = crate::checkpoint::section_token();
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let socket = socket.clone();
            let cursor = Arc::clone(&cursor);
            let cancel = cancel.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                storm_client(c, seed, &socket, &cursor, per_client, &expected, &cancel)
            })
        })
        .collect();
    let mut attempted = 0usize;
    let mut ok = 0usize;
    let mut transport_failures = 0usize;
    let mut typed: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut recoveries: Vec<f64> = Vec::new();
    for handle in handles {
        let s = handle.join().expect("storm client thread");
        attempted += s.attempted;
        ok += s.ok;
        transport_failures += s.transport_failures;
        for (kind, n) in s.typed_failures {
            *typed.entry(kind).or_default() += n;
        }
        recoveries.extend(s.recoveries_ms);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let injected = [
        ChaosSite::Alloc,
        ChaosSite::WorkerPanic,
        ChaosSite::SchedWorker,
        ChaosSite::SocketIo,
    ]
    .map(|site| (site.name(), chaos.injected(site)));
    chaos.disarm();

    // The storm is over and chaos is off: the daemon must answer a fresh
    // connection, and the drained gauge must be exactly the plan cache.
    let (survived, pool_rebuilds, gauge_peak_bytes) = ping(&socket);
    let (gauge_final_bytes, gauge_baseline_bytes, degraded_after) = drained_gauge(&socket);
    assert_eq!(
        gauge_final_bytes, gauge_baseline_bytes,
        "seed {seed}: gauge did not return to the plan-cache baseline"
    );
    daemon.shutdown();
    daemon.wait();
    assert!(
        !socket.exists(),
        "seed {seed}: shutdown leaked the socket file"
    );

    recoveries.sort_by(|a, b| a.partial_cmp(b).expect("finite recovery latencies"));
    SeedOutcome {
        seed,
        attempted,
        ok,
        typed_failures: typed.into_iter().collect(),
        transport_failures,
        // The daemon started fresh, so every ladder step is the storm's.
        degradations: degraded_after,
        pool_rebuilds,
        injected: injected.to_vec(),
        recovery_p99_ms: percentile(&recoveries, 99.0),
        gauge_final_bytes,
        gauge_baseline_bytes,
        gauge_peak_bytes,
        survived,
        wall_ms,
    }
}

/// What one storm client thread observed.
struct ClientSeries {
    attempted: usize,
    ok: usize,
    transport_failures: usize,
    typed_failures: Vec<(String, usize)>,
    recoveries_ms: Vec<f64>,
}

/// One client thread: walk the mix round-robin, retry overloads under a
/// seeded policy, reconnect through chaos-severed sockets, and verify
/// every `ok` against the serial baseline.
// §11: a response that is neither ok nor a typed error kind is a protocol
// bug the panic-isolated section reports.
#[allow(clippy::expect_used)]
fn storm_client(
    client_idx: usize,
    seed: u64,
    socket: &std::path::Path,
    cursor: &AtomicUsize,
    per_client: usize,
    expected: &[Option<Vec<u64>>],
    cancel: &fingers_mining::CancelToken,
) -> ClientSeries {
    let policy = RetryPolicy {
        retries: 3,
        base_ms: 5,
        seed: seed ^ ((client_idx as u64) << 16),
    };
    let mut series = ClientSeries {
        attempted: 0,
        ok: 0,
        transport_failures: 0,
        typed_failures: Vec::new(),
        recoveries_ms: Vec::new(),
    };
    let mut typed: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut conn: Option<Client> = None;
    let mut failed_at: Option<Instant> = None;
    for _ in 0..per_client {
        if cancel.is_cancelled() {
            break; // watchdog abort: partial series is still reported
        }
        // ord: relaxed(pure ticket counter over the workload classes)
        let idx = cursor.fetch_add(1, Ordering::Relaxed) % CLASSES.len();
        let class = &CLASSES[idx];
        series.attempted += 1;
        let client = match conn.take() {
            Some(c) => c,
            None => match Client::connect(socket) {
                Ok(c) => c,
                Err(_) => {
                    // Accept raced a shutdown sweep or the listener was
                    // busy; count it and move on with a fresh attempt.
                    series.transport_failures += 1;
                    failed_at.get_or_insert_with(Instant::now);
                    continue;
                }
            },
        };
        let mut client = client;
        let line = match client.request_with_backoff(class.request, &policy) {
            Ok(line) => {
                conn = Some(client);
                line
            }
            Err(_) => {
                // Chaos dropped the socket mid-request (or the daemon is
                // mid-heal): reconnect on the next iteration.
                series.transport_failures += 1;
                failed_at.get_or_insert_with(Instant::now);
                continue;
            }
        };
        let v = Json::parse(&line).expect("response parses");
        match v.get("status").and_then(Json::as_str) {
            Some("ok") => {
                if let Some(t) = failed_at.take() {
                    series.recoveries_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                assert_ne!(
                    class.expect,
                    Expect::BadRequest,
                    "class {} must never succeed: {line}",
                    class.name
                );
                let counts: Vec<u64> = v
                    .get("counts")
                    .and_then(Json::as_array)
                    .expect("ok count response carries counts")
                    .iter()
                    .map(|n| n.as_u64().expect("count fits u64"))
                    .collect();
                let serial = expected[idx].as_ref().expect("ok class has a baseline");
                assert_eq!(
                    &counts, serial,
                    "seed {seed} class {}: counts diverged from serial",
                    class.name
                );
                series.ok += 1;
            }
            _ => {
                // Error responses carry a `kind`; cancellations spell
                // their verdict in `status` alone.
                let kind = v
                    .get("kind")
                    .and_then(Json::as_str)
                    .or_else(|| v.get("status").and_then(Json::as_str))
                    .unwrap_or_else(|| panic!("untyped failure response: {line}"))
                    .to_owned();
                match class.expect {
                    Expect::BadRequest => {
                        assert_eq!(kind, "bad-request", "class {}: {line}", class.name)
                    }
                    // Anything typed is legal under chaos: cancelled for
                    // the deadline class, engine for injected deaths,
                    // overloaded when retries exhaust under shed.
                    Expect::Ok | Expect::MostlyCancelled => {
                        failed_at.get_or_insert_with(Instant::now);
                    }
                }
                *typed.entry(kind).or_default() += 1;
            }
        }
    }
    series.typed_failures = typed.into_iter().collect();
    series
}

/// `(answered, pool rebuilds, gauge peak)` from one fresh `ping`
/// round-trip; zeros when the daemon is unreachable.
fn ping(socket: &std::path::Path) -> (bool, u64, u64) {
    let Ok(line) = Client::connect(socket).and_then(|mut c| c.request(r#"{"op":"ping"}"#)) else {
        return (false, 0, 0);
    };
    let answered = Json::parse(&line)
        .ok()
        .and_then(|v| v.get("status").and_then(Json::as_str).map(|s| s == "ok"))
        .unwrap_or(false);
    let rebuilds = Json::parse(&line)
        .ok()
        .and_then(|v| {
            v.get("pool")
                .and_then(|p| p.get("rebuilds"))
                .and_then(Json::as_u64)
        })
        .unwrap_or(0);
    let peak = Json::parse(&line)
        .ok()
        .and_then(|v| v.get("gauge_peak_bytes").and_then(Json::as_u64))
        .unwrap_or(0);
    (answered, rebuilds, peak)
}

/// `(gauge bytes, plan-cache bytes, degraded-count)` from `stats` once
/// the storm has drained.
// §11: the daemon survived `ping` just before; a stats line that fails to
// parse here is a protocol bug.
#[allow(clippy::expect_used)]
fn drained_gauge(socket: &std::path::Path) -> (u64, u64, u64) {
    let line = Client::connect(socket)
        .and_then(|mut c| c.request(r#"{"op":"stats"}"#))
        .expect("post-storm stats");
    let v = Json::parse(&line).expect("stats parses");
    let gauge = v
        .get("memory")
        .and_then(|m| m.get("gauge_bytes"))
        .and_then(Json::as_u64)
        .expect("memory.gauge_bytes");
    let cache = v
        .get("plan_cache")
        .and_then(|c| c.get("bytes"))
        .and_then(Json::as_u64)
        .expect("plan_cache.bytes");
    let degraded = v
        .get("scheduler")
        .and_then(|s| s.get("degraded"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    (gauge, cache, degraded)
}

/// The budget probe: a companion daemon whose engine carries a 1-byte
/// per-query budget must fail a heavy query with the `mem-budget` kind
/// (client exit 11) — typed, all-or-nothing, never an OOM.
// §11: see `run_seed`.
#[allow(clippy::expect_used)]
fn mem_budget_probe() -> bool {
    let socket =
        std::env::temp_dir().join(format!("fingers-soak-budget-{}.sock", std::process::id()));
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        graphs: vec![("pl".to_owned(), PL_SPEC.to_owned())],
        engine: EngineConfig {
            query_mem_budget: Some(1),
            ..EngineConfig::default()
        },
        sched: SchedulerConfig {
            workers: 1,
            max_threads_per_query: 2,
            ..SchedulerConfig::default()
        },
    })
    .expect("budget daemon starts");
    let line = Client::connect(&socket)
        .and_then(|mut c| c.request(r#"{"op":"count","graph":"pl","patterns":["4cl"]}"#))
        .expect("budget probe round-trips");
    let v = Json::parse(&line).expect("budget response parses");
    let typed = v.get("kind").and_then(Json::as_str) == Some("mem-budget")
        && fingers_server::proto::exit_code_for_response(&v) == 11;
    daemon.shutdown();
    daemon.wait();
    typed
}

/// The `p`-th percentile of an ascending-sorted series (nearest-rank; 0
/// for an empty series).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn render(r: &SoakResult) -> String {
    let mut out = String::from(
        "## Chaos soak — seeded fault injection against the governed daemon\n\n\
         Each seed storms the daemon (3 workers, 256 KiB global budget) with \
         retrying clients while the chaos plan injects allocation failures, \
         worker panics, scheduler-pool panics, and socket drops. Every \
         successful query returned counts bit-identical to a serial \
         ungoverned run; after every storm the global gauge drained back to \
         exactly the plan cache's footprint and shutdown removed the \
         socket.\n\n\
         | seed | attempted | ok | typed failures | transport | degradations \
         | pool rebuilds | recovery p99 ms | gauge drained |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for s in &r.seeds {
        let typed: usize = s.typed_failures.iter().map(|(_, n)| n).sum();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {} B |\n",
            s.seed,
            s.attempted,
            s.ok,
            typed,
            s.transport_failures,
            s.degradations,
            s.pool_rebuilds,
            s.recovery_p99_ms,
            s.gauge_final_bytes,
        ));
    }
    out.push_str(&format!(
        "\n- per-query budget probe: a 1-byte budget failed a 4-clique query \
         typed (`mem-budget`, exit 11): {}\n\
         - every daemon survived its storm and answered `ping` afterwards: {}\n",
        if r.mem_budget_typed { "yes" } else { "NO" },
        if r.seeds.iter().all(|s| s.survived) {
            "yes"
        } else {
            "NO"
        },
    ));
    out
}

/// Renders the soak as a JSON document.
fn render_json(r: &SoakResult) -> String {
    let mut out = format!(
        "{{\n  \"mem_budget_typed\": {},\n  \"seeds\": [\n",
        r.mem_budget_typed
    );
    for (i, s) in r.seeds.iter().enumerate() {
        let typed = s
            .typed_failures
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let injected = s
            .injected
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"seed\": {}, \"attempted\": {}, \"ok\": {}, \
             \"typed_failures\": {{{typed}}}, \"transport_failures\": {}, \
             \"degradations\": {}, \"pool_rebuilds\": {}, \
             \"injected\": {{{injected}}}, \"recovery_p99_ms\": {:.3}, \
             \"gauge_final_bytes\": {}, \"gauge_baseline_bytes\": {}, \
             \"gauge_peak_bytes\": {}, \"survived\": {}, \"wall_ms\": {:.3}}}{}\n",
            s.seed,
            s.attempted,
            s.ok,
            s.transport_failures,
            s.degradations,
            s.pool_rebuilds,
            s.recovery_p99_ms,
            s.gauge_final_bytes,
            s.gauge_baseline_bytes,
            s.gauge_peak_bytes,
            s.survived,
            s.wall_ms,
            if i + 1 == r.seeds.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn json_document_is_well_formed() {
        let r = SoakResult {
            seeds: vec![SeedOutcome {
                seed: 11,
                attempted: 80,
                ok: 60,
                typed_failures: vec![("cancelled".into(), 10), ("engine".into(), 4)],
                transport_failures: 6,
                degradations: 3,
                pool_rebuilds: 2,
                injected: vec![("alloc", 1), ("sched-worker", 2)],
                recovery_p99_ms: 12.5,
                gauge_final_bytes: 4096,
                gauge_baseline_bytes: 4096,
                gauge_peak_bytes: 65536,
                survived: true,
                wall_ms: 900.0,
            }],
            mem_budget_typed: true,
        };
        let j = render_json(&r);
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\"mem_budget_typed\": true"));
        assert!(j.contains("\"cancelled\": 10"));
        assert!(j.contains("\"sched-worker\": 2"));
        assert!(j.contains("\"survived\": true"));
        let m = render(&r);
        assert!(m.contains("| 11 | 80 | 60 |"));
        assert!(m.contains("exit 11"));
    }

    /// The real soak (quick sizing, first seed only) — also exercised with
    /// the full matrix by `run_all` and the dedicated chaos test binary.
    #[test]
    fn quick_storm_survives_and_drains() {
        let s = run_seed(SEEDS[0], true);
        assert!(s.survived, "daemon died during the storm");
        assert!(s.ok > 0, "no query survived chaos");
        assert_eq!(s.gauge_final_bytes, s.gauge_baseline_bytes);
        assert!(s.attempted >= s.ok);
    }

    #[test]
    fn budget_probe_is_typed() {
        assert!(mem_budget_probe(), "mem-budget failure was not typed");
    }
}
