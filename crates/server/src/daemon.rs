//! The daemon: a Unix-socket line-JSON front end over the four layers.
//!
//! One accept loop, one thread per connection, one request line → one
//! response line, sequentially per connection; clients that want
//! concurrency open more connections. Every request flows registry →
//! session (parse + verify + cache) → scheduler (admission, budget,
//! deadline) → engine, and every failure along that path is a typed
//! response the client can branch on — the daemon itself never dies on a
//! bad query.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fingers_mining::{CancelToken, ChaosSite, EngineConfig};
use fingers_pattern::Induced;

use crate::json::Json;
use crate::proto::{self, CountReport, Request};
use crate::sched::{Job, JobError, Scheduler, SchedulerConfig, SubmitError};
use crate::session::{self, PlanCache, DEFAULT_PLAN_CACHE_CAP};
use crate::storage::GraphRegistry;

/// Everything needed to start a daemon.
#[derive(Debug)]
pub struct DaemonConfig {
    /// Path of the Unix socket to bind (a stale file is replaced).
    pub socket: PathBuf,
    /// `(name, spec)` pairs loaded into the registry before serving.
    pub graphs: Vec<(String, String)>,
    /// Engine configuration shared by every query (hub budget, fusion, and
    /// any fault injector, whose counters then span the daemon's lifetime).
    pub engine: EngineConfig,
    /// Scheduler sizing and policy.
    pub sched: SchedulerConfig,
}

/// Shared state behind every connection thread.
struct ServerState {
    registry: GraphRegistry,
    cache: PlanCache,
    sched: Scheduler,
    socket: PathBuf,
    started: Instant,
    stopping: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    /// Write-half clones of every live connection, force-closed on
    /// shutdown so handler threads blocked in `read_line` wake up and can
    /// be joined — a client that never hangs up must not pin the daemon.
    conns: Mutex<Vec<UnixStream>>,
}

/// Flips the daemon into shutdown: closes every live connection (waking
/// blocked readers) and unblocks the accept loop with a throwaway
/// connection. Idempotent; callable from [`Daemon::shutdown`] or from a
/// connection thread handling a `shutdown` request.
fn initiate_shutdown(state: &ServerState) {
    // ord: seqcst(process-wide one-shot shutdown latch; cold path)
    if state.stopping.swap(true, Ordering::SeqCst) {
        return;
    }
    let conns = state
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for conn in conns.iter() {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    drop(conns);
    let _ = UnixStream::connect(&state.socket);
}

/// A running daemon. Dropping it (or calling [`Daemon::shutdown`] then
/// [`Daemon::wait`]) stops the accept loop, joins every connection
/// thread, and removes the socket file.
pub struct Daemon {
    state: Arc<ServerState>,
    socket: PathBuf,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Loads the configured graphs, binds the socket, and starts serving.
    ///
    /// # Errors
    ///
    /// Graph load failures and socket bind failures, rendered as text.
    pub fn start(config: DaemonConfig) -> Result<Daemon, String> {
        let mut registry = GraphRegistry::new();
        for (name, spec) in &config.graphs {
            registry.load(name, spec, &config.engine)?;
        }
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)
                .map_err(|e| format!("cannot replace stale socket {:?}: {e}", config.socket))?;
        }
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| format!("cannot bind {:?}: {e}", config.socket))?;
        // The plan cache charges its footprint to the scheduler's global
        // gauge, so cached plans and query scratch memory share one budget.
        let sched = Scheduler::new(config.sched);
        let cache = PlanCache::with_limits(DEFAULT_PLAN_CACHE_CAP, Some(sched.gauge().clone()));
        let state = Arc::new(ServerState {
            registry,
            cache,
            sched,
            socket: config.socket.clone(),
            started: Instant::now(),
            stopping: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let engine = config.engine;
        let accept_state = Arc::clone(&state);
        let socket = config.socket.clone();
        let accept = std::thread::spawn(move || {
            accept_loop(&listener, &accept_state, &engine);
        });
        Ok(Daemon {
            state,
            socket,
            accept: Some(accept),
        })
    }

    /// The socket path the daemon is serving on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Initiates shutdown: stops accepting connections, force-closes the
    /// live ones, and (in [`Daemon::wait`]) cancels every registered
    /// query. Idempotent; does not block — call [`Daemon::wait`] to join.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state);
    }

    /// A detached handle that can initiate shutdown from another thread
    /// (the CLI's signal watcher) while [`Daemon::wait`] blocks.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Blocks until the accept loop and every connection thread exit,
    /// then shuts the scheduler down and removes the socket file.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.state.sched.shutdown();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A cloneable trigger for an orderly daemon shutdown, detached from the
/// [`Daemon`] value itself so a signal-watcher thread can hold it while
/// the main thread sits in [`Daemon::wait`].
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Initiates the same orderly shutdown as [`Daemon::shutdown`]:
    /// idempotent, non-blocking.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.state.sched.shutdown();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn accept_loop(listener: &UnixListener, state: &Arc<ServerState>, engine: &EngineConfig) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        // ord: seqcst(pairs with the shutdown latch swap)
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // ord: relaxed(monotonic stats counter)
        state.connections.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            let mut conns = state
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            conns.push(clone);
            // A shutdown that raced this accept has already swept `conns`;
            // close the straggler ourselves so its handler cannot block.
            // ord: seqcst(pairs with the shutdown latch swap)
            if state.stopping.load(Ordering::SeqCst) {
                for conn in conns.iter() {
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        let state = Arc::clone(state);
        let engine = engine.clone();
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, &state, &engine);
        }));
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Serves one connection: read a line, answer a line, until EOF or a
/// shutdown request. I/O failures just end the connection — the client
/// hung up; there is nobody left to tell.
fn handle_connection(stream: UnixStream, state: &Arc<ServerState>, engine: &EngineConfig) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // Chaos probe: a seeded socket-I/O fault drops this connection
        // mid-conversation, exactly like a client yanked the cable. The
        // daemon must shrug — the soak test asserts later queries on
        // fresh connections still succeed. Shut the socket down rather
        // than just dropping it: a write-half clone lives in
        // `state.conns` and would otherwise hold the connection open,
        // leaving the peer blocked in `read_line` instead of seeing EOF.
        if engine
            .chaos
            .as_ref()
            .is_some_and(|chaos| chaos.should_fail(ChaosSite::SocketIo))
        {
            let _ = writer.shutdown(std::net::Shutdown::Both);
            break;
        }
        // ord: relaxed(monotonic stats counter)
        state.requests.fetch_add(1, Ordering::Relaxed);
        let (response, stop_after) = dispatch(state, engine, &line);
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if stop_after {
            initiate_shutdown(state);
            break;
        }
    }
}

/// Routes one parsed request; returns the response line and whether the
/// daemon should stop afterwards.
fn dispatch(state: &Arc<ServerState>, engine: &EngineConfig, line: &str) -> (String, bool) {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(m) => return (proto::error(proto::KIND_BAD_REQUEST, &m), false),
    };
    match request {
        Request::Count {
            id,
            graph,
            patterns,
            threads,
            timeout_ms,
            edge_induced,
            mutate,
        } => {
            let induced = if edge_induced {
                Induced::Edge
            } else {
                Induced::Vertex
            };
            let response = run_count(
                state,
                engine,
                "count",
                id.as_deref(),
                &graph,
                &patterns,
                threads,
                timeout_ms,
                induced,
                mutate.as_deref(),
            );
            (response, false)
        }
        Request::MotifCensus {
            id,
            graph,
            threads,
            timeout_ms,
        } => {
            // The 3-motif census is the triangle + wedge pair; spelling it
            // as pattern specs routes it through the same verified cache.
            let patterns = vec!["tc".to_owned(), "wedge".to_owned()];
            let response = run_count(
                state,
                engine,
                "motif-census",
                id.as_deref(),
                &graph,
                &patterns,
                threads,
                timeout_ms,
                Induced::Vertex,
                None,
            );
            (response, false)
        }
        Request::VerifyPlan {
            pattern,
            edge_induced,
            mutate,
        } => {
            let induced = if edge_induced {
                Induced::Edge
            } else {
                Induced::Vertex
            };
            let response = match session::parse_pattern_spec(&pattern)
                .and_then(|p| session::verified_plan(&state.cache, &p, induced, mutate.as_deref()))
            {
                Ok(plan) => Json::obj([
                    ("status", Json::str("ok")),
                    ("op", Json::str("verify-plan")),
                    ("pattern", Json::str(&pattern)),
                    ("sound", Json::Bool(true)),
                    ("levels", Json::U64(plan.pattern_size() as u64)),
                ])
                .render(),
                Err(e) => proto::session_error(&e),
            };
            (response, false)
        }
        Request::Stats => (stats_response(state), false),
        Request::Ping => (ping_response(state), false),
        Request::Cancel { id } => {
            let found = state.sched.cancel(&id);
            let response = Json::obj([
                ("status", Json::str("ok")),
                ("op", Json::str("cancel")),
                ("id", Json::str(&id)),
                ("found", Json::Bool(found)),
            ])
            .render();
            (response, false)
        }
        Request::Shutdown => {
            let response =
                Json::obj([("status", Json::str("ok")), ("op", Json::str("shutdown"))]).render();
            (response, true)
        }
    }
}

/// The full count path: registry lookup → plan cache → admission →
/// execution → report. Used by both `count` and `motif-census`.
#[allow(clippy::too_many_arguments)]
fn run_count(
    state: &Arc<ServerState>,
    engine: &EngineConfig,
    op: &str,
    id: Option<&str>,
    graph_name: &str,
    patterns: &[String],
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    induced: Induced,
    mutate: Option<&str>,
) -> String {
    let Some(graph) = state.registry.get(graph_name) else {
        return proto::error(
            proto::KIND_UNKNOWN_GRAPH,
            &format!("no graph registered as {graph_name:?}"),
        );
    };
    let mut plans = Vec::with_capacity(patterns.len());
    for spec in patterns {
        let plan = match session::parse_pattern_spec(spec)
            .and_then(|p| session::verified_plan(&state.cache, &p, induced, mutate))
        {
            Ok(plan) => plan,
            Err(e) => return proto::session_error(&e),
        };
        plans.push(plan);
    }
    let timeout = timeout_ms
        .map(Duration::from_millis)
        .or(state.sched.config().default_timeout);
    let token = match timeout {
        Some(t) => CancelToken::with_deadline(t),
        None => CancelToken::new(),
    };
    if let Some(id) = id {
        state.sched.register(id, token.clone());
    }
    let threads = threads.unwrap_or(state.sched.config().max_threads_per_query);
    let job = Job {
        graph: Arc::clone(&graph),
        plans,
        threads,
        cancel: token,
        config: engine.clone(),
    };
    let start = Instant::now();
    let submitted = state.sched.submit(job);
    let result = match submitted {
        Ok(rx) => match rx.recv() {
            Ok(result) => result,
            Err(_) => {
                // Worker vanished without replying (e.g. an injected pool
                // panic): the in-flight query fails typed, the phoenix
                // guard has already respawned the worker, and the socket
                // stays up for the next query.
                if let Some(id) = id {
                    state.sched.unregister(id);
                }
                return proto::error(proto::KIND_ENGINE, "worker dropped the query");
            }
        },
        Err(e) => {
            if let Some(id) = id {
                state.sched.unregister(id);
            }
            return match e {
                SubmitError::Overloaded { retry_after_ms, .. } => {
                    proto::overloaded(&e.to_string(), retry_after_ms)
                }
                SubmitError::ShuttingDown => proto::error(proto::KIND_ENGINE, &e.to_string()),
            };
        }
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(id) = id {
        state.sched.unregister(id);
    }
    match result {
        Ok(counts) => {
            let total = counts.iter().sum();
            let report = CountReport {
                patterns: patterns.to_vec(),
                counts,
                total,
                engine: format!("service(threads={threads})"),
                wall_ms,
            };
            proto::ok_count(op, id, graph_name, &report)
        }
        Err(JobError::Shed { retry_after_ms }) => {
            proto::overloaded("query shed under memory pressure", Some(retry_after_ms))
        }
        Err(JobError::Engine(e)) => proto::engine_error(id, &e),
    }
}

/// The health probe behind the `ping` op: cheap, allocation-light, and
/// honest — readiness scripts poll it instead of sleep-and-hope, and the
/// soak harness reads recovery state (pool rebuilds, degradation rung,
/// gauge baseline) from it between storms.
fn ping_response(state: &Arc<ServerState>) -> String {
    let sched = state.sched.stats();
    let degradation = state.sched.degradation();
    Json::obj([
        ("status", Json::str("ok")),
        ("op", Json::str("ping")),
        (
            "uptime_ms",
            Json::U64(state.started.elapsed().as_millis() as u64),
        ),
        ("gauge_bytes", Json::U64(state.sched.gauge().bytes())),
        (
            "gauge_peak_bytes",
            Json::U64(state.sched.gauge().peak_bytes()),
        ),
        ("degradation", Json::str(degradation.as_str())),
        (
            "degradation_level",
            Json::U64(u64::from(degradation.level())),
        ),
        (
            "pool",
            Json::obj([
                ("workers", Json::U64(state.sched.config().workers as u64)),
                (
                    "rebuilds",
                    // ord: relaxed(observability snapshot; approximate reads are fine)
                    Json::U64(sched.pool_rebuilds.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ])
    .render()
}

/// The stats endpoint: resident graphs, plan-cache counters, scheduler
/// counters, connection totals.
fn stats_response(state: &Arc<ServerState>) -> String {
    let graphs = state
        .registry
        .iter()
        .map(|g| {
            Json::obj([
                ("name", Json::str(&g.name)),
                ("spec", Json::str(&g.spec)),
                ("vertices", Json::U64(g.graph.vertex_count() as u64)),
                ("edges", Json::U64(g.graph.edge_count() as u64)),
                ("hubs", Json::Bool(g.hubs.is_some())),
            ])
        })
        .collect();
    let sched = state.sched.stats();
    Json::obj([
        ("status", Json::str("ok")),
        ("op", Json::str("stats")),
        (
            "uptime_ms",
            Json::U64(state.started.elapsed().as_millis() as u64),
        ),
        ("graphs", Json::Arr(graphs)),
        (
            "plan_cache",
            Json::obj([
                ("entries", Json::U64(state.cache.len() as u64)),
                ("capacity", Json::U64(state.cache.capacity() as u64)),
                ("hits", Json::U64(state.cache.hits())),
                ("misses", Json::U64(state.cache.misses())),
                ("evictions", Json::U64(state.cache.evictions())),
                ("bytes", Json::U64(state.cache.bytes())),
            ]),
        ),
        (
            "memory",
            Json::obj([
                ("gauge_bytes", Json::U64(state.sched.gauge().bytes())),
                (
                    "gauge_peak_bytes",
                    Json::U64(state.sched.gauge().peak_bytes()),
                ),
                ("degradation", Json::str(state.sched.degradation().as_str())),
            ]),
        ),
        (
            "scheduler",
            Json::obj([
                ("workers", Json::U64(state.sched.config().workers as u64)),
                (
                    "queue_depth",
                    Json::U64(state.sched.config().queue_depth as u64),
                ),
                (
                    "accepted",
                    // ord: relaxed(observability snapshot; approximate reads are fine)
                    Json::U64(sched.accepted.load(Ordering::Relaxed)),
                ),
                (
                    "rejected",
                    // ord: relaxed(observability snapshot; approximate reads are fine)
                    Json::U64(sched.rejected.load(Ordering::Relaxed)),
                ),
                (
                    "completed",
                    // ord: relaxed(observability snapshot; approximate reads are fine)
                    Json::U64(sched.completed.load(Ordering::Relaxed)),
                ),
                (
                    "cancelled",
                    // ord: relaxed(observability snapshot; approximate reads are fine)
                    Json::U64(sched.cancelled.load(Ordering::Relaxed)),
                ),
                // ord: relaxed(observability snapshot; approximate reads are fine)
                ("failed", Json::U64(sched.failed.load(Ordering::Relaxed))),
                // ord: relaxed(observability snapshot; approximate reads are fine)
                ("shed", Json::U64(sched.shed.load(Ordering::Relaxed))),
                (
                    "degraded",
                    // ord: relaxed(observability snapshot; approximate reads are fine)
                    Json::U64(sched.degraded.load(Ordering::Relaxed)),
                ),
                (
                    "pool_rebuilds",
                    // ord: relaxed(observability snapshot; approximate reads are fine)
                    Json::U64(sched.pool_rebuilds.load(Ordering::Relaxed)),
                ),
                ("active", Json::U64(state.sched.active_count() as u64)),
            ]),
        ),
        (
            "connections",
            // ord: relaxed(observability snapshot; approximate reads are fine)
            Json::U64(state.connections.load(Ordering::Relaxed)),
        ),
        (
            "requests",
            // ord: relaxed(observability snapshot; approximate reads are fine)
            Json::U64(state.requests.load(Ordering::Relaxed)),
        ),
    ])
    .render()
}
