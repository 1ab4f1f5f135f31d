//! `serve-mixed`: a real `fingers-mine serve` daemon driven by closed-loop
//! connections, each sending its next request only after the previous
//! reply arrived.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fingers_graph::CsrGraph;
use fingers_mining::{count_multi_with, try_count_multi_parallel_with};
use fingers_server::{request_line, Client, Json};

use crate::config::{engine_config, reference_config, WorkloadConf, SETUP_REPS};
use crate::layers::Probe;
use crate::metrics::{timed, Metrics};
use crate::stats::{median, percentile, sorted};
use crate::tally::{classify_counts, classify_response, Outcome, Tally};
use crate::trace::Tracer;
use crate::{latency_metrics, RunOptions, RunReport};

/// How long the daemon may take to answer its first `ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the daemon may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// `ping` round trips timed by the traced run.
const PINGS: usize = 401;

/// A spawned daemon; killed and reaped on drop if still running.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `fingers-mine serve` on `socket` with the workload's graphs
    /// and waits until `ping` answers `ok`.
    fn start(bin: &Path, socket: &Path, conf: &WorkloadConf, seed: u64) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg("--socket").arg(socket);
        for g in &conf.graphs {
            cmd.arg("--load")
                .arg(format!("{}={}", g.name, g.spec(seed)));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_owned(),
        };
        let start = Instant::now();
        loop {
            if let Ok(line) = request_line(socket, r#"{"op":"ping"}"#) {
                if Json::parse(&line)
                    .ok()
                    .and_then(|v| v.get("status").and_then(Json::as_str).map(str::to_owned))
                    .as_deref()
                    == Some("ok")
                {
                    return Ok(daemon);
                }
            }
            if let Some(child) = daemon.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    daemon.child = None;
                    return Err(format!("daemon exited before it was ready: {status}"));
                }
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("daemon did not answer ping in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Sends `shutdown` and waits for the exit; `Err` unless it exits 0.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = request_line(&self.socket, r#"{"op":"shutdown"}"#);
        let Some(mut child) = self.child.take() else {
            return Err("daemon already gone".into());
        };
        let start = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon did not exit after shutdown ({reply:?})"));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Sample {
    class: usize,
    rtt_ms: f64,
    wall_ms: Option<f64>,
}

/// The closed-loop window: every request's outcome and timings.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    tally: Tally,
    elapsed_s: f64,
    tracer: Tracer,
}

impl Window {
    fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s
    }

    /// Adds `other`'s requests, time and spans to this window.
    fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.tally.merge(other.tally);
        self.elapsed_s += other.elapsed_s;
        self.tracer.absorb(other.tracer);
    }
}

/// Runs `conf.connections` closed-loop connections for `seconds`; classes
/// are handed out round-robin from a shared counter starting at `first`.
/// With `trace_origin`, every request is traced on that clock.
fn closed_loop(
    conf: &WorkloadConf,
    socket: &Path,
    reference: &[Vec<u64>],
    first: u64,
    seconds: f64,
    trace_origin: Option<Instant>,
) -> Window {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let lines: Vec<String> = conf
        .classes
        .iter()
        .map(|c| c.query.request_line(conf.graphs[c.graph].name))
        .collect();
    let threads: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conf.connections)
            .map(|conn| {
                let (next, lines) = (&next, &lines);
                scope.spawn(move || {
                    let mut w = Window {
                        tracer: trace_origin.map_or_else(Tracer::off, Tracer::new),
                        ..Window::default()
                    };
                    let tracer = &mut w.tracer;
                    let mut client = match Client::connect(socket) {
                        Ok(c) => c,
                        Err(e) => {
                            w.tally
                                .record(&format!("connection {conn}"), &Outcome::Failed(e));
                            return w;
                        }
                    };
                    while start.elapsed() < deadline {
                        // ord: relaxed(ticket counter; no data is published through it)
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        let class = (ticket % lines.len() as u64) as usize;
                        let root = tracer.begin("request", None, ticket);
                        let (reply, rtt_ms) = timed(|| {
                            tracer.span("daemon.roundtrip", Some(root), ticket, || {
                                client.request(&lines[class])
                            })
                        });
                        let (outcome, wall_ms) = match reply {
                            Ok(line) => tracer.span("proto.decode", Some(root), ticket, || {
                                classify_response(&line, &reference[class])
                            }),
                            Err(e) => (Outcome::Failed(e), None),
                        };
                        tracer.end(root);
                        if outcome == Outcome::Ok {
                            w.samples.push(Sample {
                                class,
                                rtt_ms,
                                wall_ms,
                            });
                        }
                        w.tally.record(conf.classes[class].name, &outcome);
                        // A broken connection stays broken: stop this caller.
                        if matches!(outcome, Outcome::Failed(_)) {
                            break;
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut window = Window {
        elapsed_s: start.elapsed().as_secs_f64(),
        tracer: trace_origin.map_or_else(Tracer::off, Tracer::new),
        ..Window::default()
    };
    for w in threads {
        window.absorb(w);
    }
    window
}

/// Reads the `stats` op into `session.hit_ratio` and `sched.*`.
fn read_stats(socket: &Path, metrics: &mut Metrics) -> Result<(), String> {
    let line = request_line(socket, r#"{"op":"stats"}"#)?;
    let v = Json::parse(&line)?;
    let get = |section: &str, key: &str| {
        v.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats reply lacks {section}.{key}: {line}"))
    };
    let (hits, misses) = (get("plan_cache", "hits")?, get("plan_cache", "misses")?);
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    metrics.set("session.hit_ratio", ratio, "share");
    for key in ["rejected", "failed", "shed", "degraded"] {
        metrics.set(
            format!("sched.{key}"),
            get("scheduler", key)? as f64,
            "count",
        );
    }
    Ok(())
}

/// Adds the per-sample latency metrics of a window.
fn window_metrics(
    conf: &WorkloadConf,
    w: &Window,
    metrics: &mut Metrics,
    info: &mut Vec<(String, Json)>,
) {
    let rtt: Vec<f64> = w.samples.iter().map(|s| s.rtt_ms).collect();
    latency_metrics(metrics, info, "latency_ms", &rtt);
    let wall: Vec<f64> = w.samples.iter().filter_map(|s| s.wall_ms).collect();
    let wall = sorted(&wall);
    metrics.set(
        "daemon.exec_ms.p50",
        percentile(&wall, 50.0).unwrap_or(0.0),
        "ms",
    );
    metrics.set(
        "daemon.exec_ms.p99",
        percentile(&wall, 99.0).unwrap_or(0.0),
        "ms",
    );
    let overhead: Vec<f64> = w
        .samples
        .iter()
        .filter_map(|s| s.wall_ms.map(|wall| s.rtt_ms - wall))
        .collect();
    metrics.set(
        "daemon.overhead_ms.p50",
        percentile(&sorted(&overhead), 50.0).unwrap_or(0.0),
        "ms",
    );
    for (ci, c) in conf.classes.iter().enumerate() {
        let lat: Vec<f64> = w
            .samples
            .iter()
            .filter(|s| s.class == ci)
            .map(|s| s.rtt_ms)
            .collect();
        latency_metrics(metrics, info, &format!("serve.class_ms.{}", c.name), &lat);
    }
}

/// Runs `serve-mixed`.
pub fn run(conf: &WorkloadConf, opts: &RunOptions) -> RunReport {
    let mut report = RunReport::default();
    if let Err(e) = run_inner(conf, opts, &mut report) {
        report.failures.push(e);
    }
    report
}

fn run_inner(conf: &WorkloadConf, opts: &RunOptions, report: &mut RunReport) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let socket = opts
        .out_dir
        .join(format!("serve-{}.sock", std::process::id()));
    let lines: Vec<String> = conf
        .classes
        .iter()
        .map(|c| c.query.request_line(conf.graphs[c.graph].name))
        .collect();

    // References first, outside set-up and the window (so the warm-ups run
    // right before the window opens): the serial engine with every
    // optimisation off, and the one-shot entry point, in-process on
    // identical graphs.
    let engine = engine_config();
    let graphs: Vec<Arc<CsrGraph>> = conf
        .graphs
        .iter()
        .map(|g| Arc::new(g.generate(opts.seed)))
        .collect();
    let mut reference = Vec::new();
    for c in &conf.classes {
        let multi = c.query.compile();
        let graph = &graphs[c.graph];
        let want = count_multi_with(graph, &multi, &reference_config()).per_pattern;
        let one_shot = try_count_multi_parallel_with(graph, &multi, conf.threads, &engine)
            .map(|o| o.per_pattern);
        let outcome = match one_shot {
            Ok(counts) => classify_counts(&want, counts),
            Err(e) => Outcome::Failed(e.to_string()),
        };
        report
            .tally
            .record(&format!("one-shot {}", c.name), &outcome);
        reference.push(want);
    }
    // Set-up, repeated: spawn, load, ping-ready, one warm-up per class.
    // Every daemon but the last is shut down again (and must exit 0).
    let mut setups = Vec::new();
    let mut warm = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let d = Daemon::start(&opts.fingers_mine, &socket, conf, opts.seed)?;
        let mut client = Client::connect(&socket)?;
        warm = lines
            .iter()
            .map(|l| client.request(l))
            .collect::<Result<Vec<_>, _>>()?;
        setups.push(start.elapsed().as_secs_f64());
        drop(client);
        if rep + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let Some(daemon) = daemon else {
        unreachable!("SETUP_REPS > 0")
    };

    for ((c, line), want) in conf.classes.iter().zip(&warm).zip(&reference) {
        let (outcome, _) = classify_response(line, want);
        report.tally.record(&format!("warmup {}", c.name), &outcome);
    }
    report.info.push((
        "reference_counts".into(),
        crate::counts_json(conf, &reference),
    ));
    report.metrics.set("setup_s", median(&setups), "s");

    let first = opts.seed % conf.classes.len() as u64;
    if !opts.trace {
        let w = closed_loop(conf, &socket, &reference, first, opts.seconds, None);
        report.metrics.set("qps", w.qps(), "1/s");
        window_metrics(conf, &w, &mut report.metrics, &mut report.info);
        report.tally.merge(w.tally);
        let hwm = daemon
            .pid()
            .and_then(|pid| crate::vm_hwm_mb(&pid.to_string()))
            .ok_or("cannot read the daemon's VmHWM")?;
        report.metrics.set("peak_rss_mb", hwm, "MiB");
    } else {
        // Quarters untraced, traced, traced, untraced (see mine.rs).
        let origin = Instant::now();
        let mut plain = Window::default();
        let mut traced = Window {
            tracer: Tracer::new(origin),
            ..Window::default()
        };
        for trace in crate::TRACE_ORDER {
            let w = closed_loop(
                conf,
                &socket,
                &reference,
                first,
                opts.seconds / 4.0,
                trace.then_some(origin),
            );
            if trace {
                traced.absorb(w);
            } else {
                plain.absorb(w);
            }
        }
        crate::overhead_metrics(&mut report.metrics, plain.qps(), traced.qps());
        window_metrics(conf, &traced, &mut report.metrics, &mut report.info);
        report.tally.merge(plain.tally);
        report.tally.merge(traced.tally);
        let mut tracer = traced.tracer;

        let mut client = Client::connect(&socket)?;
        let mut pings = Vec::new();
        for _ in 0..PINGS {
            let (reply, ms) =
                timed(|| tracer.span("proto.ping", None, 0, || client.request(r#"{"op":"ping"}"#)));
            reply?;
            pings.push(ms * 1e3);
        }
        drop(client);
        report
            .metrics
            .set("proto.ping_us.p50", median(&pings), "us");
        Probe {
            conf,
            seed: opts.seed,
            graphs: &graphs,
            reference: &reference,
            engine: &engine,
        }
        .run(&mut tracer, &mut report.metrics, &mut report.tally);
        report.tracer = Some(tracer);
    }

    read_stats(&socket, &mut report.metrics)?;
    daemon.shutdown()?;
    report
        .metrics
        .set("error_rate", report.tally.error_rate(), "share");
    Ok(())
}
