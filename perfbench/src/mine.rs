//! `mine-*` workloads: one in-process caller making one-shot counts in a
//! closed loop through the entry point `fingers-mine` uses
//! (`try_count_multi_parallel_with`), compiling the plan on every call the
//! way the command line does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fingers_graph::CsrGraph;
use fingers_mining::{
    count_multi_with, try_count_multi_parallel_with, try_count_plan_parallel_shared, CancelToken,
    EngineConfig, EngineError,
};

use crate::config::{engine_config, reference_config, ClassConf, WorkloadConf, SETUP_REPS};
use crate::layers::Probe;
use crate::metrics::timed;
use crate::mix::Mix;
use crate::stats::median;
use crate::tally::{classify_counts, Outcome, Tally};
use crate::trace::Tracer;
use crate::{latency_metrics, RunOptions, RunReport};

/// One one-shot query, untraced: compile, then the `fingers-mine` entry
/// point (which verifies every plan and builds the hub set).
fn one_shot(
    graph: &CsrGraph,
    class: &ClassConf,
    threads: usize,
    engine: &EngineConfig,
) -> Result<Vec<u64>, EngineError> {
    let multi = class.query.compile();
    try_count_multi_parallel_with(graph, &multi, threads, engine).map(|o| o.per_pattern)
}

/// The same query split at its layer boundaries, with a span around each
/// call: compile, verify, hub selection, parallel count. The count call
/// re-verifies internally, so the split path does one extra verification.
fn one_shot_traced(
    graph: &CsrGraph,
    class: &ClassConf,
    threads: usize,
    engine: &EngineConfig,
    tracer: &mut Tracer,
    parent: usize,
    request: u64,
) -> Result<Vec<u64>, EngineError> {
    let multi = tracer.span("pattern.compile", Some(parent), request, || {
        class.query.compile()
    });
    let mut counts = Vec::new();
    for plan in multi.plans() {
        let report = tracer.span("verify.verify", Some(parent), request, || {
            fingers_verify::verify(plan)
        });
        if !report.is_sound() {
            return Err(EngineError::InvalidPlan { report });
        }
        let hubs = tracer.span("graph.hubs", Some(parent), request, || {
            engine.hub_set(graph)
        });
        counts.push(tracer.span("parallel.count", Some(parent), request, || {
            try_count_plan_parallel_shared(graph, plan, threads, engine, hubs, &CancelToken::new())
        })?);
    }
    Ok(counts)
}

/// Latencies of one closed-loop window.
struct Window {
    latencies_ms: Vec<f64>,
    per_class_ms: Vec<Vec<f64>>,
    /// `(queries that ended ok, seconds)` per round.
    rounds: Vec<(usize, f64)>,
    elapsed_s: f64,
}

impl Window {
    /// Median over rounds of the per-round rate: robust to bursts of host
    /// contention, and every round holds the frozen mix exactly.
    fn qps(&self) -> f64 {
        let rates: Vec<f64> = self.rounds.iter().map(|&(n, s)| n as f64 / s).collect();
        median(&rates)
    }
}

/// Runs whole weighted rounds until `seconds` have passed, so every
/// window holds the frozen mix exactly. Only queries that ended ok carry
/// a latency.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    conf: &WorkloadConf,
    graph: &CsrGraph,
    engine: &EngineConfig,
    reference: &[Vec<u64>],
    mix: &mut Mix,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Window {
    let mut window = Window {
        latencies_ms: Vec::new(),
        per_class_ms: vec![Vec::new(); conf.classes.len()],
        rounds: Vec::new(),
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        let round_start = Instant::now();
        let done_before = window.latencies_ms.len();
        for c in mix.next_round() {
            request += 1;
            let class = &conf.classes[c];
            let (result, ms) = match tracer.as_deref_mut() {
                None => timed(|| one_shot(graph, class, conf.threads, engine)),
                Some(t) => {
                    let root = t.begin("query", None, request);
                    let out = timed(|| {
                        one_shot_traced(graph, class, conf.threads, engine, t, root, request)
                    });
                    t.end(root);
                    out
                }
            };
            let outcome = match result {
                Ok(counts) => classify_counts(&reference[c], counts),
                Err(e) => Outcome::Failed(e.to_string()),
            };
            if outcome == Outcome::Ok {
                window.latencies_ms.push(ms);
                window.per_class_ms[c].push(ms);
            }
            tally.record(class.name, &outcome);
        }
        window.rounds.push((
            window.latencies_ms.len() - done_before,
            round_start.elapsed().as_secs_f64(),
        ));
    }
    window.elapsed_s = start.elapsed().as_secs_f64();
    window
}

/// Runs a `mine-*` workload.
pub fn run(conf: &WorkloadConf, opts: &RunOptions) -> RunReport {
    let engine = engine_config();
    let mut report = RunReport::default();
    let mut tracer = if opts.trace {
        Tracer::new(Instant::now())
    } else {
        Tracer::off()
    };
    let gconf = &conf.graphs[0];

    // Reference counts first, on a graph of its own: outside set-up and
    // outside the window, and out of the way so the warm-ups run right
    // before the window opens.
    let reference: Vec<Vec<u64>> = {
        let graph = gconf.generate(opts.seed);
        conf.classes
            .iter()
            .map(|c| count_multi_with(&graph, &c.query.compile(), &reference_config()).per_pattern)
            .collect()
    };

    // Set-up, repeated: graph generation plus one warm-up query per class
    // (the one-shot path builds the hub set inside every query).
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let graph = tracer.span("graph.load", None, 0, || gconf.generate(opts.seed));
        let warm: Vec<_> = conf
            .classes
            .iter()
            .map(|c| {
                tracer.span("warmup", None, 0, || {
                    one_shot(&graph, c, conf.threads, &engine)
                })
            })
            .collect();
        setups.push(start.elapsed().as_secs_f64());
        last = Some((graph, warm));
    }
    let Some((graph, warm)) = last else {
        unreachable!("SETUP_REPS > 0")
    };
    for ((c, w), want) in conf.classes.iter().zip(warm).zip(&reference) {
        let outcome = match w {
            Ok(counts) => classify_counts(want, counts),
            Err(e) => Outcome::Failed(e.to_string()),
        };
        report.tally.record(&format!("warmup {}", c.name), &outcome);
    }
    report.info.push((
        "reference_counts".into(),
        crate::counts_json(conf, &reference),
    ));

    let mut mix = Mix::new(&conf.weights(), opts.seed);
    let metrics = &mut report.metrics;
    metrics.set("setup_s", median(&setups), "s");
    if !opts.trace {
        let w = closed_loop(
            conf,
            &graph,
            &engine,
            &reference,
            &mut mix,
            opts.seconds,
            None,
            &mut report.tally,
        );
        metrics.set("qps", w.qps(), "1/s");
        report.info.push((
            "round_s".into(),
            fingers_server::Json::Arr(
                w.rounds
                    .iter()
                    .map(|&(_, s)| fingers_server::Json::F64(s))
                    .collect(),
            ),
        ));
        latency_metrics(metrics, &mut report.info, "latency_ms", &w.latencies_ms);
        for (c, lat) in conf.classes.iter().zip(&w.per_class_ms) {
            latency_metrics(
                metrics,
                &mut report.info,
                &format!("class_ms.{}", c.name),
                lat,
            );
        }
        match crate::vm_hwm_mb("self") {
            Some(mb) => metrics.set("peak_rss_mb", mb, "MiB"),
            None => report.failures.push("cannot read VmHWM".into()),
        }
        metrics.set("error_rate", report.tally.error_rate(), "share");
    } else {
        // Quarters untraced, traced, traced, untraced: the qps gap is the
        // tracing overhead, with linear drift of the host cancelled.
        let mut done = [(0usize, 0.0f64); 2];
        for traced in crate::TRACE_ORDER {
            let w = closed_loop(
                conf,
                &graph,
                &engine,
                &reference,
                &mut mix,
                opts.seconds / 4.0,
                traced.then_some(&mut tracer),
                &mut report.tally,
            );
            let slot = &mut done[usize::from(traced)];
            slot.0 += w.latencies_ms.len();
            slot.1 += w.elapsed_s;
        }
        let qps = |(n, s): (usize, f64)| n as f64 / s;
        crate::overhead_metrics(metrics, qps(done[0]), qps(done[1]));
        let graphs = [Arc::new(graph)];
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
    report
}
