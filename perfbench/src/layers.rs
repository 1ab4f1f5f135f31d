//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions directly, from the benchmark's own code, on the workload's
//! graphs and classes, and records a span around every call it times.

use std::collections::HashMap;
use std::sync::Arc;

use fingers_graph::hubs::{neighbor_bitmap, HubSet};
use fingers_graph::CsrGraph;
use fingers_mining::{
    count_plan_parallel_trace, try_count_multi_parallel_with, try_count_plan_parallel_shared,
    CancelToken, CountSink, EngineConfig, PlanMiner,
};
use fingers_pattern::Induced;
use fingers_server::PlanCache;
use fingers_setops::adaptive::{select_count_tier_with, KernelTier};
use fingers_setops::bitmap::NeighborBitmap;
use fingers_setops::{bitmap, galloping, merge, simd, SetOpKind};

use crate::config::{ClassConf, WorkloadConf, SETUP_REPS};
use crate::metrics::{timed, Metrics};
use crate::mix::SplitMix64;
use crate::stats::median;
use crate::tally::{classify_counts, Outcome, Tally};
use crate::trace::Tracer;

/// Sampled neighbor-list pairs per graph for the set-op replay.
const SETOP_SAMPLES: usize = 20_000;
/// Repetitions of each timed set-op pass (the median is reported).
const SETOP_REPS: usize = 5;
/// Repetitions of the microsecond-scale compile / verify / session probes.
const MICRO_REPS: usize = 101;
/// A mining probe repeats until it has run this long (at most 5 times).
const MINING_PROBE_MS: f64 = 400.0;

/// Everything a probe needs about the workload under test.
pub struct Probe<'a> {
    /// The frozen workload.
    pub conf: &'a WorkloadConf,
    /// Workload seed.
    pub seed: u64,
    /// The workload's graphs, in config order.
    pub graphs: &'a [Arc<CsrGraph>],
    /// Reference counts per class.
    pub reference: &'a [Vec<u64>],
    /// Engine configuration of the measured queries.
    pub engine: &'a EngineConfig,
}

impl Probe<'_> {
    /// Runs every probe, adding metrics and checking every count.
    pub fn run(&self, tracer: &mut Tracer, metrics: &mut Metrics, tally: &mut Tally) {
        self.graph_layer(tracer, metrics);
        self.plan_layers(tracer, metrics, tally);
        self.setops_layer(tracer, metrics, tally);
        self.mining_layers(tracer, metrics, tally);
    }

    /// Class-weighted mean of a per-class value: the mix's mean per query.
    fn mix_mean(&self, per_class: &[f64]) -> f64 {
        let weights = self.conf.weights();
        let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
        weights
            .iter()
            .zip(per_class)
            .map(|(&w, v)| f64::from(w) * v)
            .sum::<f64>()
            / total
    }

    /// `graph.load_ms`, `graph.hubs_ms` (both summed over the workload's
    /// graphs, median of the set-up repetitions) and the computed
    /// `graph.csr_mb`.
    fn graph_layer(&self, tracer: &mut Tracer, metrics: &mut Metrics) {
        let mut load = Vec::new();
        let mut hubs = Vec::new();
        for _ in 0..SETUP_REPS {
            let (mut l, mut h) = (0.0, 0.0);
            for g in &self.conf.graphs {
                let (graph, ms) =
                    timed(|| tracer.span("graph.load", None, 0, || g.generate(self.seed)));
                l += ms;
                let (_, ms) =
                    timed(|| tracer.span("graph.hubs", None, 0, || self.engine.hub_set(&graph)));
                h += ms;
            }
            load.push(l);
            hubs.push(h);
        }
        metrics.set("graph.load_ms", median(&load), "ms");
        metrics.set("graph.hubs_ms", median(&hubs), "ms");
        let bytes: u64 = self.graphs.iter().map(|g| g.total_bytes()).sum();
        metrics.set("graph.csr_mb", bytes as f64 / (1u64 << 20) as f64, "MiB");
    }

    /// `pattern.compile_us`, `verify.verify_us` and `session.plan_us.*`,
    /// per class and as the mix's mean per query.
    fn plan_layers(&self, tracer: &mut Tracer, metrics: &mut Metrics, tally: &mut Tally) {
        let mut compile = Vec::new();
        let mut verify = Vec::new();
        let mut miss = Vec::new();
        let mut hit = Vec::new();
        for c in &self.conf.classes {
            let samples: Vec<f64> = (0..MICRO_REPS)
                .map(|_| {
                    timed(|| tracer.span("pattern.compile", None, 0, || c.query.compile())).1 * 1e3
                })
                .collect();
            compile.push(median(&samples));
            let multi = c.query.compile();
            let samples: Vec<f64> = (0..MICRO_REPS)
                .map(|_| {
                    let (sound, ms) = timed(|| {
                        tracer.span("verify.verify", None, 0, || {
                            multi
                                .plans()
                                .iter()
                                .all(|p| fingers_verify::verify(p).is_sound())
                        })
                    });
                    if !sound {
                        let e = Outcome::Failed("compiled plan failed verification".into());
                        tally.record(c.name, &e);
                    }
                    ms * 1e3
                })
                .collect();
            verify.push(median(&samples));
            let patterns = c.query.patterns();
            let (mut m, mut h) = (Vec::new(), Vec::new());
            for _ in 0..MICRO_REPS {
                let cache = PlanCache::new();
                let mut lookup = |name| {
                    timed(|| {
                        tracer.span(name, None, 0, || {
                            patterns
                                .iter()
                                .all(|p| cache.plan(p, Induced::Vertex).is_ok())
                        })
                    })
                };
                let (ok_miss, miss_ms) = lookup("session.plan_miss");
                let (ok_hit, hit_ms) = lookup("session.plan_hit");
                if !(ok_miss && ok_hit) {
                    tally.record(c.name, &Outcome::Failed("plan cache rejected it".into()));
                }
                m.push(miss_ms * 1e3);
                h.push(hit_ms * 1e3);
            }
            miss.push(median(&m));
            hit.push(median(&h));
        }
        for (i, c) in self.conf.classes.iter().enumerate() {
            metrics.set(format!("pattern.compile_us.{}", c.name), compile[i], "us");
            metrics.set(format!("verify.verify_us.{}", c.name), verify[i], "us");
        }
        metrics.set("pattern.compile_us", self.mix_mean(&compile), "us");
        metrics.set("verify.verify_us", self.mix_mean(&verify), "us");
        metrics.set("session.plan_us.hit", self.mix_mean(&hit), "us");
        metrics.set("session.plan_us.miss", self.mix_mean(&miss), "us");
    }

    /// Replays a seeded sample of edge pairs `N(u) ∩ N(v)` in count form.
    /// `tier_share.*` is the adaptive selector's choice (residency = hub
    /// membership of the longer list's vertex); `ns_per_elem.*` times each
    /// tier's count kernel on the same sample (bitmap: on the pairs with a
    /// resident operand), per input element of both lists; `ns_per_op` and
    /// `bytes_per_op` follow the selector's choices.
    fn setops_layer(&self, tracer: &mut Tracer, metrics: &mut Metrics, tally: &mut Tally) {
        let mut ops = Vec::new();
        let per_graph = SETOP_SAMPLES / self.graphs.len();
        let mut rng = SplitMix64::new(self.seed ^ 0x5E70_9500);
        let mut bitmaps: Vec<HashMap<u32, NeighborBitmap>> = Vec::new();
        for (gi, graph) in self.graphs.iter().enumerate() {
            let hubs = self.engine.hub_set(graph);
            let edges: Vec<(u32, u32)> = graph.edges().collect();
            let mut maps = HashMap::new();
            for _ in 0..per_graph {
                let (u, v) = edges[rng.below(edges.len())];
                let (short, long) = if graph.degree(u) <= graph.degree(v) {
                    (u, v)
                } else {
                    (v, u)
                };
                let resident = hubs.as_deref().is_some_and(|h: &HubSet| h.contains(long));
                if resident {
                    maps.entry(long)
                        .or_insert_with(|| neighbor_bitmap(graph, long));
                }
                let tier = select_count_tier_with(
                    SetOpKind::Intersect,
                    graph.degree(short),
                    graph.degree(long),
                    resident,
                    self.engine.simd,
                );
                ops.push(SetOp {
                    graph: gi,
                    short,
                    long,
                    resident,
                    tier,
                });
            }
            bitmaps.push(maps);
        }
        let lists = |op: &SetOp| {
            let g = &self.graphs[op.graph];
            (g.neighbors(op.short), g.neighbors(op.long))
        };
        let run = |tier: KernelTier, op: &SetOp| -> u64 {
            let (s, l) = lists(op);
            let kind = SetOpKind::Intersect;
            match tier {
                KernelTier::Merge => merge::count(kind, s, l),
                KernelTier::Galloping => galloping::count(kind, s, l),
                KernelTier::Simd => simd::count(kind, s, l),
                KernelTier::Bitmap => bitmap::count(kind, s, &bitmaps[op.graph][&op.long], l.len()),
            }
        };
        let elems = |op: &SetOp| {
            let (s, l) = lists(op);
            (s.len() + l.len()) as f64
        };
        // Reference counts from the merge kernel; every tier must agree.
        let expected: Vec<u64> = ops.iter().map(|op| run(KernelTier::Merge, op)).collect();
        let tiers = [
            ("merge", KernelTier::Merge),
            ("galloping", KernelTier::Galloping),
            ("simd", KernelTier::Simd),
            ("bitmap", KernelTier::Bitmap),
        ];
        let total = ops.len() as f64;
        for (name, tier) in tiers {
            let picked: Vec<usize> = (0..ops.len())
                .filter(|&i| tier != KernelTier::Bitmap || ops[i].resident)
                .collect();
            let share = ops.iter().filter(|op| op.tier == tier).count() as f64 / total;
            metrics.set(format!("setops.tier_share.{name}"), share, "share");
            let mut times = Vec::new();
            let mut got = Vec::new();
            for _ in 0..SETOP_REPS {
                let (counts, ms) = timed(|| {
                    tracer.span("setops.replay", None, 0, || {
                        picked
                            .iter()
                            .map(|&i| run(tier, &ops[i]))
                            .collect::<Vec<u64>>()
                    })
                });
                times.push(ms);
                got = counts;
            }
            let want: Vec<u64> = picked.iter().map(|&i| expected[i]).collect();
            tally.record(&format!("setops.{name}"), &classify_counts(&want, got));
            let n_elems: f64 = picked.iter().map(|&i| elems(&ops[i])).sum();
            let ns = if n_elems > 0.0 {
                median(&times) * 1e6 / n_elems
            } else {
                0.0
            };
            metrics.set(format!("setops.ns_per_elem.{name}"), ns, "ns");
        }
        let mut times = Vec::new();
        for _ in 0..SETOP_REPS {
            let (sum, ms) = timed(|| {
                tracer.span("setops.replay", None, 0, || {
                    ops.iter().map(|op| run(op.tier, op)).sum::<u64>()
                })
            });
            let want = expected.iter().sum::<u64>();
            tally.record("setops.dispatch", &classify_counts(&[want], vec![sum]));
            times.push(ms);
        }
        metrics.set("setops.ns_per_op", median(&times) * 1e6 / total, "ns");
        let bytes: f64 = ops
            .iter()
            .map(|op| {
                let (s, l) = lists(op);
                bytes_touched(op.tier, s.len(), l.len())
            })
            .sum();
        metrics.set("setops.bytes_per_op", bytes / total, "B");
    }

    /// `executor.serial_ms`, `parallel.{speedup,tasks,imbalance}` per class
    /// and for the mix, plus `parallel.fixed_us`.
    fn mining_layers(&self, tracer: &mut Tracer, metrics: &mut Metrics, tally: &mut Tally) {
        let mut hub_sets = Vec::new();
        for g in self.graphs {
            hub_sets.push(self.engine.hub_set(g));
        }
        let (mut serial, mut parallel, mut tasks, mut imbalance) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (ci, c) in self.conf.classes.iter().enumerate() {
            let graph = &*self.graphs[c.graph];
            let hubs = &hub_sets[c.graph];
            let multi = c.query.compile();
            let expected = &self.reference[ci];
            let s = repeat_ms(|| {
                let counts: Result<Vec<u64>, _> = tracer.span("executor.serial", None, 0, || {
                    multi
                        .plans()
                        .iter()
                        .map(|p| {
                            try_count_plan_parallel_shared(
                                graph,
                                p,
                                1,
                                self.engine,
                                hubs.clone(),
                                &CancelToken::new(),
                            )
                        })
                        .collect()
                });
                record(tally, c, expected, counts.map_err(|e| e.to_string()));
            });
            let p = repeat_ms(|| {
                let counts = tracer.span("parallel.multi", None, 0, || {
                    try_count_multi_parallel_with(graph, &multi, self.conf.threads, self.engine)
                });
                record(
                    tally,
                    c,
                    expected,
                    counts.map(|o| o.per_pattern).map_err(|e| e.to_string()),
                );
            });
            // Critical-path replay: the realized task → worker schedule,
            // re-timed serially per worker so host contention cannot hide
            // the imbalance.
            let mut busy_ms = vec![0.0f64; self.conf.threads];
            let mut per_worker_tasks = vec![0u64; self.conf.threads];
            let mut counts = Vec::new();
            for plan in multi.plans() {
                let (count, trace) = tracer.span("parallel.trace", None, 0, || {
                    count_plan_parallel_trace(graph, plan, self.conf.threads, self.engine)
                });
                counts.push(count);
                for (w, worker_tasks) in trace.iter().enumerate() {
                    let mut miner = PlanMiner::with_hubs(graph, plan, hubs.clone(), self.engine);
                    let mut sink = CountSink::default();
                    let (_, ms) = timed(|| {
                        tracer.span("executor.replay", None, 0, || {
                            for task in worker_tasks {
                                miner.run(task.clone(), &mut sink);
                            }
                        })
                    });
                    busy_ms[w] += ms;
                    per_worker_tasks[w] += worker_tasks.len() as u64;
                }
            }
            record(tally, c, expected, Ok(counts));
            let mean = busy_ms.iter().sum::<f64>() / busy_ms.len() as f64;
            let max = busy_ms.iter().copied().fold(0.0, f64::max);
            let imb = if mean > 0.0 { max / mean } else { 1.0 };
            let name = c.name;
            metrics.set(format!("executor.serial_ms.{name}"), s, "ms");
            metrics.set(format!("parallel.speedup.{name}"), s / p, "x");
            metrics.set(
                format!("parallel.tasks.{name}"),
                per_worker_tasks.iter().sum::<u64>() as f64,
                "count",
            );
            for (w, n) in per_worker_tasks.iter().enumerate() {
                metrics.set(
                    format!("parallel.worker_tasks.{name}.w{w}"),
                    *n as f64,
                    "count",
                );
            }
            metrics.set(format!("parallel.imbalance.{name}"), imb, "x");
            serial.push(s);
            parallel.push(p);
            tasks.push(per_worker_tasks.iter().sum::<u64>() as f64);
            imbalance.push(imb);
        }
        let serial_mix = self.mix_mean(&serial);
        metrics.set("executor.serial_ms", serial_mix, "ms");
        metrics.set(
            "parallel.speedup",
            serial_mix / self.mix_mean(&parallel),
            "x",
        );
        metrics.set("parallel.tasks", self.mix_mean(&tasks), "count");
        // Weighted by each class's share of the mix's serial time.
        let weighted: Vec<f64> = serial.iter().zip(&imbalance).map(|(s, i)| s * i).collect();
        metrics.set(
            "parallel.imbalance",
            self.mix_mean(&weighted) / serial_mix,
            "x",
        );

        // Per-query floor: thread spawn, verify and scratch set-up on a
        // graph too small to mine.
        let tiny = fingers_graph::gen::erdos_renyi(16, 40, self.seed);
        let tc = crate::config::Query::Count(&["tc"]).compile();
        let expected =
            fingers_mining::count_multi_with(&tiny, &tc, &crate::config::reference_config())
                .per_pattern;
        let samples: Vec<f64> = (0..MICRO_REPS * 2)
            .map(|_| {
                let (out, ms) = timed(|| {
                    tracer.span("parallel.fixed", None, 0, || {
                        try_count_multi_parallel_with(&tiny, &tc, self.conf.threads, self.engine)
                    })
                });
                let outcome = match out {
                    Ok(o) => classify_counts(&expected, o.per_pattern),
                    Err(e) => Outcome::Failed(e.to_string()),
                };
                tally.record("parallel.fixed", &outcome);
                ms * 1e3
            })
            .collect();
        metrics.set("parallel.fixed_us", median(&samples), "us");
    }
}

/// One sampled set operation.
struct SetOp {
    graph: usize,
    short: u32,
    long: u32,
    resident: bool,
    tier: KernelTier,
}

/// Computed bytes one count operation touches: 4 B per list element read,
/// 8 B per bitmap word probed. Galloping reads each short element and
/// about `1 + log2(l/s)` long elements per probe.
fn bytes_touched(tier: KernelTier, s: usize, l: usize) -> f64 {
    let (s, l) = (s as f64, l as f64);
    match tier {
        KernelTier::Merge | KernelTier::Simd => 4.0 * (s + l),
        KernelTier::Galloping => 4.0 * s * (2.0 + (l / s.max(1.0)).log2().ceil().max(0.0)),
        KernelTier::Bitmap => 4.0 * s + 8.0 * s,
    }
}

/// Runs `f` until it has taken [`MINING_PROBE_MS`] (1 to 5 times) and
/// returns the median milliseconds.
fn repeat_ms(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < 5 && (samples.is_empty() || spent < MINING_PROBE_MS) {
        let ((), ms) = timed(&mut f);
        spent += ms;
        samples.push(ms);
    }
    median(&samples)
}

fn record(tally: &mut Tally, class: &ClassConf, expected: &[u64], got: Result<Vec<u64>, String>) {
    let outcome = match got {
        Ok(counts) => classify_counts(expected, counts),
        Err(e) => Outcome::Failed(e),
    };
    tally.record(class.name, &outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_bytes_per_tier() {
        assert_eq!(bytes_touched(KernelTier::Merge, 10, 30), 160.0);
        assert_eq!(bytes_touched(KernelTier::Simd, 10, 30), 160.0);
        assert_eq!(bytes_touched(KernelTier::Bitmap, 10, 1000), 120.0);
        // l/s = 32 → 5 probes + 2.
        assert_eq!(
            bytes_touched(KernelTier::Galloping, 4, 128),
            4.0 * 4.0 * 7.0
        );
    }
}
