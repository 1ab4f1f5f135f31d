//! The repository benchmark: end-to-end and per-layer metrics of the
//! FINGERS software engine and its mining daemon, on three frozen
//! workloads (see `README.md` next to this crate).
//!
//! ```text
//! perfbench --workload <mine-hub|mine-sparse|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --fingers-mine <path> [--out <dir>]
//! ```
//!
//! Prints one `name = value unit` line per metric, then, as the last line,
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Writes
//! the full result (context, every metric, spans and self times) to
//! `<out>/<workload>-seed<n>-trace<t>.json`. Exits 1 when any count
//! differs from its reference or a lifecycle check fails.

mod config;
mod layers;
mod metrics;
mod mine;
mod mix;
mod serve;
mod stats;
mod tally;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use fingers_server::Json;

use config::{Driver, WorkloadConf};
use metrics::Metrics;
use stats::{percentile, samples_beyond, sorted, tail_resolved};
use tally::Tally;
use trace::{self_times, Tracer};

/// The end-to-end metrics every `--trace 0` run prints (BENCHMARK.json's
/// `end_to_end`).
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "qps",
    "latency_ms.p50",
    "latency_ms.p99",
    "peak_rss_mb",
];

/// The per-layer metrics every `--trace 1` run prints (BENCHMARK.json's
/// `per_layer`). Class-level and daemon-only metrics go to the result
/// file.
pub const PER_LAYER: [&str; 24] = [
    "graph.load_ms",
    "graph.hubs_ms",
    "graph.csr_mb",
    "pattern.compile_us",
    "verify.verify_us",
    "setops.tier_share.merge",
    "setops.tier_share.galloping",
    "setops.tier_share.simd",
    "setops.tier_share.bitmap",
    "setops.ns_per_elem.merge",
    "setops.ns_per_elem.galloping",
    "setops.ns_per_elem.simd",
    "setops.ns_per_elem.bitmap",
    "setops.ns_per_op",
    "setops.bytes_per_op",
    "executor.serial_ms",
    "parallel.speedup",
    "parallel.tasks",
    "parallel.imbalance",
    "parallel.fixed_us",
    "session.plan_us.hit",
    "session.plan_us.miss",
    "trace.overhead_pct",
    "trace.qps_traced",
];

/// Which quarters of a traced run's window are traced: untraced, traced,
/// traced, untraced, so a linear drift of the host cancels out of the
/// tracing overhead.
pub const TRACE_ORDER: [bool; 4] = [false, true, true, false];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Workload seed: graphs and the class order derive from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `fingers-mine` binary `serve-mixed` spawns.
    pub fingers_mine: PathBuf,
    /// Where the result file, and the daemon socket, go.
    pub out_dir: PathBuf,
}

impl RunOptions {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<RunOptions, String> {
        let mut opts = RunOptions {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            fingers_mine: PathBuf::from("target/release/fingers-mine"),
            out_dir: PathBuf::from("perfbench/out"),
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => opts.workload = value()?,
                "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                }
                "--trace" => opts.trace = value()? == "1",
                "--fingers-mine" => opts.fingers_mine = value()?.into(),
                "--out" => opts.out_dir = value()?.into(),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(opts)
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct RunReport {
    /// Measured metrics (end-to-end, per-layer, per-class).
    pub metrics: Metrics,
    /// Extra result-file fields (reference counts, sample counts).
    pub info: Vec<(String, Json)>,
    /// Query outcomes.
    pub tally: Tally,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
    /// Lifecycle checks that failed (daemon start or exit, I/O).
    pub failures: Vec<String>,
}

/// Sets `<prefix>.p50` and `<prefix>.p99` (nearest rank) and records the
/// sample count and how many samples lie beyond the p99.
pub fn latency_metrics(
    metrics: &mut Metrics,
    info: &mut Vec<(String, Json)>,
    prefix: &str,
    samples_ms: &[f64],
) {
    let s = sorted(samples_ms);
    metrics.set(
        format!("{prefix}.p50"),
        percentile(&s, 50.0).unwrap_or(0.0),
        "ms",
    );
    metrics.set(
        format!("{prefix}.p99"),
        percentile(&s, 99.0).unwrap_or(0.0),
        "ms",
    );
    info.push((
        format!("{prefix}.samples"),
        Json::obj([
            ("n", Json::U64(s.len() as u64)),
            (
                "beyond_p99",
                Json::U64(samples_beyond(s.len(), 99.0) as u64),
            ),
            ("p99_resolved", Json::Bool(tail_resolved(s.len(), 99.0))),
        ]),
    ));
}

/// Tracing overhead from the untraced and traced halves of a traced run.
pub fn overhead_metrics(metrics: &mut Metrics, plain_qps: f64, traced_qps: f64) {
    metrics.set("trace.qps_untraced", plain_qps, "1/s");
    metrics.set("trace.qps_traced", traced_qps, "1/s");
    metrics.set(
        "trace.overhead_pct",
        100.0 * (plain_qps - traced_qps) / plain_qps,
        "%",
    );
}

/// Reference counts keyed by class name.
pub fn counts_json(conf: &WorkloadConf, reference: &[Vec<u64>]) -> Json {
    Json::Obj(
        conf.classes
            .iter()
            .zip(reference)
            .map(|(c, r)| {
                (
                    c.name.to_owned(),
                    Json::Arr(r.iter().map(|&n| Json::U64(n)).collect()),
                )
            })
            .collect(),
    )
}

/// Peak resident set (`VmHWM`) of `/proc/<pid>` in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over the engine's sources, so runs of a checkout without git
/// metadata can still be told apart.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn git_revision() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn context(conf: &WorkloadConf, opts: &RunOptions) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("workload", Json::str(conf.name)),
        ("seed", Json::U64(opts.seed)),
        ("seconds", Json::F64(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::U64(nproc as u64)),
        ("simd", Json::Bool(fingers_setops::simd::available())),
        ("rev", git_revision().map_or(Json::Null, Json::Str)),
        ("source_hash", Json::str(source_hash())),
        ("config", conf.to_json(opts.seed)),
    ])
}

fn main() -> ExitCode {
    let opts = match RunOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(conf) = WorkloadConf::named(&opts.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            opts.workload,
            config::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let report = match conf.driver {
        Driver::OneShot => mine::run(&conf, &opts),
        Driver::Daemon => serve::run(&conf, &opts),
    };

    let ctx = context(&conf, &opts);
    println!("context {}", ctx.render());
    for (name, value, unit) in report.metrics.iter() {
        println!("{name} = {value} {unit}");
    }
    let t = &report.tally;
    println!(
        "queries: {} attempted, {} ok, {} refused, {} failed, {} wrong (error_rate {})",
        t.attempted,
        t.ok,
        t.refused,
        t.failed,
        t.wrong,
        t.error_rate()
    );
    for note in t.notes.iter().chain(&report.failures) {
        println!("problem: {note}");
    }

    let mut file = vec![
        ("context".to_owned(), ctx),
        (
            "metrics".to_owned(),
            report.metrics.to_json(None).unwrap_or(Json::Null),
        ),
        (
            "tally".to_owned(),
            Json::obj([
                ("attempted", Json::U64(t.attempted)),
                ("ok", Json::U64(t.ok)),
                ("refused", Json::U64(t.refused)),
                ("failed", Json::U64(t.failed)),
                ("wrong", Json::U64(t.wrong)),
                ("error_rate", Json::F64(t.error_rate())),
            ]),
        ),
    ];
    file.extend(report.info.clone());
    if let Some(tracer) = &report.tracer {
        let layers = self_times(tracer.spans())
            .into_iter()
            .map(|(name, lt)| {
                (
                    name.to_owned(),
                    Json::obj([
                        ("calls", Json::U64(lt.calls)),
                        ("total_ms", Json::F64(lt.total_ns as f64 / 1e6)),
                        ("self_ms", Json::F64(lt.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        file.push(("self_time".to_owned(), Json::Obj(layers)));
        file.push(("spans".to_owned(), tracer.to_json()));
    }
    let path = opts.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        conf.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(file).render()));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("result file: {}", path.display());

    let names: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match report.metrics.to_json(Some(names)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            for f in &report.failures {
                eprintln!("perfbench: {f}");
            }
            return ExitCode::from(1);
        }
    };
    let correct = t.wrong == 0 && report.failures.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(t.attempted)),
            ("failed", Json::U64(t.not_ok())),
            ("metrics", metrics),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here are exactly BENCHMARK.json's.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), config::WORKLOADS);
    }

    #[test]
    fn options_parse() {
        let args = "--workload mine-hub --seed 4 --seconds 2.5 --trace 1 --out x"
            .split(' ')
            .map(String::from);
        let o = RunOptions::parse(args).expect("valid");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("mine-hub", 4, 2.5, true)
        );
        assert_eq!(o.out_dir, PathBuf::from("x"));
        assert!(RunOptions::parse(["--bogus".to_owned()].into_iter()).is_err());
        assert!(RunOptions::parse(["--seconds".to_owned(), "0".to_owned()].into_iter()).is_err());
    }
}
