//! The frozen workload definitions: graphs, query classes, class weights,
//! connections and threads. Changing anything here changes the benchmark,
//! and must land in a change of its own.

use fingers_graph::gen::{chung_lu_power_law, erdos_renyi, ChungLuConfig};
use fingers_graph::CsrGraph;
use fingers_mining::EngineConfig;
use fingers_pattern::{parse_pattern, Induced, MultiPlan, Pattern};
use fingers_server::Json;

/// The workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["mine-hub", "mine-sparse", "serve-mixed"];

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One in-process caller making one-shot counts back to back.
    OneShot,
    /// Closed-loop connections to a `fingers-mine serve` daemon.
    Daemon,
}

/// A generated graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphConf {
    /// Name (the daemon's registry name on `serve-mixed`).
    pub name: &'static str,
    /// `pl` (Chung–Lu power law) or `er` (Erdős–Rényi).
    pub generator: &'static str,
    /// Vertices.
    pub vertices: usize,
    /// Edges.
    pub edges: usize,
    /// Chung–Lu exponent (`pl` only).
    pub exponent: f64,
}

impl GraphConf {
    /// The daemon's `--load` spec for this graph under `seed`. Only exact
    /// for graphs the spec grammar can express (the default exponent).
    pub fn spec(&self, seed: u64) -> String {
        format!(
            "gen:{}:{}:{}:{seed}",
            self.generator, self.vertices, self.edges
        )
    }

    /// Generates the graph for `seed`.
    pub fn generate(&self, seed: u64) -> CsrGraph {
        match self.generator {
            "pl" => {
                let mut cfg = ChungLuConfig::new(self.vertices, self.edges, seed);
                cfg.exponent = self.exponent;
                chung_lu_power_law(&cfg)
            }
            _ => erdos_renyi(self.vertices, self.edges, seed),
        }
    }

    fn to_json(&self, seed: u64) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("generator", Json::str(self.generator)),
            ("vertices", Json::U64(self.vertices as u64)),
            ("edges", Json::U64(self.edges as u64)),
            ("exponent", Json::F64(self.exponent)),
            ("seed", Json::U64(seed)),
        ])
    }
}

/// What one query of a class asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Vertex-induced counts of these named patterns.
    Count(&'static [&'static str]),
    /// The 3-motif census (triangle + wedge).
    Census,
}

impl Query {
    /// The patterns, in count order.
    pub fn patterns(self) -> Vec<Pattern> {
        let names: &[&str] = match self {
            Query::Count(names) => names,
            Query::Census => &["tc", "wedge"],
        };
        names
            .iter()
            .map(|n| parse_pattern(n).unwrap_or_else(|e| panic!("frozen pattern {n}: {e}")))
            .collect()
    }

    /// Compiles the query the way the one-shot command line does.
    pub fn compile(self) -> MultiPlan {
        match self {
            Query::Census => MultiPlan::three_motif(),
            Query::Count(_) => MultiPlan::new("perfbench", &self.patterns(), Induced::Vertex),
        }
    }

    /// The daemon request line for this query on graph `graph`.
    pub fn request_line(self, graph: &str) -> String {
        match self {
            Query::Census => format!(r#"{{"op":"motif-census","graph":"{graph}"}}"#),
            Query::Count(names) => {
                let list: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
                format!(
                    r#"{{"op":"count","graph":"{graph}","patterns":[{}]}}"#,
                    list.join(",")
                )
            }
        }
    }
}

/// One query class of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassConf {
    /// Metric-safe class name.
    pub name: &'static str,
    /// Index into the workload's graphs.
    pub graph: usize,
    /// The query.
    pub query: Query,
    /// Copies per round of the weighted mix.
    pub weight: u32,
}

/// One frozen workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConf {
    /// Workload name.
    pub name: &'static str,
    /// How queries are issued.
    pub driver: Driver,
    /// Graphs, generated from the workload seed.
    pub graphs: Vec<GraphConf>,
    /// Query classes.
    pub classes: Vec<ClassConf>,
    /// Threads per query.
    pub threads: usize,
    /// Concurrent callers.
    pub connections: usize,
}

/// The Chung–Lu hub graph (`plhub` in the repository's experiments).
const PLHUB: GraphConf = GraphConf {
    name: "plhub",
    generator: "pl",
    vertices: 4000,
    edges: 80_000,
    exponent: 1.9,
};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

impl WorkloadConf {
    /// The frozen definition of workload `name`.
    pub fn named(name: &str) -> Option<WorkloadConf> {
        let class = |name, graph, query, weight| ClassConf {
            name,
            graph,
            query,
            weight,
        };
        Some(match name {
            // Weights give each class roughly an equal share of round time.
            "mine-hub" => WorkloadConf {
                name: "mine-hub",
                driver: Driver::OneShot,
                graphs: vec![PLHUB],
                classes: vec![
                    class("tc", 0, Query::Count(&["tc"]), 25),
                    class("4cl", 0, Query::Count(&["4cl"]), 2),
                    class("dia", 0, Query::Count(&["dia"]), 1),
                ],
                threads: 2,
                connections: 1,
            },
            "mine-sparse" => WorkloadConf {
                name: "mine-sparse",
                driver: Driver::OneShot,
                graphs: vec![GraphConf {
                    name: "er",
                    generator: "er",
                    vertices: 20_000,
                    edges: 100_000,
                    exponent: 0.0,
                }],
                classes: vec![
                    class("tt", 0, Query::Count(&["tt"]), 7),
                    class("cyc", 0, Query::Count(&["cyc"]), 4),
                    class("wedge", 0, Query::Count(&["wedge"]), 12),
                    class("dia", 0, Query::Count(&["dia"]), 14),
                    class("census", 0, Query::Census, 10),
                ],
                threads: 2,
                connections: 1,
            },
            // Equal weights: the connections take classes round-robin.
            "serve-mixed" => WorkloadConf {
                name: "serve-mixed",
                driver: Driver::Daemon,
                graphs: vec![
                    GraphConf {
                        name: "pl",
                        generator: "pl",
                        vertices: 2000,
                        edges: 24_000,
                        exponent: 2.2,
                    },
                    GraphConf {
                        name: "er",
                        generator: "er",
                        vertices: 1500,
                        edges: 9000,
                        exponent: 0.0,
                    },
                ],
                classes: vec![
                    class("wedge_er", 1, Query::Count(&["wedge"]), 1),
                    class("census_er", 1, Query::Census, 1),
                    class("tc_pl", 0, Query::Count(&["tc"]), 1),
                    class("4cl_pl", 0, Query::Count(&["4cl"]), 1),
                    class("tt_pl", 0, Query::Count(&["tt"]), 1),
                ],
                threads: 2,
                connections: 2,
            },
            _ => return None,
        })
    }

    /// Class weights in class order.
    pub fn weights(&self) -> Vec<u32> {
        self.classes.iter().map(|c| c.weight).collect()
    }

    /// The frozen config as JSON, for the run context.
    pub fn to_json(&self, seed: u64) -> Json {
        let classes = self
            .classes
            .iter()
            .map(|c| {
                let patterns = c
                    .query
                    .patterns()
                    .iter()
                    .map(|p| Json::str(p.to_string()))
                    .collect();
                Json::obj([
                    ("name", Json::str(c.name)),
                    ("graph", Json::str(self.graphs[c.graph].name)),
                    ("patterns", Json::Arr(patterns)),
                    ("census", Json::Bool(c.query == Query::Census)),
                    ("weight", Json::U64(u64::from(c.weight))),
                ])
            })
            .collect();
        Json::obj([
            ("name", Json::str(self.name)),
            (
                "driver",
                Json::str(match self.driver {
                    Driver::OneShot => "one-shot closed loop",
                    Driver::Daemon => "daemon closed loop",
                }),
            ),
            (
                "graphs",
                Json::Arr(self.graphs.iter().map(|g| g.to_json(seed)).collect()),
            ),
            ("classes", Json::Arr(classes)),
            ("threads", Json::U64(self.threads as u64)),
            ("connections", Json::U64(self.connections as u64)),
            ("setup_reps", Json::U64(SETUP_REPS as u64)),
        ])
    }
}

/// The engine configuration every measured query runs with.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default()
}

/// The reference path for the correctness gate: the serial engine with
/// the bitmap tier, count fusion, SIMD and work stealing all off.
pub fn reference_config() -> EngineConfig {
    EngineConfig {
        bitmap_hubs: 0,
        fuse_terminal_counts: false,
        simd: false,
        work_stealing: false,
        ..EngineConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_defined_and_compiles() {
        for name in WORKLOADS {
            let w = WorkloadConf::named(name).expect("defined");
            assert_eq!(w.name, name);
            for c in &w.classes {
                assert!(c.graph < w.graphs.len());
                assert!(c.weight > 0);
                assert_eq!(c.query.compile().plans().len(), c.query.patterns().len());
            }
        }
        assert!(WorkloadConf::named("nope").is_none());
    }

    #[test]
    fn request_lines_parse_as_daemon_requests() {
        for c in WorkloadConf::named("serve-mixed").expect("defined").classes {
            let line = c.query.request_line("g");
            assert!(fingers_server::Request::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn serve_graph_specs_match_generation() {
        let w = WorkloadConf::named("serve-mixed").expect("defined");
        for g in &w.graphs {
            let spec = fingers_server::GraphSpec::parse(&g.spec(5)).expect("spec");
            let loaded = spec.load().expect("load");
            assert_eq!(loaded, g.generate(5), "{}", g.name);
        }
    }
}
