//! Storage layer: named, load-once graphs shared immutably across queries.
//!
//! A [`GraphRegistry`] is built once at daemon startup from `name=spec`
//! pairs, loading each graph exactly once and running top-k hub selection
//! once per graph. Every stored graph is an `Arc<CsrGraph>` plus its
//! precomputed `Arc<HubSet>`; queries clone the `Arc`s (refcount bumps,
//! no copies), so a thousand concurrent queries on the same graph share
//! one CSR and one hub set. The registry itself is immutable after
//! construction — the whole layer is lock-free at query time.

use std::collections::BTreeMap;
use std::sync::Arc;

use fingers_graph::datasets::Dataset;
use fingers_graph::hubs::HubSet;
use fingers_graph::CsrGraph;
use fingers_mining::EngineConfig;

/// Where a graph comes from: the one spec grammar shared by the daemon's
/// `--load`, the CLI's `--graph`, and the soak harness — a file path,
/// `dataset:<abbrev>`, or `gen:<er|pl>:<n>:<m>:<seed>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// A whitespace edge-list file.
    File(String),
    /// A Table 1 stand-in dataset.
    Dataset(Dataset),
    /// `gen:er:<n>:<m>:<seed>` — Erdős–Rényi.
    ErdosRenyi {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// Seed.
        seed: u64,
    },
    /// `gen:pl:<n>:<m>:<seed>` — Chung–Lu power law.
    PowerLaw {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// Seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Parses a spec string.
    ///
    /// # Errors
    ///
    /// A description of why the spec is malformed.
    pub fn parse(spec: &str) -> Result<GraphSpec, String> {
        if let Some(abbrev) = spec.strip_prefix("dataset:") {
            let dataset = Dataset::ALL
                .into_iter()
                .find(|d| {
                    d.abbrev().eq_ignore_ascii_case(abbrev) || d.name().eq_ignore_ascii_case(abbrev)
                })
                .ok_or_else(|| format!("unknown dataset {abbrev:?}"))?;
            return Ok(GraphSpec::Dataset(dataset));
        }
        if let Some(rest) = spec.strip_prefix("gen:") {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 4 {
                return Err(format!(
                    "generator spec {spec:?} must be gen:<er|pl>:<n>:<m>:<seed>"
                ));
            }
            let num = |s: &str, what: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad {what} in {spec:?}"))
            };
            let n = num(parts[1], "vertex count")? as usize;
            let m = num(parts[2], "edge count")? as usize;
            let seed = num(parts[3], "seed")?;
            return match parts[0] {
                "er" => Ok(GraphSpec::ErdosRenyi { n, m, seed }),
                "pl" => Ok(GraphSpec::PowerLaw { n, m, seed }),
                other => Err(format!("unknown generator {other:?}")),
            };
        }
        Ok(GraphSpec::File(spec.to_owned()))
    }

    /// Loads or generates the graph.
    ///
    /// # Errors
    ///
    /// I/O and parse failures for file sources, rendered as text.
    pub fn load(&self) -> Result<CsrGraph, String> {
        match self {
            GraphSpec::File(path) => {
                let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
                fingers_graph::io::read_edge_list(std::io::BufReader::new(file))
                    .map_err(|e| format!("{path}: {e}"))
            }
            GraphSpec::Dataset(d) => Ok(d.load()),
            GraphSpec::ErdosRenyi { n, m, seed } => {
                Ok(fingers_graph::gen::erdos_renyi(*n, *m, *seed))
            }
            GraphSpec::PowerLaw { n, m, seed } => Ok(fingers_graph::gen::chung_lu_power_law(
                &fingers_graph::gen::ChungLuConfig::new(*n, *m, *seed),
            )),
        }
    }
}

/// One resident graph: the shared CSR, its precomputed hub set, and
/// metadata for the stats endpoint.
#[derive(Debug)]
pub struct StoredGraph {
    /// Registry name (protocol `graph` field).
    pub name: String,
    /// The spec the graph was loaded from, as given.
    pub spec: String,
    /// The immutable CSR, shared across every query.
    pub graph: Arc<CsrGraph>,
    /// Hub set for the bitmap kernel tier, identified once at load time
    /// (`None` when the engine config disables the tier).
    pub hubs: Option<Arc<HubSet>>,
}

/// The storage layer: a name → [`StoredGraph`] map, immutable after build.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    graphs: BTreeMap<String, Arc<StoredGraph>>,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `spec` under `name`, precomputing the hub set with `config`'s
    /// hub budget. Replaces any previous graph of the same name.
    ///
    /// # Errors
    ///
    /// The spec parse or load failure, rendered as text.
    pub fn load(&mut self, name: &str, spec: &str, config: &EngineConfig) -> Result<(), String> {
        if name.is_empty() {
            return Err("graph name must be nonempty".into());
        }
        let parsed = GraphSpec::parse(spec)?;
        let graph = Arc::new(parsed.load()?);
        let hubs = config.hub_set(&graph);
        self.graphs.insert(
            name.to_owned(),
            Arc::new(StoredGraph {
                name: name.to_owned(),
                spec: spec.to_owned(),
                graph,
                hubs,
            }),
        );
        Ok(())
    }

    /// The stored graph registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<StoredGraph>> {
        self.graphs.get(name).cloned()
    }

    /// Registered names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.graphs.keys().map(String::as_str)
    }

    /// Every stored graph, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<StoredGraph>> {
        self.graphs.values()
    }

    /// Number of resident graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cli_spec_grammar() {
        assert_eq!(
            GraphSpec::parse("gen:er:100:300:7").expect("er"),
            GraphSpec::ErdosRenyi {
                n: 100,
                m: 300,
                seed: 7
            }
        );
        assert_eq!(
            GraphSpec::parse("gen:pl:50:200:3").expect("pl"),
            GraphSpec::PowerLaw {
                n: 50,
                m: 200,
                seed: 3
            }
        );
        assert_eq!(
            GraphSpec::parse("dataset:Mi").expect("dataset"),
            GraphSpec::Dataset(Dataset::Mico)
        );
        assert_eq!(
            GraphSpec::parse("edges.txt").expect("file"),
            GraphSpec::File("edges.txt".into())
        );
        assert!(GraphSpec::parse("gen:er:100:300").is_err());
        assert!(GraphSpec::parse("gen:zz:1:2:3").is_err());
        assert!(GraphSpec::parse("dataset:Nope").is_err());
    }

    #[test]
    fn registry_loads_once_and_shares() {
        let mut reg = GraphRegistry::new();
        reg.load("g1", "gen:er:100:400:1", &EngineConfig::default())
            .expect("loads");
        assert_eq!(reg.len(), 1);
        let a = reg.get("g1").expect("stored");
        let b = reg.get("g1").expect("stored");
        // Same Arc, not a reload.
        assert!(Arc::ptr_eq(&a.graph, &b.graph));
        assert!(a.hubs.is_some(), "default config precomputes hubs");
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.names().collect::<Vec<_>>(), vec!["g1"]);
    }

    #[test]
    fn registry_respects_bitmap_disabled() {
        let mut reg = GraphRegistry::new();
        reg.load("g", "gen:er:50:100:2", &EngineConfig::without_bitmap())
            .expect("loads");
        assert!(reg.get("g").expect("stored").hubs.is_none());
    }

    #[test]
    fn bad_specs_and_files_are_typed_errors() {
        let mut reg = GraphRegistry::new();
        assert!(reg
            .load("g", "gen:er:1:2", &EngineConfig::default())
            .is_err());
        assert!(reg
            .load("g", "/no/such/file", &EngineConfig::default())
            .is_err());
        assert!(reg
            .load("", "gen:er:1:2:3", &EngineConfig::default())
            .is_err());
        assert!(reg.is_empty());
    }
}
