//! Replayable reproducer artifacts (`minobs/reproducer/v1`).
//!
//! A [`Reproducer`] is everything needed to re-run a violating
//! execution exactly: the graph (by name), the inputs, the `O_f`
//! contract, and the shrunk omission script. Serialization is
//! deterministic — `serde_json`'s `Map` preserves insertion order and
//! artifacts carry no timestamps — so the same seed produces
//! byte-identical JSON, which CI exploits to pin reproducers.

use minobs_graphs::{generators, DirectedEdge, Graph};
use serde_json::{Map, Value};

/// Schema tag carried by every reproducer artifact.
pub const REPRODUCER_SCHEMA: &str = "minobs/reproducer/v1";

/// The named graphs the harness fuzzes. Names are stable artifact
/// vocabulary: `k2`, `c4`, `h3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSpec {
    /// `K_2`: two nodes, one edge, `c(G) = 1` — the two-process case.
    K2,
    /// `C_4`: the 4-cycle, `c(G) = 2` — the smallest nontrivial cut.
    C4,
    /// `Q_3`: the 3-hypercube, `c(G) = 3`.
    H3,
}

impl GraphSpec {
    /// All named graphs, in artifact-name order.
    pub const ALL: [GraphSpec; 3] = [GraphSpec::K2, GraphSpec::C4, GraphSpec::H3];

    /// The stable artifact name.
    pub fn name(self) -> &'static str {
        match self {
            GraphSpec::K2 => "k2",
            GraphSpec::C4 => "c4",
            GraphSpec::H3 => "h3",
        }
    }

    /// Builds the graph.
    pub fn build(self) -> Graph {
        match self {
            GraphSpec::K2 => generators::complete(2),
            GraphSpec::C4 => generators::cycle(4),
            GraphSpec::H3 => generators::hypercube(3),
        }
    }

    /// Parses an artifact name.
    pub fn parse(s: &str) -> Option<GraphSpec> {
        GraphSpec::ALL.into_iter().find(|g| g.name() == s)
    }
}

impl std::fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A self-contained, replayable counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// The graph the violation occurred on.
    pub graph: GraphSpec,
    /// The fuzzing seed that found it.
    pub seed: u64,
    /// Which run under that seed.
    pub run: usize,
    /// The `O_f` contract in force.
    pub contract_f: usize,
    /// Max rounds the engine ran for.
    pub max_rounds: usize,
    /// Per-node inputs.
    pub inputs: Vec<u64>,
    /// Kind of the violated property (see `Violation::kind`).
    pub violation: String,
    /// The shrunk effective omission script, one arc list per round.
    pub script: Vec<Vec<DirectedEdge>>,
}

impl Reproducer {
    /// Stable artifact file name, derived only from seeded data.
    pub fn file_name(&self) -> String {
        format!(
            "{}_seed{}_run{}_{}.json",
            self.graph.name(),
            self.seed,
            self.run,
            self.violation
        )
    }

    /// Pretty JSON with a trailing newline — the on-disk artifact form.
    pub fn to_json_string(&self) -> String {
        let mut s =
            serde_json::to_string_pretty(&self.to_json()).expect("reproducer JSON never fails");
        s.push('\n');
        s
    }

    /// Parses an artifact produced by [`Reproducer::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Reproducer, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let schema = value
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema")?;
        if schema != REPRODUCER_SCHEMA {
            return Err(format!("schema {schema:?}, expected {REPRODUCER_SCHEMA:?}"));
        }
        let graph_name = value
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("missing graph")?;
        let graph =
            GraphSpec::parse(graph_name).ok_or_else(|| format!("unknown graph {graph_name:?}"))?;
        let field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let inputs = value
            .get("inputs")
            .and_then(Value::as_array)
            .ok_or("missing inputs")?
            .iter()
            .map(|v| v.as_u64().ok_or("non-numeric input"))
            .collect::<Result<Vec<u64>, _>>()?;
        let violation = value
            .get("violation")
            .and_then(Value::as_str)
            .ok_or("missing violation")?
            .to_string();
        let script = value
            .get("script")
            .and_then(Value::as_array)
            .ok_or("missing script")?
            .iter()
            .map(|round| {
                round
                    .as_array()
                    .ok_or("script round is not an array")?
                    .iter()
                    .map(|arc| {
                        let pair = arc.as_array().ok_or("arc is not a pair")?;
                        match pair {
                            [from, to] => Ok(DirectedEdge::new(
                                from.as_u64().ok_or("non-numeric arc endpoint")? as usize,
                                to.as_u64().ok_or("non-numeric arc endpoint")? as usize,
                            )),
                            _ => Err("arc is not a pair"),
                        }
                    })
                    .collect::<Result<Vec<DirectedEdge>, _>>()
            })
            .collect::<Result<Vec<Vec<DirectedEdge>>, _>>()?;
        Ok(Reproducer {
            graph,
            seed: field("seed")?,
            run: field("run")? as usize,
            contract_f: field("contract_f")? as usize,
            max_rounds: field("max_rounds")? as usize,
            inputs,
            violation,
            script,
        })
    }

    /// The artifact as a JSON tree, in on-disk field order.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("schema", Value::from(REPRODUCER_SCHEMA));
        map.insert("graph", Value::from(self.graph.name()));
        map.insert("seed", Value::from(self.seed));
        map.insert("run", Value::from(self.run as u64));
        map.insert("contract_f", Value::from(self.contract_f as u64));
        map.insert("max_rounds", Value::from(self.max_rounds as u64));
        map.insert(
            "inputs",
            Value::Array(self.inputs.iter().map(|&v| Value::from(v)).collect()),
        );
        map.insert("violation", Value::from(self.violation.as_str()));
        map.insert(
            "script",
            Value::Array(
                self.script
                    .iter()
                    .map(|round| {
                        Value::Array(
                            round
                                .iter()
                                .map(|e| {
                                    Value::Array(vec![
                                        Value::from(e.from as u64),
                                        Value::from(e.to as u64),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        );
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reproducer {
        Reproducer {
            graph: GraphSpec::C4,
            seed: 42,
            run: 3,
            contract_f: 1,
            max_rounds: 8,
            inputs: vec![0, 7, 3, 9],
            violation: "budget_exceeded".to_string(),
            script: vec![
                vec![DirectedEdge::new(0, 1), DirectedEdge::new(3, 2)],
                vec![],
                vec![DirectedEdge::new(1, 0)],
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample();
        let text = r.to_json_string();
        assert_eq!(Reproducer::from_json_str(&text), Ok(r));
    }

    #[test]
    fn serialization_is_byte_stable() {
        assert_eq!(sample().to_json_string(), sample().to_json_string());
        assert!(sample().to_json_string().ends_with('\n'));
        assert!(sample()
            .to_json_string()
            .starts_with("{\n  \"schema\": \"minobs/reproducer/v1\""));
    }

    #[test]
    fn rejects_wrong_schema_and_unknown_graph() {
        assert!(Reproducer::from_json_str(r#"{"schema":"other/v1"}"#)
            .unwrap_err()
            .contains("schema"));
        let bad = sample().to_json_string().replace("\"c4\"", "\"k9\"");
        assert!(Reproducer::from_json_str(&bad)
            .unwrap_err()
            .contains("unknown graph"));
    }

    #[test]
    fn graph_spec_names_roundtrip() {
        for spec in GraphSpec::ALL {
            assert_eq!(GraphSpec::parse(spec.name()), Some(spec));
            assert!(spec.build().vertex_count() >= 2);
        }
        assert_eq!(GraphSpec::parse("petersen"), None);
    }
}
