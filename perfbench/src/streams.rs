//! The request streams of the serving workloads, and what each answer
//! must be.
//!
//! `hit` repeats the three pinned requests of the daemon bench's mix, so
//! after priming every answer comes from the verdict cache. `miss` sends
//! specs the daemon has never seen: every spec is deduplicated by the
//! cache key its method looks up, so no request can be an exact hit or a
//! subsumption, and the warm log's keys come from the same deduplicated
//! sequence, so they are disjoint from the stream.

use minobs_core::prelude::*;
use minobs_graphs::{edge_connectivity, generators};
use minobs_svc::spec::{parse_alphabet, ParsedScheme};
use minobs_svc::wal::{WalRecord, MAGIC};
use minobs_synth::checker::Budget;
use serde_json::{Map, Value};
use std::collections::{BTreeMap, HashSet};

/// One request of a stream.
pub struct Op {
    /// RPC method.
    pub method: &'static str,
    /// Its params object.
    pub params: Value,
    /// What the answer must be.
    pub expect: Expect,
}

/// What an answer must be.
pub enum Expect {
    /// Exactly this `result` object (pinned at setup).
    Exact(Value),
    /// A fresh, definite verdict — and this one, where the paper fixes it.
    Fresh(Option<Verdict>),
}

/// The verdict an answer states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `solvable`, `check_horizon`, `net_solvable`.
    Solvable(bool),
    /// `first_horizon`: the first solvable horizon, if any within the sweep.
    FirstHorizon(Option<usize>),
}

/// The verdict a `result` object states, if it states a definite one.
pub fn verdict_of(method: &str, result: &Value) -> Option<Verdict> {
    if method == "first_horizon" {
        return match result.get("outcome")?.as_str()? {
            "solvable" => Some(Verdict::FirstHorizon(Some(
                result.get("horizon")?.as_u64()? as usize,
            ))),
            "unsolvable_within" => Some(Verdict::FirstHorizon(None)),
            _ => None,
        };
    }
    result.get("solvable")?.as_bool().map(Verdict::Solvable)
}

impl Op {
    /// Whether `result` is an acceptable answer to this request.
    pub fn accepts(&self, result: &Value) -> bool {
        match &self.expect {
            Expect::Exact(want) => result == want,
            Expect::Fresh(oracle) => {
                // A fresh key can only be answered by running the checker.
                let fresh = result.get("cached").and_then(Value::as_bool) != Some(true);
                let verdict = verdict_of(self.method, result);
                fresh && verdict.is_some() && oracle.is_none_or(|want| verdict == Some(want))
            }
        }
    }
}

/// The verdict of `method` on `params`, computed in-process by the
/// decision procedure, the checker, or the graph code — the oracle the
/// daemon's answers are compared against.
pub fn in_process_verdict(method: &str, params: &Value) -> Result<Verdict, String> {
    if method == "net_solvable" {
        let desc = params
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("no graph")?;
        let f = params.get("f").and_then(Value::as_u64).ok_or("no f")?;
        let graph = generators::parse(desc)?;
        return Ok(Verdict::Solvable(f < edge_connectivity(&graph) as u64));
    }
    let scheme = ParsedScheme::parse(params.get("scheme").unwrap_or(&Value::Null))?;
    if method == "solvable" {
        let decided = scheme.decide()?;
        return Ok(Verdict::Solvable(matches!(
            decided,
            Solvability::Solvable { .. }
        )));
    }
    let alphabet = parse_alphabet(params, &scheme)?;
    let field = if method == "check_horizon" {
        "horizon"
    } else {
        "max_horizon"
    };
    let top = params
        .get(field)
        .and_then(Value::as_u64)
        .ok_or("no horizon")? as usize;
    let solvable_at = |k| {
        scheme
            .check(k, &alphabet, Budget::UNLIMITED, false)
            .is_solvable()
    };
    Ok(match method {
        "check_horizon" => Verdict::Solvable(solvable_at(top)),
        _ => Verdict::FirstHorizon((0..=top).find(|&k| solvable_at(k))),
    })
}

fn json(text: &str) -> Value {
    serde_json::from_str(text).expect("pinned params are JSON")
}

/// Weights of the pinned hit mix, in [`hit_ops`] order — the daemon
/// bench's `solvable=8,check_horizon=1,net_solvable=1`.
pub const HIT_WEIGHTS: [u64; 3] = [8, 1, 1];

/// The pinned hit requests. Their expected answers are pinned at setup,
/// once the cache holds them.
pub fn hit_ops() -> Vec<Op> {
    [
        ("solvable", r#"{"scheme":"s1"}"#),
        ("check_horizon", r#"{"scheme":"s1","horizon":6}"#),
        ("net_solvable", r#"{"graph":"petersen","f":2}"#),
    ]
    .into_iter()
    .map(|(method, params)| Op {
        method,
        params: json(params),
        expect: Expect::Fresh(None),
    })
    .collect()
}

/// splitmix64: a small seeded generator, so a seed fixes the stream.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    fn gamma_word(&mut self, len: u64) -> String {
        (0..len)
            .map(|_| ['-', 'w', 'b'][self.range(0, 2) as usize])
            .collect()
    }
}

/// Scheme families the miss stream draws from.
#[derive(Clone, Copy)]
enum Family {
    GammaMinus,
    AvoidPrefix,
    TotalBudget,
}

/// Method of each slot of the repeating miss cycle: 10 `check_horizon`,
/// 3 `first_horizon` and 3 `solvable` in every 16 requests. The cycle
/// (not the seed) fixes the stream's composition, so seeds differ only in
/// which specs they draw.
const MISS_CYCLE: [&str; 16] = [
    "check_horizon",
    "check_horizon",
    "first_horizon",
    "check_horizon",
    "solvable",
    "check_horizon",
    "check_horizon",
    "first_horizon",
    "check_horizon",
    "solvable",
    "check_horizon",
    "check_horizon",
    "first_horizon",
    "check_horizon",
    "solvable",
    "check_horizon",
];

/// Deepest horizon a miss request asks for.
pub const MISS_MAX_HORIZON: u64 = 8;

/// The stream's shape, reported with every run.
#[derive(Default)]
pub struct Shape {
    /// Distinct cache keys (one per request).
    pub keys: usize,
    /// Requests per method.
    pub methods: BTreeMap<&'static str, u64>,
    /// `check_horizon` requests per horizon.
    pub horizons: BTreeMap<u64, u64>,
    /// Requests per scheme family and flavour.
    pub families: BTreeMap<String, u64>,
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} keys; methods {:?}; check_horizon horizons {:?}; families {:?}",
            self.keys, self.methods, self.horizons, self.families
        )
    }
}

/// A generated miss stream plus the warm log's keys.
pub struct MissStream {
    /// The timed requests, in send order.
    pub ops: Vec<Op>,
    /// Shape of `ops`.
    pub shape: Shape,
    warm: Vec<(ParsedScheme, Vec<Letter>, String)>,
}

/// Horizon of the warm log's verdicts: small, so building the log costs
/// little before the timer starts.
const WARM_HORIZON: usize = 2;

struct Draw {
    method: &'static str,
    family: Family,
    regular: bool,
    sigma: bool,
    horizon: u64,
    size: u64,
}

/// The specs of every miss stream are drawn from this seed, whatever the
/// run's seed; see [`MissStream::generate`].
const POOL_SEED: u64 = 0x6d69_6e6f_6273;

impl MissStream {
    /// `requests` fresh requests and `warm` further fresh keys.
    ///
    /// The specs are drawn from [`POOL_SEED`], so every run sends the same
    /// checker work in the same order; `seed` picks each spec's
    /// orientation: as drawn, or with White and Black swapped. Swapping
    /// the processes is a symmetry of the problem, so a request costs the
    /// daemon the same either way, but the two orientations are different
    /// cache keys. A seed thus changes what the daemon is asked, not how
    /// much work it is, and runs of different seeds measure the same load.
    pub fn generate(seed: u64, requests: usize, warm: usize) -> MissStream {
        let mut rng = Rng::new(POOL_SEED);
        let mut orientation = Rng::new(seed);
        let mut seen: HashSet<String> = HashSet::new();
        let mut stream = MissStream {
            ops: Vec::with_capacity(requests),
            shape: Shape::default(),
            warm: Vec::with_capacity(warm),
        };
        let mut counters = [0u64; 3];
        for slot in 0..requests + warm {
            let method = if slot < requests {
                MISS_CYCLE[slot % MISS_CYCLE.len()]
            } else {
                "check_horizon"
            };
            let draw = next_draw(method, &mut counters);
            let swap = orientation.next_u64() & 1 == 1;
            let (params, scheme, alphabet, key, oracle) =
                fresh_spec(&draw, &mut rng, &mut seen, swap);
            if slot < requests {
                let shape = &mut stream.shape;
                shape.keys += 1;
                *shape.methods.entry(method).or_default() += 1;
                if method == "check_horizon" {
                    *shape.horizons.entry(draw.horizon).or_default() += 1;
                }
                let family = params
                    .get("scheme")
                    .and_then(|s| s.get("name"))
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                let flavour = if draw.sigma { "/sigma" } else { "" };
                *shape
                    .families
                    .entry(format!("{family}{flavour}"))
                    .or_default() += 1;
                stream.ops.push(Op {
                    method,
                    params,
                    expect: Expect::Fresh(oracle),
                });
            } else {
                stream.warm.push((scheme, alphabet, key));
            }
        }
        stream
    }

    /// The warm log: magic plus one true `horizon` record per warm key,
    /// computed by the checker at a small horizon.
    pub fn warm_log(&self) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for (scheme, alphabet, key) in &self.warm {
            let solvable = scheme
                .check(WARM_HORIZON, alphabet, Budget::UNLIMITED, false)
                .is_solvable();
            let record = WalRecord::Horizon {
                key: key.clone(),
                k: WARM_HORIZON,
                solvable,
            };
            bytes.extend_from_slice(&record.encode());
        }
        bytes
    }
}

/// The next slot's method parameters. Per-method counters walk every
/// combination of family, flavour and horizon in a fixed order, and each
/// full walk steps the size (scenario count, prefix length); the letters
/// come from the pool generator.
fn next_draw(method: &'static str, counters: &mut [u64; 3]) -> Draw {
    let slot = match method {
        "check_horizon" => 0,
        "first_horizon" => 1,
        _ => 2,
    };
    let c = counters[slot];
    counters[slot] += 1;
    match method {
        "check_horizon" => Draw {
            method,
            family: [Family::GammaMinus, Family::AvoidPrefix, Family::TotalBudget]
                [((c / 5) % 3) as usize],
            regular: (c / 15) % 2 == 1,
            sigma: (c / 30) % 2 == 1,
            horizon: 4 + c % 5,
            size: c / 60,
        },
        "first_horizon" => Draw {
            method,
            family: [Family::AvoidPrefix, Family::TotalBudget, Family::GammaMinus]
                [(c % 3) as usize],
            regular: (c / 3) % 2 == 1,
            sigma: false,
            horizon: MISS_MAX_HORIZON,
            size: c / 6,
        },
        _ => Draw {
            method,
            family: [Family::GammaMinus, Family::AvoidPrefix, Family::TotalBudget]
                [(c % 3) as usize],
            regular: true,
            sigma: false,
            horizon: 0,
            size: c / 3,
        },
    }
}

type Spec = (Value, ParsedScheme, Vec<Letter>, String, Option<Verdict>);

/// Attempts at a draw's own family before falling back to `Γ^ω` minus
/// three scenarios, whose key space is far larger than any stream.
const DRAW_ATTEMPTS: u64 = 16;

/// The params of a `method` request on `scheme`, parsed, with the cache
/// key the method looks up.
fn keyed(method: &str, scheme: Value, draw: &Draw) -> (Value, ParsedScheme, Vec<Letter>, String) {
    let mut params = Map::new();
    params.insert("scheme", scheme);
    match method {
        "check_horizon" => params.insert("horizon", Value::from(draw.horizon)),
        "first_horizon" => params.insert("max_horizon", Value::from(draw.horizon)),
        _ => {}
    }
    if draw.sigma {
        params.insert("alphabet", Value::from("sigma"));
    }
    let params = Value::Object(params);
    let scheme = ParsedScheme::parse(params.get("scheme").expect("inserted above"))
        .expect("generated specs parse");
    let alphabet = parse_alphabet(&params, &scheme).expect("generated alphabets parse");
    let key = match method {
        "solvable" => format!("{}|theorem", scheme.canonical()),
        _ => scheme.cache_key(&alphabet),
    };
    (params, scheme, alphabet, key)
}

/// `word` with White and Black swapped: each process loses the messages
/// the other lost.
fn swap_processes(word: &str) -> String {
    word.chars()
        .map(|c| match c {
            'w' => 'b',
            'b' => 'w',
            other => other,
        })
        .collect()
}

/// `scheme` with White and Black swapped in its scenarios and prefix.
fn swapped(scheme: &Value) -> Value {
    let mut out = Map::new();
    for (field, value) in scheme.as_object().into_iter().flat_map(Map::iter) {
        let value = match (field.as_str(), value) {
            ("prefix", Value::String(word)) => Value::from(swap_processes(word)),
            ("scenarios", Value::Array(words)) => Value::from(
                words
                    .iter()
                    .map(|w| Value::from(swap_processes(w.as_str().unwrap_or_default())))
                    .collect::<Vec<_>>(),
            ),
            _ => value.clone(),
        };
        out.insert(field.as_str(), value);
    }
    Value::Object(out)
}

/// Draws specs for `draw` until one whose cache key, in either
/// orientation, was not seen before, and returns it swapped when `swap`
/// holds. Both orientations are marked seen, so which one a seed sends
/// never changes the specs drawn after it. Total budgets take the
/// smallest unused `k`: their few keys run out early in a stream, at the
/// same request for every seed.
fn fresh_spec(draw: &Draw, rng: &mut Rng, seen: &mut HashSet<String>, swap: bool) -> Spec {
    for attempt in 0.. {
        let spec = if attempt < DRAW_ATTEMPTS {
            scheme_spec(draw.family, draw, draw.size, attempt, rng)
        } else {
            scheme_spec(Family::GammaMinus, draw, 2, attempt, rng)
        };
        let Some((scheme_value, budget)) = spec else {
            continue;
        };
        let mirror = swapped(&scheme_value);
        let drawn = keyed(draw.method, scheme_value, draw);
        let other = keyed(draw.method, mirror, draw);
        if seen.contains(&drawn.3) || seen.contains(&other.3) {
            continue;
        }
        seen.insert(drawn.3.clone());
        seen.insert(other.3.clone());
        let (params, scheme, alphabet, key) = if swap { other } else { drawn };
        // Cor. III.14 / Prop. III.15: B_k is solvable from horizon k+1 on.
        let oracle = budget.and_then(|k| match draw.method {
            "check_horizon" => Some(Verdict::Solvable(draw.horizon > k)),
            "first_horizon" => Some(Verdict::FirstHorizon(
                (k < draw.horizon).then_some(k as usize + 1),
            )),
            _ => None,
        });
        return (params, scheme, alphabet, key, oracle);
    }
    unreachable!("the Γ^ω-minus key space is unbounded")
}

/// A scheme of `family` at `size`, with random letters, and its budget
/// `k` for total budgets (`None` when `attempt` is past the budgets the
/// draw allows).
fn scheme_spec(
    family: Family,
    draw: &Draw,
    size: u64,
    attempt: u64,
    rng: &mut Rng,
) -> Option<(Value, Option<u64>)> {
    let prefix = if draw.regular { "regular_" } else { "" };
    let mut scheme = Map::new();
    let mut budget = None;
    match family {
        Family::GammaMinus => {
            scheme.insert("name", Value::from(format!("{prefix}gamma_minus")));
            let scenarios: Vec<Value> = (0..1 + size % 3)
                .map(|_| {
                    let stem = rng.range(0, 2);
                    let cycle = rng.range(1, 3);
                    Value::from(format!(
                        "{}({})",
                        rng.gamma_word(stem),
                        rng.gamma_word(cycle)
                    ))
                })
                .collect();
            scheme.insert("scenarios", Value::from(scenarios));
        }
        Family::AvoidPrefix => {
            scheme.insert("name", Value::from(format!("{prefix}avoid_prefix")));
            scheme.insert("prefix", Value::from(rng.gamma_word(4 + size % 5)));
        }
        Family::TotalBudget => {
            scheme.insert("name", Value::from(format!("{prefix}total_budget")));
            let max_k = if draw.method == "first_horizon" {
                MISS_MAX_HORIZON - 1
            } else {
                DRAW_ATTEMPTS - 1
            };
            if attempt > max_k {
                return None;
            }
            scheme.insert("k", Value::from(attempt));
            budget = Some(attempt);
        }
    }
    Some((Value::Object(scheme), budget))
}

/// Whether op `index` of the miss stream is in the seeded sample whose
/// answers are re-derived in-process after the run (about 1 in `every`).
pub fn sampled(seed: u64, index: usize, every: u64) -> bool {
    Rng::new(seed ^ (index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
        .next_u64()
        .is_multiple_of(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_keys_are_unique_and_seeded() {
        let a = MissStream::generate(7, 400, 50);
        let b = MissStream::generate(7, 400, 50);
        assert_eq!(a.shape.keys, 400);
        let params = |s: &MissStream| -> Vec<String> {
            s.ops
                .iter()
                .map(|op| serde_json::to_string(&op.params).unwrap())
                .collect()
        };
        assert_eq!(params(&a), params(&b));
        let mut keys: HashSet<String> = a.warm.iter().map(|w| w.2.clone()).collect();
        for op in &a.ops {
            let scheme = ParsedScheme::parse(op.params.get("scheme").unwrap()).unwrap();
            let alphabet = parse_alphabet(&op.params, &scheme).unwrap();
            let key = match op.method {
                "solvable" => format!("{}|theorem", scheme.canonical()),
                _ => scheme.cache_key(&alphabet),
            };
            assert!(keys.insert(key), "duplicate key");
        }
    }

    /// Checker states summed over every round, and the verdict.
    fn checker_work(params: &Value) -> (u64, bool) {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        use minobs_synth::checker::solvable_by_budgeted_with_recorder;
        let scheme = ParsedScheme::parse(params.get("scheme").unwrap()).unwrap();
        let alphabet = parse_alphabet(params, &scheme).unwrap();
        let horizon = params.get("horizon").and_then(Value::as_u64).unwrap() as usize;
        let mut recorder = MemoryRecorder::new();
        let result = solvable_by_budgeted_with_recorder(
            scheme.as_omission(),
            horizon,
            &alphabet,
            Budget::UNLIMITED,
            &mut recorder,
        );
        let states = recorder
            .events()
            .iter()
            .map(|event| match event {
                TraceEvent::CheckerRound { frontier, .. } => *frontier as u64,
                _ => 0,
            })
            .sum();
        (states, result.is_solvable())
    }

    #[test]
    fn seeds_send_the_same_work() {
        let (a, b) = (MissStream::generate(1, 96, 0), MissStream::generate(2, 96, 0));
        let mut swapped_ops = 0;
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.method, y.method);
            if x.params != y.params {
                swapped_ops += 1;
            }
            let horizon = x.params.get("horizon").and_then(Value::as_u64);
            if horizon.is_some_and(|h| h <= 5) {
                assert_eq!(checker_work(&x.params), checker_work(&y.params));
            }
        }
        assert!(swapped_ops > 20, "seeds must change the specs sent");
    }

    #[test]
    fn budget_oracle_matches_the_checker() {
        let stream = MissStream::generate(3, 160, 0);
        for op in &stream.ops {
            if let Expect::Fresh(Some(want)) = op.expect {
                let horizon = op.params.get("horizon").and_then(Value::as_u64);
                if horizon.is_some_and(|h| h <= 5) || op.method == "first_horizon" {
                    assert_eq!(in_process_verdict(op.method, &op.params).unwrap(), want);
                }
            }
        }
    }
}
