//! Parsing scheme/alphabet descriptions from request params, and the
//! canonical serialization the verdict cache keys on.
//!
//! A scheme description is either a bare name (`"s1"`, `"regular_r1"`)
//! or an object `{"name": ..., ...params}`. Parsing normalises case,
//! resolves aliases, canonicalises lasso scenarios (minimal rotation and
//! cycle), and sorts/dedups scenario lists — so two syntactically
//! different descriptions of the same scheme produce the same
//! [`ParsedScheme::cache_key`] and share verdict-cache entries.

use minobs_core::prelude::*;
use minobs_obs::NullRecorder;
use minobs_omega::schemes::{
    decide_regular, regular_almost_fair, regular_avoid_prefix, regular_c1, regular_fair,
    regular_gamma_minus, regular_r1, regular_s0, regular_s1, regular_t, regular_total_budget,
    RegularScheme,
};
use minobs_synth::checker::{gamma_alphabet, sigma_alphabet, Budget, Check, CheckResult};
use serde_json::Value;

/// A scheme parsed from a request, with its canonical cache-key stem.
pub struct ParsedScheme {
    kind: SchemeKind,
    canonical: String,
}

enum SchemeKind {
    Classic(ClassicScheme),
    Regular(RegularScheme),
}

impl ParsedScheme {
    /// Parses a scheme description: a name string or an object with a
    /// `name` field plus family-specific params (`scenarios`, `prefix`,
    /// `k`).
    pub fn parse(value: &Value) -> Result<ParsedScheme, String> {
        let (name, params) = match value {
            Value::String(s) => (s.as_str(), None),
            Value::Object(_) => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("scheme object needs a \"name\" string")?;
                (name, Some(value))
            }
            Value::Null => return Err("missing \"scheme\" param".to_string()),
            _ => return Err("\"scheme\" must be a name or an object".to_string()),
        };
        let name = name.trim().to_ascii_lowercase();
        let (family, bare) = match name.strip_prefix("regular_") {
            Some(rest) => ("regular", rest),
            None => ("classic", name.as_str()),
        };

        // Families that take no params.
        let plain: Option<(ClassicScheme, &str)> = match bare {
            "s0" => Some((classic::s0(), "s0")),
            "t_white" => Some((ClassicScheme::T(Role::White), "t_white")),
            "t_black" => Some((ClassicScheme::T(Role::Black), "t_black")),
            "c1" => Some((classic::c1(), "c1")),
            "s1" => Some((classic::s1(), "s1")),
            "r1" | "gamma_omega" => Some((classic::r1(), "r1")),
            "s2" | "sigma_omega" => Some((classic::s2(), "s2")),
            "fair" | "fair_gamma" => Some((classic::fair_gamma(), "fair")),
            "almost_fair" | "almost_fair_black" => {
                Some((ClassicScheme::AlmostFair(Role::Black), "almost_fair_black"))
            }
            "almost_fair_white" => {
                Some((ClassicScheme::AlmostFair(Role::White), "almost_fair_white"))
            }
            _ => None,
        };
        if let Some((scheme, canon)) = plain {
            return ParsedScheme::build(family, canon.to_string(), scheme);
        }

        // Parameterized families.
        match bare {
            "gamma_minus" => {
                let scenarios = parse_scenarios(params)?;
                let canon = format!(
                    "gamma_minus[{}]",
                    scenarios
                        .iter()
                        .map(Scenario::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                );
                ParsedScheme::build(family, canon, ClassicScheme::GammaMinus(scenarios))
            }
            "avoid_prefix" => {
                let word = parse_prefix(params)?;
                if word.to_gamma().is_none() {
                    return Err(
                        "avoid_prefix takes a Γ prefix (use sigma_avoid_prefix for 'x')"
                            .to_string(),
                    );
                }
                let canon = format!("avoid_prefix[{word}]");
                ParsedScheme::build(family, canon, ClassicScheme::AvoidPrefix(word))
            }
            "sigma_avoid_prefix" => {
                let word = parse_prefix(params)?;
                let canon = format!("sigma_avoid_prefix[{word}]");
                ParsedScheme::build(family, canon, ClassicScheme::SigmaAvoidPrefix(word))
            }
            "total_budget" => {
                let k = parse_k(params)?;
                ParsedScheme::build(
                    family,
                    format!("total_budget[{k}]"),
                    ClassicScheme::TotalBudget(k),
                )
            }
            "sigma_total_budget" => {
                let k = parse_k(params)?;
                ParsedScheme::build(
                    family,
                    format!("sigma_total_budget[{k}]"),
                    ClassicScheme::SigmaTotalBudget(k),
                )
            }
            other => Err(format!("unknown scheme {other:?}")),
        }
    }

    fn build(family: &str, canon: String, scheme: ClassicScheme) -> Result<ParsedScheme, String> {
        if family == "classic" {
            return Ok(ParsedScheme {
                kind: SchemeKind::Classic(scheme),
                canonical: format!("classic:{canon}"),
            });
        }
        // Rebuild the same family as an ω-regular scheme.
        let regular = match &scheme {
            ClassicScheme::S0 => regular_s0(),
            ClassicScheme::T(role) => regular_t(*role),
            ClassicScheme::C1 => regular_c1(),
            ClassicScheme::S1 => regular_s1(),
            ClassicScheme::R1 => regular_r1(),
            ClassicScheme::FairGamma => regular_fair(),
            ClassicScheme::AlmostFair(Role::Black) => regular_almost_fair(),
            ClassicScheme::GammaMinus(scenarios) => {
                if scenarios.is_empty() || !scenarios.iter().all(Scenario::is_gamma) {
                    return Err(
                        "regular_gamma_minus takes a non-empty list of Γ scenarios (no 'x')"
                            .to_string(),
                    );
                }
                regular_gamma_minus(scenarios)
            }
            ClassicScheme::TotalBudget(k) => regular_total_budget(*k),
            ClassicScheme::AvoidPrefix(word) => {
                let gamma = word.to_gamma().expect("checked Γ above");
                regular_avoid_prefix(&gamma)
            }
            other => {
                return Err(format!(
                    "no ω-regular encoding for {}",
                    OmissionScheme::name(other)
                ))
            }
        };
        Ok(ParsedScheme {
            kind: SchemeKind::Regular(regular),
            canonical: format!("regular:{canon}"),
        })
    }

    /// The scheme as the checker's trait object.
    pub fn as_omission(&self) -> &dyn OmissionScheme {
        match &self.kind {
            SchemeKind::Classic(s) => s,
            SchemeKind::Regular(s) => s,
        }
    }

    /// Human-readable scheme name (the underlying library name, not the
    /// canonical key).
    pub fn display_name(&self) -> String {
        self.as_omission().name()
    }

    /// The canonical cache-key stem, before the alphabet is appended.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The full verdict-cache key for queries under `alphabet`.
    pub fn cache_key(&self, alphabet: &[Letter]) -> String {
        format!("{}|{}", self.canonical, alphabet_tag(alphabet))
    }

    /// The alphabet used when a request does not pick one: `Γ` for
    /// schemes within `Γ^ω`, the full `Σ` otherwise.
    pub fn default_alphabet(&self) -> Vec<Letter> {
        match &self.kind {
            SchemeKind::Classic(s) if !s.is_gamma_subset() => sigma_alphabet(),
            _ => gamma_alphabet(),
        }
    }

    /// [`Check::at`] on this scheme, kept for callers of this signature;
    /// `_parallel` is ignored (the checker has one runner).
    pub fn check(
        &self,
        k: usize,
        alphabet: &[Letter],
        budget: Budget,
        _parallel: bool,
    ) -> CheckResult {
        Check { alphabet, budget }.at(self.as_omission(), k, &mut NullRecorder)
    }

    /// Runs the Theorem III.8 decision procedure, or explains why it
    /// does not apply (double-omission schemes are out of its scope).
    pub fn decide(&self) -> Result<Solvability, String> {
        match &self.kind {
            SchemeKind::Classic(
                s @ (ClassicScheme::SigmaAvoidPrefix(_) | ClassicScheme::SigmaTotalBudget(_)),
            ) => Err(format!(
                "Theorem III.8 only covers schemes without double omission; \
                 check {} with check_horizon instead",
                OmissionScheme::name(s)
            )),
            SchemeKind::Classic(s) => Ok(decide_classic(s)),
            SchemeKind::Regular(s) => Ok(decide_regular(s)),
        }
    }
}

/// Parses the optional `alphabet` param: `"gamma"` (default for Γ-subset
/// schemes) or `"sigma"`.
pub fn parse_alphabet(params: &Value, scheme: &ParsedScheme) -> Result<Vec<Letter>, String> {
    match params.get("alphabet").and_then(Value::as_str) {
        None => Ok(scheme.default_alphabet()),
        Some(tag) => match tag.trim().to_ascii_lowercase().as_str() {
            "gamma" => Ok(gamma_alphabet()),
            "sigma" => Ok(sigma_alphabet()),
            other => Err(format!("unknown alphabet {other:?} (gamma or sigma)")),
        },
    }
}

fn alphabet_tag(alphabet: &[Letter]) -> &'static str {
    if alphabet.contains(&Letter::DropBoth) {
        "sigma"
    } else {
        "gamma"
    }
}

fn parse_scenarios(params: Option<&Value>) -> Result<Vec<Scenario>, String> {
    let list = params
        .and_then(|p| p.get("scenarios"))
        .and_then(Value::as_array)
        .ok_or("gamma_minus needs a \"scenarios\" array of lasso strings like \"w(b)\"")?;
    let mut scenarios = list
        .iter()
        .map(|v| {
            let text = v.as_str().ok_or("scenario entries must be strings")?;
            let scenario: Scenario = text
                .parse()
                .map_err(|e| format!("bad scenario {text:?}: {e:?}"))?;
            Ok(scenario.canonicalize())
        })
        .collect::<Result<Vec<Scenario>, String>>()?;
    // Canonical order: the excluded set is a set, not a sequence.
    scenarios.sort_by_key(Scenario::to_string);
    scenarios.dedup();
    Ok(scenarios)
}

fn parse_prefix(params: Option<&Value>) -> Result<Word, String> {
    let text = params
        .and_then(|p| p.get("prefix"))
        .and_then(Value::as_str)
        .ok_or("avoid_prefix needs a \"prefix\" string like \"-wb\"")?;
    text.parse::<Word>()
        .map_err(|e| format!("bad prefix {text:?}: {e:?}"))
}

fn parse_k(params: Option<&Value>) -> Result<usize, String> {
    let k = params
        .and_then(|p| p.get("k"))
        .and_then(Value::as_u64)
        .ok_or("total_budget needs an integer \"k\"")?;
    if k > 64 {
        return Err("total budget k capped at 64".to_string());
    }
    Ok(k as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: &Value) -> String {
        let scheme = ParsedScheme::parse(v).unwrap();
        let alphabet = scheme.default_alphabet();
        scheme.cache_key(&alphabet)
    }

    fn obj(pairs: &[(&str, Value)]) -> Value {
        let mut map = serde_json::Map::new();
        for (k, v) in pairs {
            map.insert((*k).to_string(), v.clone());
        }
        Value::Object(map)
    }

    #[test]
    fn names_normalise_to_one_key() {
        assert_eq!(key(&Value::from("s1")), key(&Value::from(" S1 ")));
        assert_eq!(
            key(&Value::from("s1")),
            key(&obj(&[("name", Value::from("s1"))]))
        );
        assert_eq!(key(&Value::from("fair")), key(&Value::from("fair_gamma")));
        assert_eq!(
            key(&Value::from("almost_fair")),
            key(&Value::from("ALMOST_FAIR_BLACK"))
        );
        // Different schemes stay distinct.
        assert_ne!(key(&Value::from("s1")), key(&Value::from("r1")));
        assert_ne!(key(&Value::from("s1")), key(&Value::from("regular_s1")));
    }

    #[test]
    fn gamma_minus_scenario_lists_canonicalise() {
        let a = obj(&[
            ("name", Value::from("gamma_minus")),
            (
                "scenarios",
                Value::from(vec![Value::from("w(b)"), Value::from("(-)")]),
            ),
        ]);
        // Reordered, duplicated, and with a non-minimal lasso for the
        // same scenarios: (-) == -(--), w(b) == w(bb).
        let b = obj(&[
            ("name", Value::from("GAMMA_MINUS")),
            (
                "scenarios",
                Value::from(vec![
                    Value::from("-(--)"),
                    Value::from("w(bb)"),
                    Value::from("(-)"),
                ]),
            ),
        ]);
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn sigma_schemes_default_to_the_sigma_alphabet() {
        let scheme = ParsedScheme::parse(&Value::from("s2")).unwrap();
        assert!(scheme.default_alphabet().contains(&Letter::DropBoth));
        let gamma = ParsedScheme::parse(&Value::from("s1")).unwrap();
        assert!(!gamma.default_alphabet().contains(&Letter::DropBoth));
        assert!(scheme
            .cache_key(&scheme.default_alphabet())
            .ends_with("|sigma"));
    }

    #[test]
    fn theorem_scope_is_enforced() {
        let sigma = ParsedScheme::parse(&obj(&[
            ("name", Value::from("sigma_total_budget")),
            ("k", Value::from(2u64)),
        ]))
        .unwrap();
        assert!(sigma.decide().is_err());
        let gamma = ParsedScheme::parse(&Value::from("r1")).unwrap();
        assert!(!gamma.decide().unwrap().is_solvable());
        let regular = ParsedScheme::parse(&Value::from("regular_s1")).unwrap();
        assert!(regular.decide().unwrap().is_solvable());
    }

    fn gamma_minus(name: &str, scenarios: &[&str]) -> Value {
        obj(&[
            ("name", Value::from(name)),
            (
                "scenarios",
                Value::Array(scenarios.iter().map(|&s| Value::from(s)).collect()),
            ),
        ])
    }

    #[test]
    fn classic_gamma_minus_takes_any_scenario_list() {
        // Excluding a scenario outside Γ^ω leaves Γ^ω, and excluding none
        // is Γ^ω; only the automaton family needs a non-empty Γ list.
        for list in [&["(x)"][..], &["w(x)"], &[]] {
            assert!(ParsedScheme::parse(&gamma_minus("gamma_minus", list)).is_ok());
        }
        assert!(ParsedScheme::parse(&gamma_minus("regular_gamma_minus", &["w(b)", "(-)"])).is_ok());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// Aliases and spellings that must all resolve to one scheme.
        const SPELLINGS: &[&[&str]] = &[
            &["s1", " S1 ", "s1 "],
            &["r1", "gamma_omega", "R1"],
            &["s2", "sigma_omega", "S2"],
            &["fair", "fair_gamma", "FAIR"],
            &["almost_fair", "almost_fair_black", "Almost_Fair"],
            &["t_white", "T_WHITE", " t_white"],
        ];

        /// For each lasso: syntactically different strings denoting the
        /// same ω-word (cycle doubling, folding a cycle into the
        /// prefix, both).
        const LASSOS: &[&[&str]] = &[
            &["(-)", "(--)", "-(-)", "-(--)"],
            &["w(b)", "w(bb)", "wb(b)", "wb(bb)"],
            &["(wb)", "(wbwb)", "wb(wb)", "wb(wbwb)"],
            &["b(w)", "b(ww)", "bw(w)", "bw(ww)"],
        ];

        fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
            from[rng.below(from.len() as u64) as usize]
        }

        /// A value of any JSON shape, for fields that expect another.
        fn junk(rng: &mut TestRng) -> Value {
            match rng.below(6) {
                0 => Value::Null,
                1 => Value::from(rng.below(2) == 1),
                2 => Value::from(rng.next_u64()),
                3 => Value::from(-(rng.below(1000) as i64) - 1),
                4 => Value::from(rng.below(1000) as f64 / 7.0),
                _ => Value::Array(Vec::new()),
            }
        }

        /// Lasso-shaped text spliced from letters, brackets and
        /// multi-byte characters; often well formed, often not.
        fn lasso_text(rng: &mut TestRng) -> String {
            const PIECES: &[&str] = &["-", "w", "b", "x", "(", ")", "é", "😀", "?", ""];
            let letters = |rng: &mut TestRng, n: u64| -> String {
                (0..rng.below(n)).map(|_| pick(rng, &PIECES[..4])).collect()
            };
            if rng.below(4) == 0 {
                return (0..rng.below(6)).map(|_| pick(rng, PIECES)).collect();
            }
            format!("{}({})", letters(rng, 3), letters(rng, 4))
        }

        /// Scheme descriptions: every family name and alias, with and
        /// without (repeated or misspelt) `regular_` prefixes, plus
        /// multi-byte names, as a bare string or an object carrying
        /// arbitrary `scenarios`, `prefix` and `k`.
        struct Descriptions;

        impl Strategy for Descriptions {
            type Value = Value;
            fn generate(&self, rng: &mut TestRng) -> Value {
                const PREFIXES: &[&str] = &[
                    "",
                    "",
                    "regular_",
                    "regular_",
                    "REGULAR_",
                    "regular_regular_",
                    "régular_",
                ];
                const NAMES: &[&str] = &[
                    "gamma_minus",
                    "gamma_minus",
                    "avoid_prefix",
                    "sigma_avoid_prefix",
                    "total_budget",
                    "sigma_total_budget",
                    "s0",
                    "t_white",
                    "t_black",
                    "c1",
                    " S1 ",
                    "r1",
                    "gamma_omega",
                    "s2",
                    "fair",
                    "almost_fair",
                    "almost_fair_white",
                    "",
                    "ж",
                    "😀",
                    "İ",
                    "ſ",
                    "\u{0}",
                ];
                let name = format!("{}{}", pick(rng, PREFIXES), pick(rng, NAMES));
                if rng.below(5) == 0 {
                    return Value::from(name);
                }
                let mut map = serde_json::Map::new();
                let name = if rng.below(16) == 0 {
                    junk(rng)
                } else {
                    Value::from(name)
                };
                map.insert("name", name);
                if rng.below(4) != 0 {
                    let scenarios = if rng.below(8) == 0 {
                        junk(rng)
                    } else {
                        Value::Array(
                            (0..rng.below(4))
                                .map(|_| match rng.below(8) {
                                    0 => junk(rng),
                                    _ => Value::from(lasso_text(rng)),
                                })
                                .collect(),
                        )
                    };
                    map.insert("scenarios", scenarios);
                }
                if rng.below(2) == 0 {
                    let prefix = match rng.below(4) {
                        0 => junk(rng),
                        _ => Value::from(
                            (0..rng.below(5))
                                .map(|_| pick(rng, &["-", "w", "b", "x", "é", "("]))
                                .collect::<String>(),
                        ),
                    };
                    map.insert("prefix", prefix);
                }
                if rng.below(2) == 0 {
                    let k = match rng.below(3) {
                        0 => junk(rng),
                        _ => Value::from(rng.below(80)),
                    };
                    map.insert("k", k);
                }
                Value::Object(map)
            }
        }

        /// `parse` answers every description with a scheme or an error
        /// message; it never panics.
        fn parses_or_errors(description: &Value) {
            match ParsedScheme::parse(description) {
                Ok(scheme) => {
                    let alphabet = scheme.default_alphabet();
                    prop_assert!(!scheme.cache_key(&alphabet).is_empty());
                }
                Err(message) => prop_assert!(!message.is_empty(), "{description:?}"),
            }
        }

        /// A `gamma_minus` or `regular_gamma_minus` scenario list of Γ
        /// lassos (classic lists may also use `x`), and the same list
        /// shuffled with some entries repeated.
        struct ShuffledLists;

        impl Strategy for ShuffledLists {
            type Value = (&'static str, Vec<Value>, Vec<Value>);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let regular = rng.below(2) == 1;
                let letters: &[&str] = if regular {
                    &["-", "w", "b"]
                } else {
                    &["-", "w", "b", "x"]
                };
                let word = |rng: &mut TestRng, lo: u64, hi: u64| -> String {
                    (0..lo + rng.below(hi - lo + 1))
                        .map(|_| pick(rng, letters))
                        .collect()
                };
                let list: Vec<Value> = (0..1 + rng.below(5))
                    .map(|_| Value::from(format!("{}({})", word(rng, 0, 3), word(rng, 1, 3))))
                    .collect();
                let mut shuffled = list.clone();
                for _ in 0..rng.below(4) {
                    let copy = shuffled[rng.below(shuffled.len() as u64) as usize].clone();
                    shuffled.push(copy);
                }
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let name = if regular {
                    "regular_gamma_minus"
                } else {
                    "gamma_minus"
                };
                (name, list, shuffled)
            }
        }

        /// Both lists name the same scheme, so they share a cache key.
        fn shuffling_keeps_the_key((name, list, shuffled): (&str, Vec<Value>, Vec<Value>)) {
            let described = |scenarios: Vec<Value>| {
                obj(&[
                    ("name", Value::from(name)),
                    ("scenarios", Value::Array(scenarios)),
                ])
            };
            prop_assert_eq!(key(&described(list)), key(&described(shuffled)));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn prop_descriptions_parse_or_error(description in Descriptions) {
                parses_or_errors(&description);
            }

            #[test]
            fn prop_shuffled_gamma_minus_lists_share_a_cache_key(lists in ShuffledLists) {
                shuffling_keeps_the_key(lists);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200_000))]

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_descriptions_parse_or_error(description in Descriptions) {
                parses_or_errors(&description);
            }

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_shuffled_gamma_minus_lists_share_a_cache_key(lists in ShuffledLists) {
                shuffling_keeps_the_key(lists);
            }
        }

        fn spelled(text: &str, as_object: bool) -> Value {
            if as_object {
                obj(&[("name", Value::from(text))])
            } else {
                Value::from(text)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any two spellings of the same named scheme — alias,
            /// casing, whitespace, string vs object form — produce the
            /// same cache key.
            #[test]
            fn prop_spellings_share_a_cache_key(
                scheme in 0usize..6,
                a in 0usize..3,
                b in 0usize..3,
                obj_a in any::<bool>(),
                obj_b in any::<bool>(),
            ) {
                let left = key(&spelled(SPELLINGS[scheme][a], obj_a));
                let right = key(&spelled(SPELLINGS[scheme][b], obj_b));
                prop_assert_eq!(left, right);
            }

            /// `gamma_minus` descriptions with reordered, duplicated,
            /// and non-minimal lasso spellings of the same scenario set
            /// produce the same cache key.
            #[test]
            fn prop_gamma_minus_descriptions_share_a_cache_key(
                mask in 1usize..16,
                variants in proptest::collection::vec(0usize..4, 4),
                reverse in any::<bool>(),
                duplicate in any::<bool>(),
            ) {
                let picked: Vec<usize> = (0..4).filter(|i| mask & (1 << i) != 0).collect();
                let minimal: Vec<Value> =
                    picked.iter().map(|&i| Value::from(LASSOS[i][0])).collect();
                let mut mutated: Vec<Value> = picked
                    .iter()
                    .map(|&i| Value::from(LASSOS[i][variants[i]]))
                    .collect();
                if reverse {
                    mutated.reverse();
                }
                if duplicate {
                    mutated.push(mutated[0].clone());
                }
                let left = key(&obj(&[
                    ("name", Value::from("gamma_minus")),
                    ("scenarios", Value::from(minimal)),
                ]));
                let right = key(&obj(&[
                    ("name", Value::from("GAMMA_MINUS")),
                    ("scenarios", Value::from(mutated)),
                ]));
                prop_assert_eq!(left, right);
            }
        }
    }

    #[test]
    fn malformed_descriptions_are_rejected() {
        for bad in [
            Value::from("mystery"),
            Value::from(3u64),
            Value::Null,
            obj(&[
                ("name", Value::from("avoid_prefix")),
                ("prefix", Value::from("-wx?")),
            ]),
            obj(&[
                ("name", Value::from("avoid_prefix")),
                ("prefix", Value::from("-x")),
            ]),
            obj(&[("name", Value::from("gamma_minus"))]),
            obj(&[("name", Value::from("total_budget"))]),
            obj(&[
                ("name", Value::from("regular_sigma_total_budget")),
                ("k", Value::from(1u64)),
            ]),
            gamma_minus("regular_gamma_minus", &["(x)"]),
            gamma_minus("regular_gamma_minus", &["w(x)"]),
            gamma_minus("regular_gamma_minus", &["(-)", "x(b)"]),
            gamma_minus("regular_gamma_minus", &[]),
        ] {
            assert!(ParsedScheme::parse(&bad).is_err(), "{bad:?}");
        }
    }
}
