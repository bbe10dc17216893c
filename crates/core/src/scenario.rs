//! Communication scenarios: ultimately periodic ω-words `u·v^ω`.
//!
//! The paper quantifies over arbitrary infinite words; every concrete
//! scenario this library manipulates — witnesses of Theorem III.8, members
//! of special pairs, adversary scripts — is *ultimately periodic* (a
//! "lasso"). This is lossless for every decision the paper needs: an
//! ω-regular scheme is nonempty iff it contains a lasso, and fairness,
//! membership, and the special-pair relation are all decidable on lassos.
//!
//! Textual form: `"prefix(cycle)"`, e.g. `"wb(-)"` is
//! `DropWhite·DropBlack·Full^ω` and `"(b)"` is `DropBlack^ω`.

use crate::letter::{GammaLetter, Letter, Role};
use crate::word::{GammaWord, Word};
use std::fmt;
use std::str::FromStr;

/// An ultimately periodic infinite word `prefix · cycle^ω` over `Σ`.
///
/// Invariant: `cycle` is nonempty. Equality is *semantic*: two lassos are
/// equal iff they denote the same ω-word, regardless of representation.
#[derive(Debug, Clone)]
pub struct Scenario {
    prefix: Word,
    cycle: Word,
}

/// Error when parsing a scenario literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseScenarioError {
    /// A character outside the letter encoding or the `(`/`)` delimiters.
    BadSyntax,
    /// The periodic part was empty (`"w()"` or `"w"`).
    EmptyCycle,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseScenarioError::BadSyntax => f.write_str("expected \"prefix(cycle)\""),
            ParseScenarioError::EmptyCycle => f.write_str("scenario cycle must be nonempty"),
        }
    }
}

impl std::error::Error for ParseScenarioError {}

impl Scenario {
    /// Builds `prefix · cycle^ω`.
    ///
    /// # Panics
    /// Panics when `cycle` is empty — a lasso must loop.
    pub fn new(prefix: Word, cycle: Word) -> Scenario {
        assert!(!cycle.is_empty(), "scenario cycle must be nonempty");
        Scenario { prefix, cycle }
    }

    /// The purely periodic scenario `cycle^ω`.
    pub fn periodic(cycle: Word) -> Scenario {
        Scenario::new(Word::empty(), cycle)
    }

    /// The constant scenario `a^ω`.
    pub fn constant(a: Letter) -> Scenario {
        Scenario::periodic(Word(vec![a]))
    }

    /// The constant `Γ` scenario `a^ω`.
    pub fn constant_gamma(a: GammaLetter) -> Scenario {
        Scenario::constant(a.to_letter())
    }

    /// `u · w` — the scenario `w` with `u` prepended.
    pub fn prepend(&self, u: &Word) -> Scenario {
        Scenario::new(u.concat(&self.prefix), self.cycle.clone())
    }

    /// The lasso's transient part (not canonicalized).
    pub fn lasso_prefix(&self) -> &Word {
        &self.prefix
    }

    /// The lasso's periodic part (not canonicalized).
    pub fn lasso_cycle(&self) -> &Word {
        &self.cycle
    }

    /// The letter at round `r` (0-based).
    pub fn letter_at(&self, r: usize) -> Letter {
        if r < self.prefix.len() {
            self.prefix.get(r).unwrap()
        } else {
            let i = (r - self.prefix.len()) % self.cycle.len();
            self.cycle.get(i).unwrap()
        }
    }

    /// The prefix `w_r` of length `r` (Definition II.3 notation).
    pub fn prefix_word(&self, r: usize) -> Word {
        (0..r).map(|i| self.letter_at(i)).collect()
    }

    /// `true` iff `u` is a prefix of this scenario.
    pub fn has_prefix(&self, u: &Word) -> bool {
        u.iter().enumerate().all(|(i, a)| self.letter_at(i) == a)
    }

    /// `true` iff every letter (transient and periodic) lies in `Γ`.
    pub fn is_gamma(&self) -> bool {
        self.prefix.is_gamma() && self.cycle.is_gamma()
    }

    /// The suffix scenario starting at round `r` (drops the first `r`
    /// letters).
    pub fn suffix(&self, r: usize) -> Scenario {
        if r <= self.prefix.len() {
            Scenario::new(Word(self.prefix.0[r..].to_vec()), self.cycle.clone())
        } else {
            let shift = (r - self.prefix.len()) % self.cycle.len();
            let mut rotated = self.cycle.0[shift..].to_vec();
            rotated.extend_from_slice(&self.cycle.0[..shift]);
            Scenario::periodic(Word(rotated))
        }
    }

    /// Unfairness (Definition III.6): from some round on, *every* letter
    /// kills White's message, or from some round on every letter kills
    /// Black's.
    ///
    /// A message system is fair when infinitely many sent messages get
    /// through in each direction; a lasso is unfair iff its cycle is
    /// uniformly lossy in one direction.
    pub fn is_unfair(&self) -> bool {
        self.eventually_always_drops(Role::White) || self.eventually_always_drops(Role::Black)
    }

    /// `true` iff the scenario is fair (Example II.8).
    pub fn is_fair(&self) -> bool {
        !self.is_unfair()
    }

    /// `true` iff from some round on, every letter drops `role`'s message.
    pub fn eventually_always_drops(&self, role: Role) -> bool {
        self.cycle.iter().all(|a| a.drops_from(role))
    }

    /// Number of letters in the canonical transient + periodic parts; a
    /// bound `B` such that two scenarios with representation size ≤ `B`
    /// agreeing on their first `B + B` letters are equal.
    pub fn repr_len(&self) -> usize {
        self.prefix.len() + self.cycle.len()
    }

    /// Canonical form: the shortest prefix and a primitive (aperiodic)
    /// cycle. Two equal scenarios have identical canonical forms.
    pub fn canonicalize(&self) -> Scenario {
        // 1. Reduce the cycle to its primitive root.
        let cyc = &self.cycle.0;
        let n = cyc.len();
        let mut prim = n;
        for d in 1..n {
            if n.is_multiple_of(d) && (0..n).all(|i| cyc[i] == cyc[i % d]) {
                prim = d;
                break;
            }
        }
        let mut cycle: Vec<Letter> = cyc[..prim].to_vec();
        let mut prefix: Vec<Letter> = self.prefix.0.clone();
        // 2. Absorb the prefix tail into the cycle: while the last prefix
        //    letter equals the last cycle letter, rotate the cycle right.
        while let Some(&last) = prefix.last() {
            if last == *cycle.last().unwrap() {
                prefix.pop();
                cycle.rotate_right(1);
            } else {
                break;
            }
        }
        Scenario {
            prefix: Word(prefix),
            cycle: Word(cycle),
        }
    }

    /// Iterator over the first `n` letters.
    pub fn letters(&self, n: usize) -> impl Iterator<Item = Letter> + '_ {
        (0..n).map(|i| self.letter_at(i))
    }
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        // Two ultimately periodic words are equal iff they agree on a
        // prefix of length max(|u|,|u'|) + lcm(|v|,|v'|).
        let horizon =
            self.prefix.len().max(other.prefix.len()) + lcm(self.cycle.len(), other.cycle.len());
        (0..horizon).all(|i| self.letter_at(i) == other.letter_at(i))
    }
}

impl Eq for Scenario {}

impl std::hash::Hash for Scenario {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let c = self.canonicalize();
        c.prefix.hash(state);
        c.cycle.hash(state);
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.prefix.0 {
            write!(f, "{}", l.to_char())?;
        }
        f.write_str("(")?;
        for l in &self.cycle.0 {
            write!(f, "{}", l.to_char())?;
        }
        f.write_str(")")
    }
}

impl FromStr for Scenario {
    type Err = ParseScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let open = s.find('(').ok_or(ParseScenarioError::BadSyntax)?;
        if !s.ends_with(')') {
            return Err(ParseScenarioError::BadSyntax);
        }
        let prefix_s = &s[..open];
        let cycle_s = &s[open + 1..s.len() - 1];
        if cycle_s.is_empty() {
            return Err(ParseScenarioError::EmptyCycle);
        }
        let prefix: Word = prefix_s
            .parse()
            .map_err(|_| ParseScenarioError::BadSyntax)?;
        let cycle: Word = cycle_s.parse().map_err(|_| ParseScenarioError::BadSyntax)?;
        Ok(Scenario::new(prefix, cycle))
    }
}

/// Enumerates all `Γ`-lassos with `|prefix| ≤ max_prefix` and
/// `1 ≤ |cycle| ≤ max_cycle`, deduplicated semantically.
pub fn enumerate_gamma_lassos(max_prefix: usize, max_cycle: usize) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for pl in 0..=max_prefix {
        for prefix in GammaWord::enumerate_all(pl) {
            for cl in 1..=max_cycle {
                for cycle in GammaWord::enumerate_all(cl) {
                    let s = Scenario::new(prefix.to_word(), cycle.to_word());
                    let canon = s.canonicalize();
                    let key = (canon.prefix.clone(), canon.cycle.clone());
                    if seen.insert(key) {
                        out.push(canon);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["(-)", "w(b)", "wb(-w)", "(wxb)"] {
            assert_eq!(sc(s).to_string(), s);
        }
        assert!("".parse::<Scenario>().is_err());
        assert!("w()".parse::<Scenario>().is_err());
        assert!("w".parse::<Scenario>().is_err());
        assert!("w(z)".parse::<Scenario>().is_err());
    }

    #[test]
    fn letter_at_walks_prefix_then_cycle() {
        let s = sc("wb(-w)");
        let got: String = s.letters(8).map(|l| l.to_char()).collect();
        assert_eq!(got, "wb-w-w-w");
    }

    #[test]
    fn prefix_word_matches_letters() {
        let s = sc("b(w-)");
        assert_eq!(s.prefix_word(5).to_string(), "bw-w-");
        assert_eq!(s.prefix_word(0), Word::empty());
        assert!(s.has_prefix(&"bw-".parse().unwrap()));
        assert!(!s.has_prefix(&"bb".parse().unwrap()));
    }

    #[test]
    fn semantic_equality_ignores_representation() {
        assert_eq!(sc("(w)"), sc("w(ww)"));
        assert_eq!(sc("(-w)"), sc("-w(-w-w)"));
        assert_eq!(sc("-(b)"), sc("-(bb)"));
        assert_ne!(sc("(w)"), sc("(b)"));
        assert_ne!(sc("w(-)"), sc("(-)"));
    }

    #[test]
    fn canonicalize_produces_primitive_cycle_and_minimal_prefix() {
        let c = sc("www(ww)").canonicalize();
        assert_eq!(c.lasso_prefix().len(), 0);
        assert_eq!(c.lasso_cycle().to_string(), "w");

        let c = sc("-w(bwbw)").canonicalize();
        assert_eq!(c.lasso_cycle().len(), 2);
        assert_eq!(sc("-w(bwbw)"), c);

        // Prefix tail folding: w(bw) = (wb).
        let c = sc("w(bw)").canonicalize();
        assert_eq!(c.lasso_prefix().len(), 0);
        assert_eq!(sc("w(bw)"), sc("(wb)"));
    }

    #[test]
    fn hash_respects_semantic_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &Scenario| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&sc("(w)")), h(&sc("w(ww)")));
        assert_eq!(h(&sc("w(bw)")), h(&sc("(wb)")));
    }

    #[test]
    fn fairness_classification() {
        assert!(sc("(-)").is_fair());
        assert!(sc("(wb)").is_fair(), "alternating loss is fair");
        assert!(sc("wwww(b-)").is_fair());
        assert!(!sc("(w)").is_fair(), "White silenced forever");
        assert!(!sc("(b)").is_fair());
        assert!(!sc("-b-b(w)").is_fair());
        assert!(!sc("(x)").is_fair(), "total silence is unfair");
    }

    #[test]
    fn unfair_direction() {
        assert!(sc("(w)").eventually_always_drops(Role::White));
        assert!(!sc("(w)").eventually_always_drops(Role::Black));
        // Double omission drops both directions.
        assert!(sc("(x)").eventually_always_drops(Role::White));
        assert!(sc("(x)").eventually_always_drops(Role::Black));
    }

    #[test]
    fn suffix_shifts_correctly() {
        let s = sc("wb(-w)");
        assert_eq!(s.suffix(0), s);
        assert_eq!(s.suffix(1), sc("b(-w)"));
        assert_eq!(s.suffix(2), sc("(-w)"));
        assert_eq!(s.suffix(3), sc("(w-)"));
        assert_eq!(s.suffix(4), sc("(-w)"));
    }

    #[test]
    fn gamma_check() {
        assert!(sc("wb(-)").is_gamma());
        assert!(!sc("x(-)").is_gamma());
        assert!(!sc("-(x)").is_gamma());
    }

    #[test]
    fn enumerate_lassos_dedups() {
        let lassos = enumerate_gamma_lassos(1, 2);
        // All are canonical and pairwise distinct.
        for (i, a) in lassos.iter().enumerate() {
            for b in &lassos[i + 1..] {
                assert_ne!(a, b, "{a} vs {b}");
            }
        }
        // Contains the three constants.
        for c in ["(-)", "(w)", "(b)"] {
            assert!(lassos.contains(&sc(c)));
        }
    }

    #[test]
    fn prepend_shifts_rounds() {
        let s = sc("(b)").prepend(&"w-".parse().unwrap());
        assert_eq!(s, sc("w-(b)"));
        assert_eq!(s.letter_at(0), Letter::DropWhite);
        assert_eq!(s.letter_at(2), Letter::DropBlack);
    }

    fn arb_scenario() -> impl Strategy<Value = Scenario> {
        ("[-wbx]{0,6}", "[-wbx]{1,5}")
            .prop_map(|(p, c)| Scenario::new(p.parse().unwrap(), c.parse().unwrap()))
    }

    proptest! {
        #[test]
        fn prop_canonicalize_preserves_meaning(s in arb_scenario()) {
            let c = s.canonicalize();
            prop_assert_eq!(&c, &s);
            for r in 0..24 {
                prop_assert_eq!(c.letter_at(r), s.letter_at(r));
            }
        }

        #[test]
        fn prop_equality_iff_letterwise(a in arb_scenario(), b in arb_scenario()) {
            let horizon = a.repr_len().max(b.repr_len()) * 2 + 4;
            let same = (0..horizon).all(|r| a.letter_at(r) == b.letter_at(r));
            prop_assert_eq!(a == b, same);
        }

        #[test]
        fn prop_suffix_consistent(s in arb_scenario(), r in 0usize..12) {
            let suf = s.suffix(r);
            for i in 0..16 {
                prop_assert_eq!(suf.letter_at(i), s.letter_at(r + i));
            }
        }

        #[test]
        fn prop_parse_display_roundtrip(s in arb_scenario()) {
            let text = s.to_string();
            let back: Scenario = text.parse().unwrap();
            prop_assert_eq!(back, s);
        }
    }
}
