//! Finite words over `Σ` and `Γ` (partial scenarios, Definition II.3).
//!
//! A [`Word`] is a finite sequence of [`Letter`]s; a [`GammaWord`] restricts
//! letters to `Γ`. Both parse from / print to the compact one-character
//! encoding (`"-wb"` is *deliver all, drop White, drop Black*).

use crate::letter::{GammaLetter, Letter};
use std::fmt;
use std::str::FromStr;

/// A finite word over the full alphabet `Σ` — a partial scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Word(pub Vec<Letter>);

/// A finite word over `Γ` — a partial scenario without double omission.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct GammaWord(pub Vec<GammaLetter>);

/// Error when parsing a word from its character encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWordError {
    offending: char,
}

impl fmt::Display for ParseWordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid letter {:?} in word", self.offending)
    }
}

impl std::error::Error for ParseWordError {}

impl Word {
    /// The empty word `ε`.
    pub fn empty() -> Self {
        Word(Vec::new())
    }

    /// The length `|w|`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff this is `ε`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The letter at position `r` (0-based), if within bounds.
    pub fn get(&self, r: usize) -> Option<Letter> {
        self.0.get(r).copied()
    }

    /// The prefix of length `r` (clamped to `len()`).
    pub fn prefix(&self, r: usize) -> Word {
        Word(self.0[..r.min(self.0.len())].to_vec())
    }

    /// `true` iff `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &Word) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Appends a letter, returning the extended word.
    pub fn push(&self, a: Letter) -> Word {
        let mut v = self.0.clone();
        v.push(a);
        Word(v)
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &Word) -> Word {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        Word(v)
    }

    /// The word `a^n`.
    pub fn repeat(a: Letter, n: usize) -> Word {
        Word(vec![a; n])
    }

    /// `true` iff every letter is in `Γ`.
    pub fn is_gamma(&self) -> bool {
        self.0.iter().all(|l| l.is_gamma())
    }

    /// Downcast to a `Γ`-word, or `None` if a double omission occurs.
    pub fn to_gamma(&self) -> Option<GammaWord> {
        self.0
            .iter()
            .map(|l| l.to_gamma())
            .collect::<Option<Vec<_>>>()
            .map(GammaWord)
    }

    /// Iterates over the letters.
    pub fn iter(&self) -> impl Iterator<Item = Letter> + '_ {
        self.0.iter().copied()
    }

    /// Enumerates all `4^r` words of `Σ^r` in lexicographic (base-4) order.
    pub fn enumerate_all(r: usize) -> impl Iterator<Item = Word> {
        LexWords {
            len: r,
            next: Some(vec![0u8; r]),
            radix: 4,
        }
        .map(|digits| {
            Word(
                digits
                    .into_iter()
                    .map(|d| Letter::ALL[d as usize])
                    .collect(),
            )
        })
    }
}

impl GammaWord {
    /// The empty word `ε`.
    pub fn empty() -> Self {
        GammaWord(Vec::new())
    }

    /// The length `|w|`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff this is `ε`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The letter at position `r` (0-based), if within bounds.
    pub fn get(&self, r: usize) -> Option<GammaLetter> {
        self.0.get(r).copied()
    }

    /// The prefix of length `r` (clamped to `len()`).
    pub fn prefix(&self, r: usize) -> GammaWord {
        GammaWord(self.0[..r.min(self.0.len())].to_vec())
    }

    /// `true` iff `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &GammaWord) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Appends a letter, returning the extended word.
    pub fn push(&self, a: GammaLetter) -> GammaWord {
        let mut v = self.0.clone();
        v.push(a);
        GammaWord(v)
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &GammaWord) -> GammaWord {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        GammaWord(v)
    }

    /// The word `a^n`.
    pub fn repeat(a: GammaLetter, n: usize) -> GammaWord {
        GammaWord(vec![a; n])
    }

    /// Upcast into a `Σ`-word.
    pub fn to_word(&self) -> Word {
        Word(self.0.iter().map(|g| g.to_letter()).collect())
    }

    /// Iterates over the letters.
    pub fn iter(&self) -> impl Iterator<Item = GammaLetter> + '_ {
        self.0.iter().copied()
    }

    /// Enumerates all `3^r` words of `Γ^r` in the order induced by
    /// `GammaLetter::ALL` (lexicographic base 3). This is **not** index
    /// order; use [`crate::index::ind_inv`] to walk in index order.
    pub fn enumerate_all(r: usize) -> impl Iterator<Item = GammaWord> {
        LexWords {
            len: r,
            next: Some(vec![0u8; r]),
            radix: 3,
        }
        .map(|digits| {
            GammaWord(
                digits
                    .into_iter()
                    .map(|d| GammaLetter::ALL[d as usize])
                    .collect(),
            )
        })
    }
}

/// Iterator over fixed-length digit strings in lexicographic order.
struct LexWords {
    len: usize,
    next: Option<Vec<u8>>,
    radix: u8,
}

impl Iterator for LexWords {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let cur = self.next.take()?;
        // Compute the successor in base-`radix`, most significant digit first.
        let mut succ = cur.clone();
        let mut i = self.len;
        loop {
            if i == 0 {
                // Overflow: `cur` was the last word.
                self.next = None;
                break;
            }
            i -= 1;
            if succ[i] + 1 < self.radix {
                succ[i] += 1;
                for d in succ[i + 1..].iter_mut() {
                    *d = 0;
                }
                self.next = Some(succ);
                break;
            }
        }
        Some(cur)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("ε");
        }
        for l in &self.0 {
            write!(f, "{}", l.to_char())?;
        }
        Ok(())
    }
}

impl fmt::Display for GammaWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("ε");
        }
        for l in &self.0 {
            write!(f, "{}", l.to_char())?;
        }
        Ok(())
    }
}

impl FromStr for Word {
    type Err = ParseWordError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "ε" {
            return Ok(Word::empty());
        }
        s.chars()
            .map(|c| Letter::from_char(c).ok_or(ParseWordError { offending: c }))
            .collect::<Result<Vec<_>, _>>()
            .map(Word)
    }
}

impl FromStr for GammaWord {
    type Err = ParseWordError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "ε" {
            return Ok(GammaWord::empty());
        }
        s.chars()
            .map(|c| GammaLetter::from_char(c).ok_or(ParseWordError { offending: c }))
            .collect::<Result<Vec<_>, _>>()
            .map(GammaWord)
    }
}

impl FromIterator<Letter> for Word {
    fn from_iter<T: IntoIterator<Item = Letter>>(iter: T) -> Self {
        Word(iter.into_iter().collect())
    }
}

impl FromIterator<GammaLetter> for GammaWord {
    fn from_iter<T: IntoIterator<Item = GammaLetter>>(iter: T) -> Self {
        GammaWord(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gw(s: &str) -> GammaWord {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["-", "w", "b", "-wb", "wwbb--", "ε"] {
            let w: GammaWord = s.parse().unwrap();
            assert_eq!(
                w.to_string(),
                if s == "ε" {
                    "ε".into()
                } else {
                    s.to_string()
                }
            );
        }
        let w: Word = "-wbx".parse().unwrap();
        assert_eq!(w.to_string(), "-wbx");
        assert!("z".parse::<Word>().is_err());
        assert!("x".parse::<GammaWord>().is_err());
    }

    #[test]
    fn dot_alias_for_full() {
        assert_eq!("..".parse::<GammaWord>().unwrap(), gw("--"));
    }

    #[test]
    fn prefix_relation() {
        let w = gw("-wb");
        assert!(gw("").is_prefix_of(&w));
        assert!(gw("-").is_prefix_of(&w));
        assert!(gw("-w").is_prefix_of(&w));
        assert!(gw("-wb").is_prefix_of(&w));
        assert!(!gw("w").is_prefix_of(&w));
        assert!(!gw("-wbb").is_prefix_of(&w));
        assert_eq!(w.prefix(2), gw("-w"));
        assert_eq!(w.prefix(10), w);
    }

    #[test]
    fn concat_and_push() {
        assert_eq!(gw("-w").concat(&gw("b")), gw("-wb"));
        assert_eq!(gw("-w").push(GammaLetter::DropBlack), gw("-wb"));
        assert_eq!(GammaWord::repeat(GammaLetter::DropWhite, 3), gw("www"));
    }

    #[test]
    fn gamma_upcast_downcast() {
        let w: Word = "-wb".parse().unwrap();
        assert!(w.is_gamma());
        assert_eq!(w.to_gamma().unwrap().to_word(), w);
        let dbl: Word = "-x".parse().unwrap();
        assert!(!dbl.is_gamma());
        assert_eq!(dbl.to_gamma(), None);
    }

    #[test]
    fn enumerate_gamma_counts_and_uniqueness() {
        for r in 0..6 {
            let all: Vec<_> = GammaWord::enumerate_all(r).collect();
            assert_eq!(all.len(), 3usize.pow(r as u32));
            let set: std::collections::HashSet<_> = all.iter().cloned().collect();
            assert_eq!(set.len(), all.len());
            assert!(all.iter().all(|w| w.len() == r));
        }
    }

    #[test]
    fn enumerate_sigma_counts() {
        for r in 0..5 {
            assert_eq!(Word::enumerate_all(r).count(), 4usize.pow(r as u32));
        }
    }

    #[test]
    fn enumerate_zero_length_is_epsilon_only() {
        let all: Vec<_> = GammaWord::enumerate_all(0).collect();
        assert_eq!(all, vec![GammaWord::empty()]);
    }

    proptest! {
        #[test]
        fn prop_parse_display_roundtrip(s in "[-wb]{0,32}") {
            let w: GammaWord = s.parse().unwrap();
            if !s.is_empty() {
                prop_assert_eq!(w.to_string(), s);
            }
        }

        #[test]
        fn prop_prefix_of_concat(a in "[-wb]{0,16}", b in "[-wb]{0,16}") {
            let wa: GammaWord = a.parse().unwrap();
            let wb: GammaWord = b.parse().unwrap();
            let cat = wa.concat(&wb);
            prop_assert!(wa.is_prefix_of(&cat));
            prop_assert_eq!(cat.len(), wa.len() + wb.len());
            prop_assert_eq!(cat.prefix(wa.len()), wa);
        }
    }
}
