//! Hash-consed full-information views.
//!
//! A view is what a process knows: its role and input at round 0, and for
//! every later round, the pair (its previous view, the peer view it
//! received — or `⊥`). Structurally equal views get the same [`ViewId`],
//! so "the process cannot distinguish two executions" becomes id equality.
//!
//! The intern table keys on a collision-free packing of [`ViewKey`] into
//! one `u64`, hashed by a single folded multiply: ids are internal, so
//! they need no protection against crafted collisions.

use minobs_core::letter::Role;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub u32);

/// The defining structure of a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKey {
    /// Round-0 view: who I am and what I propose.
    Base {
        /// The process.
        role: Role,
        /// Its input bit.
        input: bool,
    },
    /// Later view: my previous view plus what I received (`None` = null).
    Extend {
        /// My view one round earlier.
        prev: ViewId,
        /// The peer's view I received this round, if delivered.
        received: Option<ViewId>,
    },
}

impl ViewKey {
    /// The key as one `u64`: `prev` in the high half and `received + 1`
    /// (0 for `⊥`) in the low half for extended views. Ids stay below
    /// `u32::MAX` ([`ViewArena::intern`] asserts it), so no extended key
    /// has an all-ones high half, and base views take the four keys
    /// that do.
    fn packed(self) -> u64 {
        match self {
            ViewKey::Base { role, input } => {
                let tag = (matches!(role, Role::Black) as u64) << 1 | input as u64;
                (u64::from(u32::MAX) << 32) | tag
            }
            ViewKey::Extend { prev, received } => {
                (u64::from(prev.0) << 32) | received.map_or(0, |r| u64::from(r.0) + 1)
            }
        }
    }
}

/// A hasher for one `u64`: the two halves of its 128-bit product with an
/// odd constant, xored, so every key bit reaches the low bits that pick
/// a bucket.
#[derive(Default)]
struct PackedHasher(u64);

impl Hasher for PackedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The intern table.
#[derive(Debug, Default)]
pub struct ViewArena {
    ids: HashMap<u64, ViewId, BuildHasherDefault<PackedHasher>>,
}

impl ViewArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a key. Ids are assigned in insertion order.
    pub fn intern(&mut self, key: ViewKey) -> ViewId {
        // The packing needs every id below u32::MAX.
        assert!(self.ids.len() < u32::MAX as usize, "view arena full");
        let next = ViewId(self.ids.len() as u32);
        *self.ids.entry(key.packed()).or_insert(next)
    }

    /// The base view of `(role, input)`.
    pub fn base(&mut self, role: Role, input: bool) -> ViewId {
        self.intern(ViewKey::Base { role, input })
    }

    /// Extends `prev` by a received peer view (or `None`).
    pub fn extend(&mut self, prev: ViewId, received: Option<ViewId>) -> ViewId {
        self.intern(ViewKey::Extend { prev, received })
    }

    /// Number of distinct views interned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interning_dedupes() {
        let mut arena = ViewArena::new();
        let a = arena.base(Role::White, true);
        let b = arena.base(Role::White, true);
        let c = arena.base(Role::White, false);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn extension_structure_matters() {
        let mut arena = ViewArena::new();
        let w = arena.base(Role::White, true);
        let b = arena.base(Role::Black, false);
        let got = arena.extend(w, Some(b));
        let null = arena.extend(w, None);
        assert_ne!(got, null);
        assert_eq!(arena.extend(w, Some(b)), got);
    }

    #[test]
    fn packed_keys_are_distinct_at_the_id_limits() {
        let top = ViewId(u32::MAX - 1);
        let mut keys: Vec<u64> = [Role::White, Role::Black]
            .into_iter()
            .flat_map(|role| [false, true].map(|input| ViewKey::Base { role, input }))
            .chain([
                ViewKey::Extend {
                    prev: top,
                    received: Some(top),
                },
                ViewKey::Extend {
                    prev: top,
                    received: None,
                },
                ViewKey::Extend {
                    prev: ViewId(0),
                    received: Some(ViewId(0)),
                },
                ViewKey::Extend {
                    prev: ViewId(0),
                    received: None,
                },
            ])
            .map(ViewKey::packed)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn identical_histories_converge_across_inputs() {
        // Black never hears White: Black's view is independent of White's
        // input — the core of every indistinguishability argument.
        let mut arena = ViewArena::new();
        let b = arena.base(Role::Black, true);
        let b_after_silence_1 = arena.extend(b, None);
        let b_after_silence_2 = arena.extend(b, None);
        assert_eq!(b_after_silence_1, b_after_silence_2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Packed interning assigns the ids a plain `ViewKey` map does,
        /// for any interleaving of base and extended views.
        #[test]
        fn prop_packed_interning_matches_a_key_map(
            ops in proptest::collection::vec((0u8..4, 0u32..16, 0u32..16), 1..200),
        ) {
            let mut arena = ViewArena::new();
            let mut reference: HashMap<ViewKey, ViewId> = HashMap::new();
            for (op, a, b) in ops {
                let key = if op == 0 || reference.is_empty() {
                    let role = if a % 2 == 0 { Role::White } else { Role::Black };
                    ViewKey::Base { role, input: b % 2 == 0 }
                } else {
                    // Few distinct ids, so that extensions repeat.
                    let n = reference.len() as u32;
                    let received = b % (n + 1);
                    ViewKey::Extend {
                        prev: ViewId(a % n),
                        received: (received < n).then_some(ViewId(received)),
                    }
                };
                let fresh = ViewId(reference.len() as u32);
                let expected = *reference.entry(key).or_insert(fresh);
                prop_assert_eq!(arena.intern(key), expected);
                prop_assert_eq!(arena.len(), reference.len());
            }
        }
    }
}
