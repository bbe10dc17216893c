//! # minobs-synth — full-information protocols and mechanical bivalency
//!
//! The impossibility half of Theorem III.8 argues over *all* algorithms.
//! This crate makes that quantification finite and executable through the
//! classical full-information reduction:
//!
//! Any `k`-round algorithm's output is a function of the process's
//! *view* — its input plus the (recursively nested) views it received.
//! Conversely any assignment of outputs to views *is* an algorithm. So:
//!
//! > a scheme `L` admits an algorithm in which both processes decide at
//! > round `k` **iff** there is a decision map on round-`k` views that is
//! > constant on every execution-connected component and respects the
//! > validity pins.
//!
//! [`Check`] decides exactly that with a union-find over interned views
//! ([`views`]), enumerating `Pref_k(L)` level-synchronously:
//! [`Check::at`] at one horizon, [`Check::first`] over a range of
//! horizons in one pass ([`solvable_by`] and [`first_solvable_horizon`]
//! are their unbudgeted shorthands). When the answer is *no*, it returns
//! the **bivalency chain**: the sequence of executions connecting the all-0 execution to
//! the all-1 execution through indistinguishable views — the
//! combinatorial skeleton of Section III-C's impossibility proof, and of
//! the "connected components of the configuration space" the paper's
//! conclusion alludes to.
//!
//! Two structural facts fall out and are tested:
//!
//! * the checker only sees `Pref_k(L)`, so `first_solvable_horizon`
//!   equals the paper's round-complexity bound `p` of Corollary III.14 /
//!   Proposition III.15 whenever `p` exists, and is `∞` exactly when
//!   `Pref(L) = Γ*` (where only unbounded-round algorithms can exist);
//! * obstructions (R1, S2, the canonical minimal obstruction) stay
//!   unsolvable at *every* horizon, with ever-longer bivalency chains.
//!
//! ```
//! use minobs_core::prelude::*;
//! use minobs_synth::checker::{gamma_alphabet, solvable_by, CheckResult};
//!
//! // Γω has no 2-round algorithm; the certificate is a 19-step chain of
//! // pairwise-indistinguishable executions connecting the all-0 run to
//! // the all-1 run.
//! let CheckResult::Unsolvable { chain } =
//!     solvable_by(&classic::r1(), 2, &gamma_alphabet())
//! else { panic!("Γω is an obstruction") };
//! assert_eq!(chain.len(), 19); // 2·3^k + 1 at horizon k = 2
//!
//! // S1 becomes solvable at exactly its round bound.
//! assert!(solvable_by(&classic::s1(), 2, &gamma_alphabet()).is_solvable());
//! ```

pub mod cache;
pub mod checker;
pub mod views;

pub use cache::{CacheAnswer, HorizonVerdicts};
pub use checker::{
    first_solvable_horizon, solvable_by, Budget, ChainStep, Check, CheckResult, HorizonOutcome,
};
pub use views::{ViewArena, ViewId};
