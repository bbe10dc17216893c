//! # minobs-sim — synchronous network execution under omission faults
//!
//! The substrate for Section V's experiments: a synchronous message-passing
//! network on an arbitrary [`minobs_graphs::Graph`], where each round every
//! node sends at most one message per incident edge, an **adversary**
//! selects which directed edges lose their message (the round's letter from
//! `Σ_G`), survivors are delivered, and every node steps its state machine.
//!
//! * [`network`] — the engine: [`network::NodeProtocol`],
//!   [`network::SyncNetwork`], consensus auditing over `n` nodes. It is
//!   the one network engine and steps every round on the calling thread;
//! * [`adversary`] — the fault environments: no-fault, random-`f` (the
//!   `O_f` scheme), the `Γ_C` cut adversary scripted by a two-process
//!   scenario through `ρ⁻¹`, adaptive cut strategies, and explicit scripts;
//! * [`trace`] — per-run statistics and invariant audits.
//!
//! The two-process engine of `minobs-core` is the `n = 2` special case;
//! [`adversary::CutAdversary`] is exactly the bridge the paper's proof of
//! Theorem V.1 walks across.
//!
//! ```
//! use minobs_graphs::{cut_partition, generators};
//! use minobs_sim::adversary::CutAdversary;
//!
//! // The Γ_C adversary on a barbell graph, scripted by a two-process
//! // scenario: DropWhite letters silence all A→B cut arcs.
//! let g = generators::barbell(4, 2);
//! let p = cut_partition(&g).unwrap();
//! let mut adv = CutAdversary::new(&p, "(w)".parse().unwrap());
//! use minobs_sim::Adversary;
//! let drops = adv.select_drops(0, &[]);
//! assert_eq!(drops.len(), p.f());
//! ```

pub mod adversary;
pub mod network;
pub mod trace;

pub use adversary::{Adversary, CutAdversary, NoFault, RandomOmissions, ScriptedAdversary};
pub use network::{run_network, NetOutcome, NetVerdict, NodeProtocol, SyncNetwork};
pub use trace::RunStats;
