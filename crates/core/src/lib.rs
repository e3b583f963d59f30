//! **Tetris** — the geometric-resolution join algorithm of
//! *"Joins via Geometric Resolutions: Worst-case and Beyond"*
//! (Abo Khamis, Ngo, Ré, Rudra — PODS 2015).
//!
//! Tetris solves the **Box Cover Problem**: given (oracle access to) a set
//! of dyadic gap boxes `B`, list every point of the output space not
//! covered by any box. By Proposition 3.6 this *is* join evaluation when
//! `B` is the pooled gap set of the query's indexes.
//!
//! The same core routine ([`Tetris`], Algorithms 1–2) achieves all of the
//! paper's bounds depending on initialization and attribute order:
//!
//! | variant | init | bound |
//! |---------|------|-------|
//! | [`Tetris::preloaded`] | `A ← B` | `Õ(N^fhtw + Z)` worst-case (Thm 4.6) |
//! | [`Tetris::reloaded`]  | `A ← ∅` | `Õ(\|C\|^{w+1} + Z)` certificate (Thm 4.7/4.9) |
//! | [`balance::TetrisLB`] | lift to 2n−2 dims | `Õ(\|C\|^{n/2} + Z)` (Thm 4.11) |
//!
//! Disabling resolvent caching ([`TetrisConfig::cache_resolvents`])
//! restricts the engine to **Tree Ordered Geometric Resolution**
//! (Section 5.1), used to reproduce the lower-bound separations.
//!
//! The default driver runs one **incremental skeleton descent**: a
//! persistent stack of half-box frames absorbs output/load events in
//! place instead of restarting from the universe (see [`Descent`]). The
//! paper-literal restart loop remains available as [`Descent::Restart`]
//! (the Section 5 re-treading measurements depend on it).
//! [`Descent::Parallel`] spreads the same descent over a
//! work-stealing thread pool (the `executor` crate): pending sibling
//! frames are donated to starving workers against per-task overlay stores,
//! and the output tuple sequence stays bit-identical to the sequential
//! run (see `parallel`'s module docs for the merge protocol).
//!
//! ```
//! use boxstore::SetOracle;
//! use dyadic::{DyadicBox, Space};
//! use tetris_core::Tetris;
//!
//! // Example 4.4 / Figure 10: a 2-attribute BCP over 2-bit domains.
//! let space = Space::uniform(2, 2);
//! let boxes = ["λ,0", "00,λ", "λ,11", "10,1"]
//!     .iter()
//!     .map(|s| DyadicBox::parse(s).unwrap());
//! let oracle = SetOracle::new(space, boxes);
//! let out = Tetris::reloaded(&oracle).run();
//! assert_eq!(out.tuples, vec![vec![1, 2], vec![3, 2]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
mod engine;
pub mod klee;
mod parallel;
mod stats;
mod trace;

pub use engine::{prepare_with_config, Descent, Tetris, TetrisConfig, TetrisOutput};
pub use parallel::DEFAULT_MERGE_CAP;
pub use stats::TetrisStats;
pub use trace::TraceEvent;
