//! Property-based differential testing for the `cmp-tlp` workspace.
//!
//! The reproduction's credibility rests on three independently built
//! models — the analytic Section-2 equations, the cycle-level simulator
//! with its power/thermal stack, and the physical leakage reference —
//! agreeing with each other within the paper's stated error bounds.
//! Hand-picked point tests freeze a few such agreements; this crate
//! generalizes them to *properties* checked over seeded random inputs,
//! so aggressive refactors keep being squeezed against the whole input
//! space rather than a handful of remembered points.
//!
//! Everything is in-tree and dependency-free, built on the workspace's
//! own [`SplitMix64`](tlp_tech::rng::SplitMix64):
//!
//! - [`prop`] — the tiny framework: a [`Property`] couples a seeded
//!   generator, a shrinker, and a checker; [`Property::run`] draws
//!   `cases` inputs from a run seed, and a failure is automatically
//!   shrunk and reported with the exact per-case seed needed to replay
//!   it in isolation ([`Property::replay`]).
//! - [`gen`] / [`shrink`] — small combinator helpers for generators and
//!   shrinkers.
//! - [`oracles`] — the physics-layer differential oracles: fitted
//!   leakage formula vs. the BSIM-style reference within the paper's
//!   per-node bounds, cached [`LuFactorization`](tlp_tech::linalg::LuFactorization)
//!   solves vs. fresh `solve_dense` on core-tile conductance matrices,
//!   and thermal steady state vs. long-horizon transient convergence.
//!
//! The experiment-layer oracles (serial-vs-parallel sweep byte-identity,
//! analytic-vs-simulator scenario agreement) live in `cmp_tlp::checks`,
//! which layers on this crate; the `cmp-tlp check` CLI subcommand runs
//! the assembled suite standalone.
//!
//! # Quick example
//!
//! ```
//! use tlp_check::{CheckConfig, Property};
//!
//! // "Addition is commutative over small pairs."
//! let prop = Property::new(
//!     "add-commutes",
//!     "a + b == b + a",
//!     |rng| (rng.gen_range_u64(0..100), rng.gen_range_u64(0..100)),
//!     |_| Vec::new(),
//!     |&(a, b)| {
//!         if a + b == b + a {
//!             Ok(())
//!         } else {
//!             Err(format!("{a} + {b} is not commutative"))
//!         }
//!     },
//! );
//! let report = prop.run(&CheckConfig { seed: 1, cases: 64 });
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gen;
pub mod oracles;
pub mod prop;
pub mod server_oracles;
pub mod shrink;
pub mod sim_oracles;

pub use prop::{
    case_seed, CheckConfig, Cost, Counterexample, Property, PropertyReport, SuiteReport,
};
