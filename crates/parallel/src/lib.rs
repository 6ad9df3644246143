//! Shared-memory parallel association mining: the paper's CCPD algorithm
//! (and the PCCD baseline), with phase-level work accounting.
//!
//! * [`ccpd`] — Common Candidate, Partitioned Database: the algorithm the
//!   paper evaluates throughout (§3.3, Figs. 8–13);
//! * [`pccd`] — Partitioned Candidate, Common Database: the baseline whose
//!   duplicated scans make it a speed-down (kept for the comparison);
//!   both drivers hand their per-level work to one private level loop
//!   that owns the `max_k` and stop rules, `F_k` selection and the run's
//!   statistics;
//! * [`config`] — thread count, candidate-generation balancing scheme,
//!   database partition heuristic;
//! * [`scratch`] — the per-worker counting-scratch pool both drivers keep
//!   alive across iterations;
//! * [`stats`] — per-phase wall/work records and the simulated-speedup
//!   model documented in DESIGN.md;
//! * [`report`] — folds a run into the machine-readable
//!   [`arm_metrics::RunReport`] schema the bench binaries emit.
//!
//! ```
//! use arm_core::{AprioriConfig, Support};
//! use arm_dataset::Database;
//! use arm_parallel::{ccpd, ParallelConfig};
//!
//! let db = Database::from_transactions(
//!     8,
//!     [vec![1u32, 4, 5], vec![1, 2], vec![3, 4, 5], vec![1, 2, 4, 5]],
//! )
//! .unwrap();
//! let base = AprioriConfig {
//!     min_support: Support::Absolute(2),
//!     leaf_threshold: 2,
//!     ..AprioriConfig::default()
//! };
//! let (result, stats) = ccpd::mine(&db, &ParallelConfig::new(base, 2));
//! assert_eq!(result.support_of(&[1, 4, 5]), Some(2));
//! assert!(stats.simulated_speedup() >= 1.0);
//! ```

pub mod ccpd;
pub mod config;
mod levels;
pub mod pccd;
pub mod report;
pub mod scratch;
pub mod stats;

pub use arm_exec::Scheduling;
pub use arm_faults::{try_run_threads, CancelToken, FaultKind, FaultPlan, MiningError, RunControl};
pub use ccpd::record_exec;
pub use config::{DbPartition, ParallelConfig};
pub use report::run_report;
pub use scratch::ScratchPool;
pub use stats::{ParallelRunStats, PhaseStat};
