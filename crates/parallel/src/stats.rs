//! Phase-level statistics and the simulated-speedup work model.
//!
//! Every mining phase records its wall time and (when it runs on multiple
//! threads) a per-thread work tally in abstract units. The model in
//! [`ParallelRunStats::simulated_speedup`] derives the speedup the run
//! *would* achieve on dedicated cores: a parallel phase's cost shrinks
//! from `sum(work)` to `max(work)` (its critical path), serial phases
//! don't shrink at all (Amdahl).
//!
//! This is the substitution documented in DESIGN.md for the paper's
//! 12-processor SGI host: load-balance effects — the whole point of the
//! COMP/TREE optimizations — are properties of the *work distribution*,
//! which the model measures exactly, independent of how many physical
//! cores the benchmark host has. On a genuinely multi-core host, compare
//! with wall-clock ([`ParallelRunStats::wall`]) across thread counts too.

use arm_hashtree::WorkMeter;
use arm_metrics::MetricsSnapshot;
use std::time::Duration;

/// One recorded phase of a parallel mining run.
///
/// Since the observability layer landed this is [`arm_metrics::PhaseRecord`]
/// (the drivers record phases through a
/// [`arm_metrics::MetricsRegistry`]); the historical `PhaseStat` name is
/// kept as the crate's public alias.
pub use arm_metrics::PhaseRecord as PhaseStat;

/// Statistics of one parallel mining run.
#[derive(Debug, Clone)]
pub struct ParallelRunStats {
    /// Number of worker threads the run used.
    pub n_threads: usize,
    /// All phases, in execution order.
    pub phases: Vec<PhaseStat>,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Per-thread counting meters, merged across iterations.
    pub count_meters: Vec<WorkMeter>,
    /// Per-thread telemetry counters (lock contention, counter CAS
    /// retries, scratch/tree tallies). All-zero when the `metrics`
    /// feature is off.
    pub metrics: MetricsSnapshot,
}

impl ParallelRunStats {
    /// Sum of phase wall times attributed to serial phases.
    pub fn serial_wall(&self) -> Duration {
        self.phases
            .iter()
            .filter(|p| p.thread_work.is_none())
            .map(|p| p.wall)
            .sum()
    }

    /// Work-model speedup over an ideal 1-thread execution of the same
    /// work (see module docs): [`ParallelRunStats::serialized_time`] over
    /// [`ParallelRunStats::simulated_time`], or 1.0 for a run that
    /// recorded no time.
    ///
    /// The model treats each phase's wall time as proportional to the
    /// total work it performed, which holds exactly when the host
    /// serializes threads (1 core) and approximately otherwise.
    pub fn simulated_speedup(&self) -> f64 {
        let par = self.simulated_time();
        if par == 0.0 {
            1.0
        } else {
            self.serialized_time() / par
        }
    }

    /// Estimated run time on `n_threads` dedicated cores, in seconds:
    /// serial phases at their measured wall, parallel phases shrunk to
    /// their critical path (`wall * max(work)/sum(work)`). Comparable
    /// across configurations measured on the same host; the denominator
    /// of [`ParallelRunStats::simulated_speedup`].
    pub fn simulated_time(&self) -> f64 {
        critical_path(self.phases.iter())
    }

    /// Total serialized work time in seconds (the 1-core equivalent):
    /// the sum of all phase walls.
    pub fn serialized_time(&self) -> f64 {
        self.phases.iter().map(|p| p.wall.as_secs_f64()).sum()
    }

    /// [`ParallelRunStats::simulated_time`] restricted to the named
    /// phases. The paper's Figs. 8–10 report improvements "only based on
    /// the computation time"; passing `["candgen", "build", "count"]`
    /// reproduces that accounting (it excludes freeze/extract/reduce
    /// bookkeeping whose jitter would otherwise drown small effects).
    pub fn simulated_time_of(&self, names: &[&str]) -> f64 {
        critical_path(self.phases.iter().filter(|p| names.contains(&p.name)))
    }

    /// The worst per-phase imbalance across all counting phases — the
    /// quantity the COMP optimization attacks.
    pub fn max_imbalance(&self, phase_name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .map(|p| p.imbalance())
            .fold(1.0, f64::max)
    }

    /// Imbalance of the single heaviest (largest total work) phase named
    /// `phase_name` — the representative figure for the paper's balancing
    /// plots, immune to degenerate late iterations where almost no work
    /// exists to balance.
    pub fn imbalance_of_heaviest(&self, phase_name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .max_by_key(|p| p.thread_work.as_ref().map_or(0, |w| w.iter().sum::<u64>()))
            .map_or(1.0, |p| p.imbalance())
    }

    /// Total work units across all threads for phases named `phase_name`.
    pub fn total_work(&self, phase_name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .filter_map(|p| p.thread_work.as_ref())
            .map(|w| w.iter().sum::<u64>())
            .sum()
    }

    /// Max-thread work units for phases named `phase_name`, summed over
    /// iterations (the critical path of that phase type).
    pub fn critical_work(&self, phase_name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .filter_map(|p| p.thread_work.as_ref())
            .map(|w| w.iter().copied().max().unwrap_or(0))
            .sum()
    }
}

/// The work model's run time of `phases`, in seconds: a serial phase
/// costs its wall time, a parallel one `wall * max(work)/sum(work)`.
fn critical_path<'a>(phases: impl Iterator<Item = &'a PhaseStat>) -> f64 {
    let mut par = 0.0f64;
    for ph in phases {
        let w = ph.wall.as_secs_f64();
        let (sum, max) = ph.thread_work.as_ref().map_or((0, 0), |tw| {
            (
                tw.iter().sum::<u64>(),
                tw.iter().copied().max().unwrap_or(0),
            )
        });
        // A serial phase, or one that recorded no work units, cannot
        // shrink. Parenthesized so `max == sum` contributes exactly `w`:
        // `(w * max) / sum` can round one ulp above `w`, which would push
        // the speedup below 1.0.
        par += if sum > 0 {
            w * (max as f64 / sum as f64)
        } else {
            w
        };
    }
    par
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(phases: Vec<PhaseStat>) -> ParallelRunStats {
        ParallelRunStats {
            n_threads: 2,
            phases,
            wall: Duration::from_secs(1),
            count_meters: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    fn ph(name: &'static str, wall_ms: u64, work: Option<Vec<u64>>) -> PhaseStat {
        PhaseStat {
            name,
            k: 2,
            wall: Duration::from_millis(wall_ms),
            thread_work: work,
        }
    }

    #[test]
    fn perfectly_balanced_two_threads_doubles() {
        let s = stats(vec![ph("count", 100, Some(vec![50, 50]))]);
        assert!((s.simulated_speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_serial_fraction_caps_speedup() {
        // Half the time serial: speedup = 1 / (0.5 + 0.25) ≈ 1.333.
        let s = stats(vec![
            ph("freeze", 100, None),
            ph("count", 100, Some(vec![50, 50])),
        ]);
        assert!((s.simulated_speedup() - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.serial_wall(), Duration::from_millis(100));
    }

    #[test]
    fn imbalance_degrades_speedup() {
        let balanced = stats(vec![ph("count", 100, Some(vec![50, 50]))]);
        let skewed = stats(vec![ph("count", 100, Some(vec![90, 10]))]);
        assert!(skewed.simulated_speedup() < balanced.simulated_speedup());
        assert!((skewed.phases[0].imbalance() - 1.8).abs() < 1e-9);
        assert!((skewed.max_imbalance("count") - 1.8).abs() < 1e-9);
    }

    #[test]
    fn zero_work_phase_is_harmless() {
        let s = stats(vec![ph("count", 0, Some(vec![0, 0]))]);
        assert_eq!(s.simulated_speedup(), 1.0);
        assert_eq!(s.phases[0].imbalance(), 1.0);
    }

    #[test]
    fn max_imbalance_missing_phase_is_one() {
        // No phase with that name ever ran: the fold over an empty
        // iterator must land on the neutral 1.0, not 0 or NaN.
        let s = stats(vec![ph("count", 10, Some(vec![90, 10]))]);
        assert_eq!(s.max_imbalance("build"), 1.0);
        assert_eq!(s.max_imbalance(""), 1.0);
        let empty = stats(Vec::new());
        assert_eq!(empty.max_imbalance("count"), 1.0);
    }

    #[test]
    fn max_imbalance_single_thread_is_one() {
        // One thread is trivially balanced (max == mean), across any
        // number of iterations of the phase.
        let s = stats(vec![
            ph("count", 10, Some(vec![40])),
            ph("count", 10, Some(vec![7])),
        ]);
        assert_eq!(s.max_imbalance("count"), 1.0);
        // Serial phases (no thread work) report 1.0 too.
        let serial = stats(vec![ph("count", 10, None)]);
        assert_eq!(serial.max_imbalance("count"), 1.0);
    }

    #[test]
    fn max_imbalance_takes_worst_iteration() {
        let s = stats(vec![
            ph("count", 10, Some(vec![50, 50])),
            ph("count", 10, Some(vec![90, 10])),
            ph("count", 10, Some(vec![60, 40])),
        ]);
        assert!((s.max_imbalance("count") - 1.8).abs() < 1e-9);
    }

    #[test]
    fn imbalance_of_heaviest_missing_phase_is_one() {
        let s = stats(vec![ph("count", 10, Some(vec![90, 10]))]);
        assert_eq!(s.imbalance_of_heaviest("build"), 1.0);
        let empty = stats(Vec::new());
        assert_eq!(empty.imbalance_of_heaviest("count"), 1.0);
    }

    #[test]
    fn imbalance_of_heaviest_single_thread_is_one() {
        let s = stats(vec![ph("count", 10, Some(vec![123]))]);
        assert_eq!(s.imbalance_of_heaviest("count"), 1.0);
    }

    #[test]
    fn imbalance_of_heaviest_picks_largest_total_work() {
        // The skewed iteration is light (total 10); the heavy iteration
        // (total 100) is balanced. The representative figure follows the
        // heavy one, unlike max_imbalance.
        let s = stats(vec![
            ph("count", 10, Some(vec![9, 1])),
            ph("count", 10, Some(vec![50, 50])),
        ]);
        assert_eq!(s.imbalance_of_heaviest("count"), 1.0);
        assert!((s.max_imbalance("count") - 1.8).abs() < 1e-9);
        // Serial iterations count as zero total work, so a parallel
        // iteration always outranks them.
        let s2 = stats(vec![
            ph("count", 10, None),
            ph("count", 10, Some(vec![30, 10])),
        ]);
        assert!((s2.imbalance_of_heaviest("count") - 1.5).abs() < 1e-9);
    }

    #[test]
    fn work_aggregation() {
        let s = stats(vec![
            ph("count", 10, Some(vec![30, 10])),
            ph("count", 10, Some(vec![20, 20])),
            ph("candgen", 10, Some(vec![5, 5])),
        ]);
        assert_eq!(s.total_work("count"), 80);
        assert_eq!(s.critical_work("count"), 50);
        assert_eq!(s.total_work("candgen"), 10);
    }
}
