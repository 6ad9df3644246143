//! The level loop CCPD and PCCD share.
//!
//! Both drivers run Apriori's iterations the same way: stop at the
//! `max_k` cap or when `F_{k-1}` cannot join, count `C_k`, select `F_k`
//! in the master's `extract` phase, record [`IterStats`], and stop after
//! the first empty level. What differs — candidate generation, the tree
//! build, counting, its reduction and the selection of `F_k` — is the
//! driver's per-level step. Sequential Apriori keeps its own loop: it is
//! the oracle both drivers are checked against.

use crate::config::ParallelConfig;
use crate::stats::ParallelRunStats;
use arm_core::{FrequentLevel, IterStats, MiningResult};
use arm_dataset::Database;
use arm_faults::{MiningError, RunControl};
use arm_hashtree::WorkMeter;
use arm_metrics::{Counter, MetricsRegistry};
use std::time::Instant;

/// One counted level, handed back by a driver's per-level step.
pub(crate) struct Counted {
    /// `|C_k|`.
    pub n_candidates: usize,
    pub fanout: u32,
    pub join_pairs: u64,
    pub tree_bytes: usize,
    pub tree_nodes: u32,
    /// Per-thread counting meters of this level.
    pub meters: Vec<WorkMeter>,
    /// Reduces the level's counters and selects `F_k` at the given
    /// minimum support; runs in the `extract` phase.
    pub select: Box<dyn FnOnce(u32) -> FrequentLevel>,
}

/// Runs iterations `k ≥ 2` from `f1`. `step(prev, k)` counts `C_k`
/// from `F_{k-1}`, or returns `None` when no candidate survives
/// generation.
pub(crate) fn run_levels(
    cfg: &ParallelConfig,
    ctrl: &RunControl,
    metrics: &MetricsRegistry,
    run_start: Instant,
    db: &Database,
    f1: FrequentLevel,
    mut step: impl FnMut(&FrequentLevel, u32) -> Result<Option<Counted>, MiningError>,
) -> Result<(MiningResult, ParallelRunStats), MiningError> {
    let p = metrics.n_threads();
    let min_support = cfg.base.min_support.absolute(db.len());
    let mut run_meters = vec![WorkMeter::default(); p];
    let mut iter_stats = vec![IterStats {
        k: 1,
        n_candidates: db.n_items() as usize,
        n_frequent: f1.len(),
        fanout: 0,
        tree_bytes: 0,
        tree_nodes: 0,
        join_pairs: 0,
        meter: WorkMeter::default(),
    }];
    // Uniform `max_k` semantics: a cap of 0 admits no level at all (the
    // loop then stops at once on `k > m`).
    let mut levels = if cfg.base.max_k == Some(0) {
        Vec::new()
    } else {
        vec![f1]
    };
    for k in 2u32.. {
        if cfg.base.max_k.is_some_and(|m| k > m) {
            break;
        }
        let Some(prev) = levels.last().filter(|l| l.len() >= 2) else {
            break;
        };
        let Some(level) = step(prev, k)? else { break };

        let span = metrics.phase("extract", k);
        let fk = (level.select)(min_support);
        span.finish_serial();

        let mut meter = WorkMeter::default();
        for (rm, m) in run_meters.iter_mut().zip(&level.meters) {
            rm.merge(m);
            meter.merge(m);
        }
        iter_stats.push(IterStats {
            k,
            n_candidates: level.n_candidates,
            n_frequent: fk.len(),
            fanout: level.fanout,
            tree_bytes: level.tree_bytes,
            tree_nodes: level.tree_nodes,
            join_pairs: level.join_pairs,
            meter,
        });
        if fk.is_empty() {
            break;
        }
        levels.push(fk);
    }

    // Successful runs fold the fault-layer tallies into the report; runs
    // that returned Err above discard their registry with everything else.
    metrics
        .shard(0)
        .add(Counter::FaultsInjected, ctrl.faults.injected());
    let result = MiningResult {
        levels,
        iter_stats,
        min_support,
    };
    let stats = ParallelRunStats {
        n_threads: p,
        phases: metrics.take_phases(),
        wall: run_start.elapsed(),
        count_meters: run_meters,
        metrics: metrics.snapshot(),
    };
    Ok((result, stats))
}
