//! PCCD — Partitioned Candidate, Common Database (§3.3).
//!
//! The comparison baseline: candidates are split across workers, each
//! worker builds a *local* hash tree and scans the **entire** database
//! against it. Total counting work is therefore ~`P×` the CCPD work —
//! the paper measured a speed-*down* and dropped the approach; we keep it
//! as the baseline it is (Fig. 11 commentary, DESIGN.md experiment index).

use crate::config::ParallelConfig;
use crate::levels::{run_levels, Counted};
use crate::scratch::ScratchPool;
use crate::stats::ParallelRunStats;
use arm_faults::{try_run_threads, MiningError, RunControl};
use arm_metrics::{Counter, MetricsRegistry};

use arm_core::{
    count_singletons, equivalence_classes, f1_items, frequent_from_counts, generate_class,
    level_hash, FrequentLevel, MiningResult,
};
use arm_dataset::Database;
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, ItemFilter, Tally, TreeBuilder, WorkMeter,
};
use std::time::Instant;

/// Runs PCCD, returning the mining result (identical to sequential) and
/// phase statistics.
///
/// Infallible wrapper over [`try_mine`] with an inert [`RunControl`]; a
/// contained worker panic is re-raised on the caller.
pub fn mine(db: &Database, cfg: &ParallelConfig) -> (MiningResult, ParallelRunStats) {
    try_mine(db, cfg, &RunControl::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs PCCD under a [`RunControl`]: cancellation is observed once per
/// worker scan; fault-plan sites fire in phase `count`. Same `Err`
/// guarantees as [`crate::ccpd::try_mine`], including the
/// [`ParallelConfig::validate`] check before any thread starts.
///
/// Every [`Scheduling`](arm_exec::Scheduling) mode counts the same way:
/// each thread scans the whole database against its own bin's tree, at
/// every level (`C_2` included).
pub fn try_mine(
    db: &Database,
    cfg: &ParallelConfig,
    ctrl: &RunControl,
) -> Result<(MiningResult, ParallelRunStats), MiningError> {
    cfg.validate()?;
    let run_start = Instant::now();
    let p = cfg.n_threads.max(1);
    let min_support = cfg.base.min_support.absolute(db.len());
    let metrics = MetricsRegistry::new(p);

    // F1 is identical to CCPD (histograms are cheap; keep it serial here
    // to emphasize that PCCD's pathology is in the counting phase).
    let span = metrics.phase("f1", 1);
    let counts = count_singletons(db, 0..db.len());
    let f1 = frequent_from_counts(&counts, min_support);
    span.finish_serial();
    ctrl.gate("f1", run_start)?;

    let f1_item_list = f1_items(&f1);
    // Same pooling as CCPD: one scratch per worker across all iterations.
    let scratch_pool = ScratchPool::new(p, db.n_items());
    run_levels(cfg, ctrl, &metrics, run_start, db, f1, |prev, k| {
        // Sequential candidate generation (master), as in the paper's
        // PCCD variant; the candidates are then *partitioned*.
        let span = metrics.phase("candgen", k);
        let classes = equivalence_classes(prev);
        let mut cands = CandidateSet::new(k);
        let mut scratch = Vec::with_capacity(k as usize);
        let mut join_pairs = 0u64;
        for class in &classes {
            join_pairs += generate_class(prev, class.clone(), &mut cands, &mut scratch);
        }
        span.finish_serial();
        ctrl.gate("candgen", run_start)?;
        if cands.is_empty() {
            return Ok(None);
        }

        let (fanout, hash) = level_hash(&cfg.base, &classes, k, &f1_item_list, db.n_items());

        // Partition candidates across threads (greedy over uniform
        // weights ≈ equal tree sizes, §3.2.1).
        let weights = vec![1u64; cands.len()];
        let assignment = cfg.candgen_scheme.assign(&weights, p);

        // The paper's formulation: bin `t`'s owner builds its local tree
        // over its candidates and scans the entire database alone.
        let span = metrics.phase("count", k);
        let opts = CountOptions {
            short_circuit: cfg.base.short_circuit,
            visited: cfg.base.visited,
        };
        let bins: Vec<Bin> = try_run_threads(p, "count", &ctrl.cancel, |t| {
            let shard = metrics.shard(t);
            let ids = &assignment.bins[t]; // sorted → lexicographic subset
            let mut local_set = CandidateSet::new(k);
            for &id in ids {
                local_set.push(cands.get(id as u32));
            }
            let mut bin = Bin::default();
            // Each thread's count is one indivisible full-database scan,
            // so this single checkpoint is its whole cancellation surface
            // — the latency bound counts it as one claim. The phase gate
            // below discards the empty partial on cancellation.
            ctrl.faults.fire("count", t, 0);
            if local_set.is_empty() || !ctrl.cancel.checkpoint() {
                return bin;
            }
            // Local trees are private, so lock telemetry here records the
            // uncontended baseline PCCD trades CCPD's shared tree for.
            let builder = TreeBuilder::new(&local_set, &hash, cfg.base.leaf_threshold);
            builder.insert_all_tallied(shard);
            let tally = Tally::new(freeze_policy(&builder, cfg.base.placement), 1);
            let tree = tally.tree();
            shard.add(Counter::TreeBytes, tree.total_bytes() as u64);
            shard.add(Counter::TreeNodes, tree.n_nodes() as u64);
            // Each worker trims against its *own* candidate subset — a
            // tighter (still lossless) filter than the global one.
            let filter = ItemFilter::from_candidates(&local_set, db.n_items());
            shard.incr(Counter::ScratchRetargets);
            let mut scratch = scratch_pool.slot(t);
            scratch.retarget(tree.n_nodes());
            tally.with_counter(0, Some(shard), |counter| {
                tree.count_partition(
                    &hash,
                    db,
                    0..db.len(),
                    Some(&filter),
                    &mut scratch,
                    counter,
                    opts,
                    &mut bin.meter,
                )
            });
            shard.add(Counter::ScratchStampBytes, scratch.stamp_bytes() as u64);
            bin.tree_bytes = tree.total_bytes();
            bin.tree_nodes = tree.n_nodes();
            bin.ids = ids.iter().map(|&i| i as u32).collect();
            bin.counts = tally.counts();
            bin
        })?;
        span.finish(bins.iter().map(|b| b.meter.work_units()).collect());
        ctrl.gate("count", run_start)?;

        Ok(Some(Counted {
            n_candidates: cands.len(),
            fanout,
            join_pairs,
            tree_bytes: bins.iter().map(|b| b.tree_bytes).sum(),
            tree_nodes: bins.iter().map(|b| b.tree_nodes).sum(),
            meters: bins.iter().map(|b| b.meter).collect(),
            // Scatter each bin's counts back to global candidate ids.
            select: Box::new(move |min_support| {
                let mut counts = vec![0u32; cands.len()];
                for bin in &bins {
                    for (&id, &c) in bin.ids.iter().zip(&bin.counts) {
                        counts[id as usize] = c;
                    }
                }
                FrequentLevel::select(&cands, &counts, min_support)
            }),
        }))
    })
}

/// One thread's bin after counting: its global candidate ids with their
/// counts (slot-aligned), its meter and its local tree's size.
#[derive(Default)]
struct Bin {
    ids: Vec<u32>,
    counts: Vec<u32>,
    meter: WorkMeter,
    tree_bytes: usize,
    tree_nodes: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccpd;
    use arm_core::{mine as mine_seq, AprioriConfig, Support};

    fn paper_db() -> Database {
        Database::from_transactions(
            8,
            [
                vec![1u32, 4, 5],
                vec![1, 2],
                vec![3, 4, 5],
                vec![1, 2, 4, 5],
            ],
        )
        .unwrap()
    }

    fn base_cfg() -> AprioriConfig {
        AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        }
    }

    #[test]
    fn matches_sequential() {
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        for p in [1usize, 2, 3] {
            let (r, _) = mine(&db, &ParallelConfig::new(base_cfg(), p));
            assert_eq!(r.all_itemsets(), expected, "P={p}");
        }
    }

    #[test]
    fn duplicated_scan_work_exceeds_ccpd() {
        // PCCD's defining pathology: total counting work grows with P
        // because every thread scans the full database. Each thread trims
        // transactions against its own bin, and a transaction trimmed
        // below k items is not tallied. At k=3 the one candidate leaves
        // two of the three bins empty, so the run-wide tally shows less
        // than the duplication; k=2 is the iteration where all three bins
        // hold candidates, so it is the one compared.
        let db = paper_db();
        let (ccpd_r, _) = ccpd::mine(&db, &ParallelConfig::new(base_cfg(), 3));
        let (pccd_r, _) = mine(&db, &ParallelConfig::new(base_cfg(), 3));
        let txns_at_k2 = |r: &MiningResult| {
            let it = r.iter_stats.iter().find(|s| s.k == 2).expect("k=2 ran");
            it.meter.txns
        };
        let ccpd_txns = txns_at_k2(&ccpd_r);
        let pccd_txns = txns_at_k2(&pccd_r);
        assert!(
            pccd_txns > 2 * ccpd_txns,
            "PCCD txns {pccd_txns} vs CCPD {ccpd_txns}"
        );
    }

    #[test]
    fn shared_placement_tallies_every_hit() {
        // Under `L-*` policies each bin counts into its own segregated
        // array, and every increment is tallied as in CCPD.
        use arm_hashtree::PlacementPolicy;
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        let cfg = ParallelConfig::new(base_cfg().with_placement(PlacementPolicy::LGpp), 3);
        let (r, stats) = mine(&db, &cfg);
        assert_eq!(r.all_itemsets(), expected);
        let hits: u64 = stats.count_meters.iter().map(|m| m.hits).sum();
        assert!(hits > 0);
        let increments = stats.metrics.total(Counter::CtrIncrements);
        if MetricsRegistry::enabled() {
            assert_eq!(increments, hits);
        } else {
            assert_eq!(increments, 0);
        }
    }

    #[test]
    fn handles_more_threads_than_candidates() {
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        let (r, _) = mine(&db, &ParallelConfig::new(base_cfg(), 8));
        assert_eq!(r.all_itemsets(), expected);
    }
}
