//! CCPD — Common Candidate, Partitioned Database (§3.3).
//!
//! One shared candidate hash tree; the database is logically split among
//! the workers. Every phase mirrors the paper:
//!
//! * `F_1`: per-thread histograms over database blocks + sum reduction;
//! * `C_2` (k = 2): no candidates and no tree — each worker counts the
//!   pairs of frequent items of its transactions into a private
//!   upper-triangular array over `F_1` (Zaki et al., KDD'97), and
//!   `extract` sums the arrays and emits `F_2`;
//! * for k ≥ 3, candidate generation: equivalence classes balanced across
//!   threads by the configured scheme (§3.1.2), with adaptive parallelism
//!   (§3.1.3);
//! * tree build: all threads insert into the shared tree under per-leaf
//!   locks (§3.1.4);
//! * freeze: the placement policy's memory image is laid out (GPP's remap);
//! * support counting: each thread scans its partition against the shared
//!   tree, with counters inline / segregated / privatized per policy
//!   (`LCA-GPP`, the default, gives each thread its own array);
//! * extraction: the master thread selects `F_k` (in the level loop CCPD
//!   shares with PCCD).
//!
//! The data-parallel phases (F1, tree build, counting) draw their work from
//! an [`arm_exec::ChunkPool`] seeded with the phase's static split: under
//! `Scheduling::Static` each thread receives exactly its block (the paper's
//! behavior and the differential oracle), while `Scheduling::Stealing`
//! re-balances the same indices at run time without changing any result.
//!
//! Every phase records wall time and per-thread work for the speedup model
//! in [`crate::stats`].

use crate::config::{DbPartition, ParallelConfig};
use crate::levels::{run_levels, Counted};
use crate::scratch::ScratchPool;
use crate::stats::ParallelRunStats;
use arm_core::{
    class_weight, count_singletons_into, equivalence_classes, f1_items, frequent_from_counts,
    generate_class, level_hash, FrequentLevel, MiningResult,
};
use arm_dataset::{block_ranges, weighted_ranges, weighted_ranges_for_k, Database, Item};
use arm_exec::ChunkPool;
use arm_faults::{try_run_threads, CancelToken, MiningError, RunControl};
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, ItemFilter, Tally, TreeBuilder, WorkMeter,
};
use arm_metrics::{Counter, MetricsRegistry};
use std::ops::Range;
use std::time::Instant;

/// Runs CCPD, returning the mining result (identical to the sequential
/// algorithm's) and the run's phase statistics.
///
/// Infallible wrapper over [`try_mine`] with an inert [`RunControl`]: no
/// token, no faults. A worker panic — impossible to observe through this
/// API before the fault layer existed — is re-raised on the caller.
pub fn mine(db: &Database, cfg: &ParallelConfig) -> (MiningResult, ParallelRunStats) {
    try_mine(db, cfg, &RunControl::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs CCPD under a [`RunControl`]: the token is checkpointed at every
/// chunk claim and phase boundary, worker panics are contained and
/// returned as [`MiningError::WorkerPanicked`], and armed fault-plan
/// sites fire at each instrumented claim (phases `f1`, `build`, `count`).
/// A configuration [`ParallelConfig::validate`] rejects is returned as
/// [`MiningError::InvalidConfig`] before any thread starts.
///
/// On `Err` every worker thread has joined and all shared state built by
/// the run is discarded; retrying with a live control yields results
/// bit-identical to an undisturbed run.
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

    // ---- F1: parallel histograms ----------------------------------------
    let span = metrics.phase("f1", 1);
    let ranges = block_ranges(db.len(), p);
    let pool = ChunkPool::new(&ranges, cfg.scheduling).with_cancel_token(ctrl.cancel.clone());
    let partials: Vec<(Vec<u32>, u64)> = try_run_threads(p, "f1", &ctrl.cancel, |t| {
        let mut singles = vec![0u32; db.n_items() as usize];
        let mut items = 0u64;
        let mut chunk = 0u64;
        while let Some(r) = pool.next(t) {
            ctrl.faults.fire("f1", t, chunk);
            chunk += 1;
            items += (db.offsets()[r.end] - db.offsets()[r.start]) as u64;
            count_singletons_into(db, r, &mut singles);
        }
        (singles, items)
    })?;
    record_exec(&metrics, &pool);
    ctrl.gate("f1", run_start)?;
    // Work units stay what they were under the static split — items
    // actually scanned by each thread — so imbalance remains comparable
    // across scheduling modes.
    let f1_work: Vec<u64> = partials.iter().map(|(_, items)| *items).collect();
    span.finish(f1_work);

    let span = metrics.phase("reduce", 1);
    let mut counts = vec![0u32; db.n_items() as usize];
    for (part, _) in &partials {
        for (c, v) in counts.iter_mut().zip(part) {
            *c += v;
        }
    }
    let f1 = frequent_from_counts(&counts, min_support);
    span.finish_serial();

    let f1_item_list = f1_items(&f1);
    // One counting scratch per worker lives across all iterations
    // (re-targeted per tree) instead of being reallocated.
    let scratch_pool = ScratchPool::new(p, db.n_items());
    run_levels(cfg, ctrl, &metrics, run_start, db, f1, |prev, k| {
        if k == 2 {
            return count_pairs(db, cfg, ctrl, &metrics, run_start, &f1_item_list).map(Some);
        }
        // Candidate generation.
        let span = metrics.phase("candgen", k);
        let classes = equivalence_classes(prev);
        let weights: Vec<u64> = classes.iter().map(class_weight).collect();
        let (cands, candgen_work, join_pairs) = if p > 1 && prev.len() >= cfg.parallel_candgen_min {
            parallel_candgen(prev, &classes, &weights, cfg, p, &ctrl.cancel)?
        } else {
            // Adaptive parallelism: not enough frequent itemsets to be
            // worth forking (§3.1.3).
            let mut out = CandidateSet::new(k);
            let mut scratch = Vec::with_capacity(k as usize);
            let mut pairs = 0u64;
            for class in &classes {
                pairs += generate_class(prev, class.clone(), &mut out, &mut scratch);
            }
            let mut work = vec![0u64; p];
            work[0] = pairs;
            (out, work, pairs)
        };
        span.finish(candgen_work);
        ctrl.gate("candgen", run_start)?;
        if cands.is_empty() {
            return Ok(None);
        }
        debug_assert!(cands.is_sorted_unique());

        let (fanout, hash) = level_hash(&cfg.base, &classes, k, &f1_item_list, db.n_items());

        // Parallel tree build (shared tree, per-leaf locks). The per-leaf
        // lock telemetry of §3.1.4 is attributed to each inserter's shard.
        let span = metrics.phase("build", k);
        let builder = TreeBuilder::new(&cands, &hash, cfg.base.leaf_threshold);
        let cand_ranges = block_ranges(cands.len(), p);
        let pool =
            ChunkPool::new(&cand_ranges, cfg.scheduling).with_cancel_token(ctrl.cancel.clone());
        let build_work: Vec<u64> = try_run_threads(p, "build", &ctrl.cancel, |t| {
            let shard = metrics.shard(t);
            let mut inserted = 0u64;
            let mut chunk = 0u64;
            while let Some(r) = pool.next(t) {
                ctrl.faults.fire("build", t, chunk);
                chunk += 1;
                inserted += r.len() as u64;
                for id in r {
                    builder.insert_tallied(id as u32, shard);
                }
            }
            inserted
        })?;
        record_exec(&metrics, &pool);
        span.finish(build_work);
        ctrl.gate("build", run_start)?;

        // Freeze into the placement policy's image (serial, like the
        // paper's remap).
        let span = metrics.phase("freeze", k);
        let tree = freeze_policy(&builder, cfg.base.placement);
        span.finish_serial();
        let master = metrics.shard(0);
        master.add(Counter::TreeBytes, tree.total_bytes() as u64);
        master.add(Counter::TreeNodes, tree.n_nodes() as u64);

        // Parallel support counting.
        let span = metrics.phase("count", k);
        let opts = CountOptions {
            short_circuit: cfg.base.short_circuit,
            visited: cfg.base.visited,
        };
        // Shared read-only trim filter for this iteration's candidates.
        let filter = ItemFilter::from_candidates(&cands, db.n_items());
        let tally = Tally::new(tree, p);
        let tree = tally.tree();

        // Stealing re-chunks the very same partition the static split
        // would use, so a weighted DbPartition still seeds the deques with
        // its cost estimate and stealing only corrects the residual error.
        let pool = ChunkPool::new(&count_ranges(db, cfg, p, k), cfg.scheduling)
            .with_cancel_token(ctrl.cancel.clone());
        let meters: Vec<WorkMeter> = try_run_threads(p, "count", &ctrl.cancel, |t| {
            let shard = metrics.shard(t);
            let mut scratch = scratch_pool.slot(t);
            scratch.retarget(tree.n_nodes());
            shard.incr(Counter::ScratchRetargets);
            let mut meter = WorkMeter::default();
            tally.with_counter(t, Some(shard), |counter| {
                let mut chunk = 0u64;
                while let Some(r) = pool.next(t) {
                    ctrl.faults.fire("count", t, chunk);
                    chunk += 1;
                    tree.count_partition(
                        &hash,
                        db,
                        r,
                        Some(&filter),
                        &mut scratch,
                        counter,
                        opts,
                        &mut meter,
                    );
                }
            });
            shard.add(Counter::ScratchStampBytes, scratch.stamp_bytes() as u64);
            meter
        })?;
        record_exec(&metrics, &pool);
        ctrl.gate("count", run_start)?;
        span.finish(meters.iter().map(|m| m.work_units()).collect());

        Ok(Some(Counted {
            n_candidates: cands.len(),
            fanout,
            join_pairs,
            tree_bytes: tree.total_bytes(),
            tree_nodes: tree.n_nodes(),
            meters,
            select: Box::new(move |min_support| {
                FrequentLevel::select(&cands, &tally.counts(), min_support)
            }),
        }))
    })
}

/// The counting phase's static split of the database at iteration `k`.
fn count_ranges(db: &Database, cfg: &ParallelConfig, p: usize, k: u32) -> Vec<Range<usize>> {
    match cfg.db_partition {
        DbPartition::Block => block_ranges(db.len(), p),
        DbPartition::WeightedStatic { kmax } => weighted_ranges(db, p, kmax),
        DbPartition::WeightedPerIteration => weighted_ranges_for_k(db, p, k),
    }
}

/// Counts `C_2` — every pair of `F_1` items — without generating it. Each
/// worker adds the pairs of frequent items in its transactions into its
/// own [`PairTriangle`] array, over the same database split, chunk pool,
/// cancellation checks and `count` fault sites as a tree level; `extract`
/// sums the arrays and emits `F_2`. The meters read as the `C_2` tree's
/// would for hits and transactions: `txns` counts the transactions with
/// at least two frequent items, and every pair is one containment test
/// and one hit.
fn count_pairs(
    db: &Database,
    cfg: &ParallelConfig,
    ctrl: &RunControl,
    metrics: &MetricsRegistry,
    run_start: Instant,
    f1_items: &[Item],
) -> Result<Counted, MiningError> {
    let p = metrics.n_threads();
    let span = metrics.phase("count", 2);
    let triangle = PairTriangle::new(f1_items, db.n_items());
    let pool = ChunkPool::new(&count_ranges(db, cfg, p, 2), cfg.scheduling)
        .with_cancel_token(ctrl.cancel.clone());
    let counted: Vec<(Vec<u32>, WorkMeter)> = try_run_threads(p, "count", &ctrl.cancel, |t| {
        let mut cells = vec![0u32; triangle.n_cells()];
        let mut ranks = Vec::new();
        let mut meter = WorkMeter::default();
        let mut chunk = 0u64;
        while let Some(r) = pool.next(t) {
            ctrl.faults.fire("count", t, chunk);
            chunk += 1;
            for i in r {
                triangle.count(db.transaction(i), &mut ranks, &mut cells, &mut meter);
            }
        }
        (cells, meter)
    })?;
    record_exec(metrics, &pool);
    ctrl.gate("count", run_start)?;
    let (arrays, meters): (Vec<Vec<u32>>, Vec<WorkMeter>) = counted.into_iter().unzip();
    span.finish(meters.iter().map(|m| m.work_units()).collect());

    let n_pairs = triangle.n_cells();
    Ok(Counted {
        n_candidates: n_pairs,
        fanout: 0,
        join_pairs: n_pairs as u64,
        tree_bytes: 0,
        tree_nodes: 0,
        meters,
        select: Box::new(move |min_support| triangle.select(arrays, min_support)),
    })
}

/// `C_2` as a direct-indexed upper triangle over the ranks of `F_1`: the
/// pair of ranks `a < b` owns cell `row(a) + b - a - 1`. Cells are
/// row-major, which is the lexicographic order of the pairs, so `F_2`
/// comes out sorted.
struct PairTriangle {
    /// Rank in `F_1` of every item; `u32::MAX` for an infrequent item.
    rank: Vec<u32>,
    /// `F_1`'s items by rank.
    items: Vec<Item>,
}

impl PairTriangle {
    fn new(f1_items: &[Item], n_items: u32) -> Self {
        let mut rank = vec![u32::MAX; n_items as usize];
        for (r, &item) in f1_items.iter().enumerate() {
            rank[item as usize] = r as u32;
        }
        PairTriangle {
            rank,
            items: f1_items.to_vec(),
        }
    }

    /// `C(|F_1|, 2)`, the number of cells.
    fn n_cells(&self) -> usize {
        let n = self.items.len();
        n * n.saturating_sub(1) / 2
    }

    /// First cell of rank `a`'s row.
    fn row(&self, a: usize) -> usize {
        a * (2 * self.items.len() - a - 1) / 2
    }

    /// Adds every pair of frequent items of `txn` to `cells`; `ranks` is
    /// the caller's reused buffer.
    fn count(&self, txn: &[Item], ranks: &mut Vec<u32>, cells: &mut [u32], meter: &mut WorkMeter) {
        ranks.clear();
        ranks.extend(
            txn.iter()
                .map(|&item| self.rank[item as usize])
                .filter(|&r| r != u32::MAX),
        );
        let l = ranks.len();
        if l < 2 {
            return;
        }
        // Transactions are sorted and duplicate-free, so the ranks are too.
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        for (i, &a) in ranks.iter().enumerate() {
            let a = a as usize;
            let row = &mut cells[self.row(a)..];
            for &b in &ranks[i + 1..] {
                row[b as usize - a - 1] += 1;
            }
        }
        let pairs = (l * (l - 1) / 2) as u64;
        meter.txns += 1;
        meter.subset_checks += pairs;
        meter.hits += pairs;
    }

    /// Sums the workers' arrays and selects `F_2` in lexicographic order.
    fn select(self, arrays: Vec<Vec<u32>>, min_support: u32) -> FrequentLevel {
        let mut arrays = arrays.into_iter();
        let mut total = arrays.next().unwrap_or_default();
        for array in arrays {
            for (t, c) in total.iter_mut().zip(&array) {
                *t += c;
            }
        }
        let mut itemsets = CandidateSet::new(2);
        let mut supports = Vec::new();
        let mut cells = total.iter();
        for (a, &x) in self.items.iter().enumerate() {
            for (&y, &support) in self.items[a + 1..].iter().zip(cells.by_ref()) {
                if support >= min_support {
                    itemsets.push(&[x, y]);
                    supports.push(support);
                }
            }
        }
        FrequentLevel::new(itemsets, supports)
    }
}

/// Candidate generation balanced across `p` threads at *member*
/// granularity (§3.1.2): the unit of work is one itemset of `F_{k-1}`,
/// whose workload is the number of joins it initiates within its
/// equivalence class (`|S| - i - 1`, the triangular profile of the
/// paper's running example). CCPD never joins `F_1` (it counts `C_2` in
/// a triangular array), so this runs for k ≥ 3, where a few large
/// classes would make class-granularity partitioning serialize the join.
///
/// Returns the merged (lex-ordered) candidates, per-thread join
/// workloads, and the total pair count.
fn parallel_candgen(
    prev: &FrequentLevel,
    classes: &[Range<u32>],
    weights: &[u64],
    cfg: &ParallelConfig,
    p: usize,
    cancel: &CancelToken,
) -> Result<(CandidateSet, Vec<u64>, u64), MiningError> {
    let k = prev.k() + 1;
    // Work units: (class index, member index) with triangular weights.
    let mut units: Vec<(u32, u32)> = Vec::new();
    let mut unit_weights: Vec<u64> = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        let size = class.end - class.start;
        for m in 0..size {
            units.push((ci as u32, m));
            unit_weights.push((size - m - 1) as u64);
        }
    }
    let assignment = cfg.candgen_scheme.assign(&unit_weights, p);

    // Each thread generates the candidates its members initiate, keyed by
    // unit index for the deterministic lex-order merge.
    let outputs: Vec<Vec<(usize, CandidateSet)>> = try_run_threads(p, "candgen", cancel, |t| {
        let mut scratch = Vec::with_capacity(k as usize);
        let mut out = Vec::with_capacity(assignment.bins[t].len());
        for &u in &assignment.bins[t] {
            let (ci, m) = units[u];
            let class = &classes[ci as usize];
            let mut set = CandidateSet::new(k);
            generate_member(prev, class.clone(), m, &mut set, &mut scratch);
            out.push((u, set));
        }
        out
    })?;
    // Units are (class, member) in lexicographic generation order, so
    // concatenating by unit index restores the sequential ordering.
    let mut by_unit: Vec<(usize, CandidateSet)> = outputs.into_iter().flatten().collect();
    by_unit.sort_by_key(|(u, _)| *u);
    let mut merged = CandidateSet::new(k);
    for (_, set) in &by_unit {
        merged.extend_from(set);
    }
    let pairs = weights.iter().sum();
    Ok((merged, assignment.loads, pairs))
}

/// Generates the candidates initiated by member `m` of `class` (joins
/// with every later member), with pruning — one work unit of the
/// balanced parallel join.
fn generate_member(
    prev: &FrequentLevel,
    class: Range<u32>,
    m: u32,
    out: &mut CandidateSet,
    scratch: &mut Vec<u32>,
) {
    let sub = (class.start + m)..class.end;
    arm_core::generation::generate_class_member(prev, sub, out, scratch);
}

/// Folds a drained [`ChunkPool`]'s per-thread scheduling telemetry into
/// the matching metrics shards. Shared by every pool-driven phase in the
/// workspace (CCPD/PCCD here, the vertical miner in `arm-vertical`).
pub fn record_exec(metrics: &MetricsRegistry, pool: &ChunkPool) {
    for t in 0..pool.n_threads() {
        let s = pool.thread_stats(t);
        let shard = metrics.shard(t);
        shard.add(Counter::ChunksExecuted, s.chunks);
        shard.add(Counter::ChunksStolen, s.stolen);
        shard.add(Counter::StealAttempts, s.steal_attempts);
        shard.add(Counter::CursorCasRetries, s.cursor_retries);
        shard.add(Counter::CancelChecks, s.cancel_checks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_balance::Scheme;
    use arm_core::{mine as mine_seq, AprioriConfig, Support};
    use arm_hashtree::PlacementPolicy;

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
    fn matches_sequential_on_worked_example() {
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        for p in [1usize, 2, 3, 4] {
            let cfg = ParallelConfig::new(base_cfg(), p);
            let (r, stats) = mine(&db, &cfg);
            assert_eq!(r.all_itemsets(), expected, "P={p}");
            assert_eq!(stats.n_threads, p);
            assert!(stats.wall.as_nanos() > 0);
        }
    }

    #[test]
    fn all_policies_and_schemes_agree() {
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        for policy in PlacementPolicy::ALL {
            for scheme in [
                Scheme::Block,
                Scheme::Interleaved,
                Scheme::Bitonic,
                Scheme::Greedy,
            ] {
                let mut cfg =
                    ParallelConfig::new(base_cfg().with_placement(policy), 3).with_candgen(scheme);
                cfg.parallel_candgen_min = 1; // force parallel candgen
                let (r, _) = mine(&db, &cfg);
                assert_eq!(r.all_itemsets(), expected, "{policy} {scheme:?}");
            }
        }
    }

    #[test]
    fn db_partition_strategies_agree() {
        use crate::config::DbPartition;
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        for part in [
            DbPartition::Block,
            DbPartition::WeightedStatic { kmax: 6 },
            DbPartition::WeightedPerIteration,
        ] {
            let cfg = ParallelConfig::new(base_cfg(), 2).with_db_partition(part);
            let (r, _) = mine(&db, &cfg);
            assert_eq!(r.all_itemsets(), expected, "{part:?}");
        }
    }

    #[test]
    fn scheduling_modes_agree() {
        use arm_exec::Scheduling;
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        for mode in [Scheduling::Static, Scheduling::Stealing] {
            for p in [1usize, 2, 4] {
                let cfg = ParallelConfig::new(base_cfg(), p).with_scheduling(mode);
                let (r, _) = mine(&db, &cfg);
                assert_eq!(r.all_itemsets(), expected, "{mode:?} P={p}");
            }
        }
    }

    #[test]
    fn phase_stats_are_recorded() {
        let db = paper_db();
        let (_, stats) = mine(&db, &ParallelConfig::new(base_cfg(), 2));
        let names: Vec<&str> = stats.phases.iter().map(|p| p.name).collect();
        assert!(names.contains(&"f1"));
        assert!(names.contains(&"candgen"));
        assert!(names.contains(&"build"));
        assert!(names.contains(&"freeze"));
        assert!(names.contains(&"count"));
        assert!(names.contains(&"extract"));
        assert!(stats.simulated_speedup() >= 1.0);
        assert!(stats.total_work("count") > 0);
    }

    /// The k = 2 record of a run.
    fn c2(r: &MiningResult) -> &arm_core::IterStats {
        r.iter_stats.iter().find(|s| s.k == 2).expect("k=2 ran")
    }

    #[test]
    fn pair_pass_builds_no_tree() {
        let db = paper_db();
        let (r, stats) = mine(&db, &ParallelConfig::new(base_cfg(), 2));
        let k2: Vec<&str> = stats
            .phases
            .iter()
            .filter(|ph| ph.k == 2)
            .map(|ph| ph.name)
            .collect();
        assert_eq!(k2, ["count", "extract"]);
        let s2 = c2(&r);
        assert_eq!((s2.fanout, s2.tree_bytes, s2.tree_nodes), (0, 0, 0));
        // Every pair of F1 = {1, 2, 4, 5}.
        assert_eq!((s2.n_candidates, s2.join_pairs), (6, 6));
        let seq = mine_seq(&db, &base_cfg());
        assert_eq!(s2.meter.hits, c2(&seq).meter.hits);
        assert_eq!(s2.meter.txns, c2(&seq).meter.txns);
        assert_eq!(s2.meter.subset_checks, s2.meter.hits);
        assert_eq!((s2.meter.node_visits, s2.meter.leaf_scans), (0, 0));
    }

    #[test]
    fn pair_pass_with_two_frequent_items() {
        let db = Database::from_transactions(4, [vec![0u32, 1], vec![0, 1, 3], vec![0], vec![2]])
            .unwrap();
        let expected = mine_seq(&db, &base_cfg());
        for p in [1usize, 2, 3] {
            let (r, _) = mine(&db, &ParallelConfig::new(base_cfg(), p));
            assert_eq!(r.all_itemsets(), expected.all_itemsets(), "P={p}");
            assert_eq!(r.support_of(&[0, 1]), Some(2));
            assert_eq!(c2(&r).n_candidates, 1);
            assert_eq!(c2(&r).meter.hits, 2);
        }
    }

    #[test]
    fn pair_pass_without_frequent_pairs() {
        // Every transaction holds at most one frequent item (0, 1 or 2).
        let db = Database::from_transactions(
            8,
            [
                vec![0u32, 5],
                vec![1, 6],
                vec![2, 7],
                vec![0],
                vec![1],
                vec![2],
            ],
        )
        .unwrap();
        let (r, _) = mine(&db, &ParallelConfig::new(base_cfg(), 2));
        assert_eq!(r.levels.len(), 1, "F2 is empty");
        assert_eq!(r.all_itemsets(), mine_seq(&db, &base_cfg()).all_itemsets());
        let s2 = c2(&r);
        assert_eq!((s2.n_candidates, s2.n_frequent), (3, 0));
        assert_eq!((s2.meter.txns, s2.meter.hits), (0, 0));
    }

    #[test]
    fn pair_pass_at_max_k_two() {
        let db = paper_db();
        let cfg = AprioriConfig {
            max_k: Some(2),
            ..base_cfg()
        };
        let expected = mine_seq(&db, &cfg).all_itemsets();
        let (r, stats) = mine(&db, &ParallelConfig::new(cfg, 2));
        assert_eq!(r.all_itemsets(), expected);
        assert_eq!(r.levels.len(), 2);
        assert!(!stats.phases.iter().any(|ph| ph.name == "build"));
    }

    #[test]
    fn pair_pass_with_more_threads_than_transactions() {
        use arm_exec::Scheduling;
        let db = paper_db();
        let seq = mine_seq(&db, &base_cfg());
        for mode in [Scheduling::Static, Scheduling::Stealing] {
            let cfg = ParallelConfig::new(base_cfg(), 8).with_scheduling(mode);
            let (r, _) = mine(&db, &cfg);
            assert_eq!(r.all_itemsets(), seq.all_itemsets(), "{mode:?}");
            assert_eq!(c2(&r).meter.hits, c2(&seq).meter.hits, "{mode:?}");
        }
    }

    #[test]
    fn triangle_cells_are_lexicographic() {
        let t = PairTriangle::new(&[2, 3, 7, 9], 10);
        assert_eq!(t.n_cells(), 6);
        let (mut cells, mut ranks) = (vec![0u32; 6], Vec::new());
        let mut meter = WorkMeter::default();
        t.count(&[2, 3, 7, 9], &mut ranks, &mut cells, &mut meter);
        t.count(&[0, 3, 8, 9], &mut ranks, &mut cells, &mut meter);
        // (2,3) (2,7) (2,9) (3,7) (3,9) (7,9)
        assert_eq!(cells, [1, 1, 1, 1, 2, 1]);
        assert_eq!((meter.txns, meter.hits), (2, 7));
        let f2 = t.select(vec![cells.clone(), cells], 3);
        let got: Vec<(Vec<u32>, u32)> = f2.iter().map(|(s, c)| (s.to_vec(), c)).collect();
        assert_eq!(got, [(vec![3, 9], 4)]);
    }

    #[test]
    fn empty_database() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        let (r, _) = mine(&db, &ParallelConfig::new(AprioriConfig::default(), 2));
        assert_eq!(r.total_frequent(), 0);
    }
}
