//! The shared vertical-mining machinery: database transposition, class
//! construction, and the prefix-class DFS that both Eclat drivers
//! ([`crate::mine_eclat_parallel`] and [`crate::mine_hybrid`]) run.
//!
//! The DFS step `extend_one` grows one member of a class and recurses
//! into its child class, so a parallel task is exactly one `extend_one`
//! call and a class's subtree never depends on any other class's
//! traversal.

use crate::config::VerticalConfig;
use crate::tidset::{Backend, KernelStats, TidSet};
use arm_dataset::{partition::block_ranges, Database, Item, Tid};
use arm_faults::{try_run_threads, MiningError, RunControl};

/// One mined itemset with its support — the element type of every
/// miner's output buffer.
pub(crate) type Emitted = (Vec<Item>, u32);

/// A per-class output buffer tagged with the index of the first-level
/// class that produced it, so parallel results merge deterministically.
pub(crate) type ClassBuf = (usize, Vec<Emitted>);

/// A prefix-class member during the DFS: the extending item and the
/// tidset of `prefix ∪ {item}`.
#[derive(Debug, Clone)]
pub(crate) struct Member {
    pub item: Item,
    pub tids: TidSet,
}

/// Bitmap word count covering `n_txns` transactions.
pub(crate) fn n_words_for(n_txns: usize) -> usize {
    n_txns.div_ceil(64)
}

/// Transposes the database into per-item ascending tidlists using `p`
/// threads over contiguous transaction blocks. Blocks are merged in
/// thread (= tid) order, so the result is deterministic and each list
/// stays sorted. Returns the lists and the per-thread work tally
/// (items visited).
///
/// Each worker checkpoints the control's token once before scanning its
/// block (the block is one indivisible unit of transposition work) and
/// fires fault-plan sites in phase `transpose`. A cancelled run's partial
/// lists are discarded by the caller's phase gate, never merged into
/// results.
pub(crate) fn try_transpose(
    db: &Database,
    p: usize,
    ctrl: &RunControl,
) -> Result<(Vec<Vec<Tid>>, Vec<u64>), MiningError> {
    let p = p.max(1);
    let ranges = block_ranges(db.len(), p);
    let partials: Vec<(Vec<Vec<Tid>>, u64)> = try_run_threads(p, "transpose", &ctrl.cancel, |t| {
        ctrl.faults.fire("transpose", t, 0);
        let mut lists: Vec<Vec<Tid>> = vec![Vec::new(); db.n_items() as usize];
        let mut visited = 0u64;
        if !ctrl.cancel.checkpoint() {
            return (lists, visited);
        }
        for tid in ranges[t].clone() {
            let txn = db.transaction(tid);
            visited += txn.len() as u64;
            for &item in txn {
                lists[item as usize].push(tid as Tid);
            }
        }
        (lists, visited)
    })?;
    let work: Vec<u64> = partials.iter().map(|(_, w)| *w).collect();
    let mut merged: Vec<Vec<Tid>> = vec![Vec::new(); db.n_items() as usize];
    for (lists, _) in partials {
        for (dst, src) in merged.iter_mut().zip(lists) {
            if dst.is_empty() {
                *dst = src;
            } else {
                dst.extend_from_slice(&src);
            }
        }
    }
    Ok((merged, work))
}

/// Filters the transposed lists down to the frequent singletons — the
/// root equivalence class, always materialized as sorted lists first.
pub(crate) fn build_root(
    tidlists: Vec<Vec<Tid>>,
    min_support: u32,
    stats: &mut KernelStats,
) -> Vec<Member> {
    let mut root = Vec::new();
    for (i, tids) in tidlists.into_iter().enumerate() {
        if tids.len() >= min_support as usize {
            stats.tidset_bytes += 4 * tids.len() as u64;
            root.push(Member {
                item: i as Item,
                tids: TidSet::Sorted(tids),
            });
        }
    }
    root
}

/// Converts every member of a class to `target` (members already there
/// are untouched, so repeated calls are idempotent).
pub(crate) fn convert_members(
    members: &mut [Member],
    target: Backend,
    n_words: usize,
    stats: &mut KernelStats,
) {
    for m in members {
        if m.tids.backend() != target {
            let converted = match target {
                Backend::Bitmap => m.tids.to_bitmap(n_words),
                Backend::Sorted => m.tids.to_sorted(),
            };
            stats.tidset_bytes += converted.bytes();
            m.tids = converted;
        }
    }
}

/// Grows member `i` of `class`: joins it with every later member, emits
/// the surviving children (itemsets of length `prefix.len() + 2`), and
/// recurses into every child, in order, while `max_k` allows. The child
/// class re-decides its tidset backend by its own density — deep classes
/// are typically much sparser than the root.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_one(
    class: &[Member],
    i: usize,
    prefix: &mut Vec<Item>,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_txns: usize,
    stats: &mut KernelStats,
    out: &mut Vec<(Vec<Item>, u32)>,
) {
    let a = &class[i];
    let mut child: Vec<Member> = Vec::new();
    let mut total_support = 0u64;
    for b in &class[i + 1..] {
        let tids = a.tids.intersect(&b.tids, stats);
        if tids.support() >= min_support {
            total_support += tids.support() as u64;
            child.push(Member { item: b.item, tids });
        }
    }
    if child.is_empty() {
        return;
    }
    let target = cfg.choose(total_support, child.len(), n_txns);
    convert_members(&mut child, target, n_words_for(n_txns), stats);
    prefix.push(a.item);
    for m in &child {
        let mut items = prefix.clone();
        items.push(m.item);
        out.push((items, m.tids.support()));
    }
    let depth = prefix.len() as u32 + 1; // length of the emitted itemsets
    if max_k.is_none_or(|cap| depth < cap) {
        for j in 0..child.len() {
            extend_one(
                &child,
                j,
                prefix,
                min_support,
                max_k,
                cfg,
                n_txns,
                stats,
                out,
            );
        }
    }
    prefix.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TidBackend;
    use crate::parallel::mine_eclat_parallel;
    use arm_core::mine_eclat;

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

    /// The DFS's [`KernelStats`] for a full run, driven through
    /// `build_root` and `extend_one` directly so the tallies are checked
    /// whether or not the metrics feature is compiled in.
    fn dfs_stats(db: &Database, min_support: u32, cfg: &VerticalConfig) -> KernelStats {
        let mut stats = KernelStats::default();
        let (tidlists, _) = try_transpose(db, 1, &RunControl::default()).unwrap();
        let mut root = build_root(tidlists, min_support, &mut stats);
        let total: u64 = root.iter().map(|m| m.tids.support() as u64).sum();
        let target = cfg.choose(total, root.len(), db.len());
        convert_members(&mut root, target, n_words_for(db.len()), &mut stats);
        let mut out = Vec::new();
        for i in 0..root.len() {
            extend_one(
                &root,
                i,
                &mut Vec::new(),
                min_support,
                None,
                cfg,
                db.len(),
                &mut stats,
                &mut out,
            );
        }
        stats
    }

    #[test]
    fn transpose_is_deterministic_across_thread_counts() {
        let db = paper_db();
        let ctrl = RunControl::default();
        let (one, w1) = try_transpose(&db, 1, &ctrl).unwrap();
        assert_eq!(w1, vec![db.total_items() as u64]);
        for p in [2, 3, 4, 8] {
            let (many, w) = try_transpose(&db, p, &ctrl).unwrap();
            assert_eq!(many, one, "p={p}");
            assert_eq!(w.iter().sum::<u64>(), db.total_items() as u64);
            assert_eq!(w.len(), p);
        }
        assert_eq!(one[4], vec![0, 2, 3]);
        assert_eq!(one[0], Vec::<Tid>::new());
    }

    #[test]
    fn matches_core_eclat_bit_identical() {
        let db = paper_db();
        for backend in [TidBackend::Auto, TidBackend::Sorted, TidBackend::Bitmap] {
            let cfg = VerticalConfig::default().with_backend(backend);
            for minsup in 1..=4 {
                for max_k in [None, Some(1), Some(2), Some(3), Some(10)] {
                    assert_eq!(
                        mine_eclat_parallel(&db, minsup, max_k, &cfg, 1).0,
                        mine_eclat(&db, minsup, max_k),
                        "backend={backend:?} minsup={minsup} max_k={max_k:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_k_zero_is_empty() {
        let db = paper_db();
        let (got, _) = mine_eclat_parallel(&db, 1, Some(0), &VerticalConfig::default(), 1);
        assert!(got.is_empty());
    }

    #[test]
    fn stats_reflect_backend() {
        let db = paper_db();
        let sorted = dfs_stats(
            &db,
            2,
            &VerticalConfig::default().with_backend(TidBackend::Sorted),
        );
        assert!(sorted.intersections > 0);
        assert_eq!(sorted.words_anded, 0, "no AND on the sorted backend");
        let bitmap = dfs_stats(
            &db,
            2,
            &VerticalConfig::default().with_backend(TidBackend::Bitmap),
        );
        assert_eq!(bitmap.intersections, sorted.intersections);
        assert!(bitmap.words_anded > 0);
    }

    #[test]
    fn empty_database() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        let (got, _) = mine_eclat_parallel(&db, 1, None, &VerticalConfig::default(), 1);
        assert!(got.is_empty());
    }
}
