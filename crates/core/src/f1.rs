//! The first pass: frequent 1-itemsets via a dense per-item histogram,
//! plus the optional DHP pair-bucket counts (Park, Chen & Yu, SIGMOD'95 —
//! the paper's related work §7.1) collected during the same scan.

use crate::level::FrequentLevel;
use arm_dataset::{Database, Item};
use arm_hashtree::CandidateSet;
use std::ops::Range;

/// Counts item occurrences over a transaction range (a processor's
/// partition when run in parallel).
pub fn count_singletons(db: &Database, range: Range<usize>) -> Vec<u32> {
    let mut counts = vec![0u32; db.n_items() as usize];
    count_singletons_into(db, range, &mut counts);
    counts
}

/// Accumulates item occurrences for `range` into an existing histogram.
/// Dynamic schedulers call this once per claimed chunk; summing over any
/// exact partition of the database reproduces [`count_singletons`].
pub fn count_singletons_into(db: &Database, range: Range<usize>, counts: &mut [u32]) {
    debug_assert_eq!(counts.len(), db.n_items() as usize);
    for i in range {
        for &item in db.transaction(i) {
            counts[item as usize] += 1;
        }
    }
}

/// Builds `F_1` from an item histogram.
pub fn frequent_from_counts(counts: &[u32], min_support: u32) -> FrequentLevel {
    let mut itemsets = CandidateSet::new(1);
    let mut supports = Vec::new();
    for (item, &c) in counts.iter().enumerate() {
        if c >= min_support {
            itemsets.push(&[item as u32]);
            supports.push(c);
        }
    }
    FrequentLevel::new(itemsets, supports)
}

/// Full sequential `F_1` pass.
pub fn frequent_singletons(db: &Database, min_support: u32) -> FrequentLevel {
    frequent_from_counts(&count_singletons(db, 0..db.len()), min_support)
}

/// The DHP bucket of a pair `(a, b)` in a table of `buckets` cells.
/// Fibonacci-mixed so nearby item ids spread; both the collection pass
/// and the `C_2` pruning step must use this exact function.
#[inline]
pub fn pair_bucket(a: Item, b: Item, buckets: usize) -> usize {
    let key = ((a as u64) << 32) | b as u64;
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % buckets
}

/// Counts hashed pair occurrences over a transaction range (the DHP
/// pass-1 table). A bucket's count upper-bounds the support of every pair
/// hashing into it, so pruning `C_2` candidates whose bucket is below the
/// minimum support is lossless. Costs `O(l²)` per transaction — DHP's
/// explicit trade-off for a smaller `C_2`.
pub fn count_pair_buckets(db: &Database, range: Range<usize>, buckets: usize) -> Vec<u32> {
    assert!(buckets > 0, "DHP table needs at least one bucket");
    let mut table = vec![0u32; buckets];
    for i in range {
        let txn = db.transaction(i);
        for (ai, &a) in txn.iter().enumerate() {
            for &b in &txn[ai + 1..] {
                table[pair_bucket(a, b, buckets)] += 1;
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn paper_f1() {
        // minsup = 2 → F1 = {1, 2, 4, 5}; item 3 occurs once.
        let f1 = frequent_singletons(&paper_db(), 2);
        let items: Vec<u32> = (0..f1.len()).map(|i| f1.get(i)[0]).collect();
        assert_eq!(items, vec![1, 2, 4, 5]);
        assert_eq!(f1.support_of(&[1]), Some(3));
        assert_eq!(f1.support_of(&[2]), Some(2));
        assert_eq!(f1.support_of(&[3]), None);
        assert_eq!(f1.support_of(&[4]), Some(3));
    }

    #[test]
    fn partial_ranges_compose() {
        let db = paper_db();
        let mut a = count_singletons(&db, 0..2);
        let b = count_singletons(&db, 2..4);
        for (x, y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        assert_eq!(a, count_singletons(&db, 0..db.len()));
    }

    #[test]
    fn high_support_empties_level() {
        let f1 = frequent_singletons(&paper_db(), 10);
        assert!(f1.is_empty());
    }
}
