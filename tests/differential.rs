//! Differential battery: four independent sequential miners and both
//! parallel drivers must agree, itemset-for-itemset and count-for-count,
//! on a population of randomized QUEST datasets.
//!
//! The miners share almost no code — Apriori (hash tree), the naive
//! levelwise reference (brute-force subset counting), Eclat (tid-list
//! intersection), and Partition (two-scan local/global) — so agreement
//! across 20 seeded datasets is strong evidence each one is correct.

use parallel_arm::core::{mine_eclat, mine_partition, naive::mine_levelwise};
use parallel_arm::prelude::*;
use parallel_arm::vertical::mine_eclat_parallel;

const N_SEEDS: u64 = 20;
const FRACTION: f64 = 0.02;

fn dataset(seed: u64) -> Database {
    let mut p = QuestParams::paper(5, 2, 500).with_seed(seed);
    p.n_patterns = 40;
    generate(&p)
}

fn cfg() -> AprioriConfig {
    AprioriConfig {
        min_support: Support::Fraction(FRACTION),
        ..AprioriConfig::default()
    }
}

#[test]
fn four_sequential_miners_agree_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let minsup = db.absolute_support(FRACTION);
        let apriori = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        assert!(
            !apriori.is_empty(),
            "seed {seed}: degenerate dataset, nothing frequent"
        );
        let naive = mine_levelwise(&db, minsup, None);
        assert_eq!(apriori, naive, "seed {seed}: apriori vs naive");
        let eclat = mine_eclat(&db, minsup, None);
        assert_eq!(apriori, eclat, "seed {seed}: apriori vs eclat");
        for n_chunks in [1usize, 3] {
            let partition = mine_partition(&db, FRACTION, n_chunks, None);
            assert_eq!(
                apriori, partition,
                "seed {seed}: apriori vs partition({n_chunks})"
            );
        }
    }
}

#[test]
fn parallel_drivers_agree_with_sequential_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let expected = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        for p in [1usize, 2, 4, 8] {
            let pc = ParallelConfig::new(cfg(), p);
            let (ccpd_r, _) = ccpd::mine(&db, &pc);
            assert_eq!(ccpd_r.all_itemsets(), expected, "seed {seed} CCPD P={p}");
            let (pccd_r, _) = pccd::mine(&db, &pc);
            assert_eq!(pccd_r.all_itemsets(), expected, "seed {seed} PCCD P={p}");
        }
    }
}

#[test]
fn vertical_miners_agree_with_apriori_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let minsup = db.absolute_support(FRACTION);
        let expected = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        let seq = mine_eclat(&db, minsup, None);
        assert_eq!(seq, expected, "seed {seed}: eclat vs apriori");
        // Both tidset backends (and the density-adaptive default), on
        // every thread count.
        for backend in [TidBackend::Sorted, TidBackend::Bitmap, TidBackend::Auto] {
            let vc = VerticalConfig::default().with_backend(backend);
            for p in [1usize, 2, 4, 8] {
                let (par, _) = mine_eclat_parallel(&db, minsup, None, &vc, p);
                assert_eq!(par, expected, "seed {seed}: parallel {backend:?} P={p}");
            }
        }
        // Slowest path: lists only, static schedule.
        let un = VerticalConfig::default()
            .with_backend(TidBackend::Sorted)
            .with_scheduling(Scheduling::Static);
        for p in [1usize, 2, 4, 8] {
            let (par, _) = mine_eclat_parallel(&db, minsup, None, &un, p);
            assert_eq!(par, expected, "seed {seed}: sorted+static vertical P={p}");
        }
    }
}

#[test]
fn hybrid_driver_agrees_with_apriori_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let expected = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        for switch_level in [1u32, 2, 3] {
            for p in [1usize, 2, 4, 8] {
                let vc = VerticalConfig::default().with_switch_level(switch_level);
                let (got, _) = mine_hybrid(&db, &ParallelConfig::new(cfg(), p), &vc);
                assert_eq!(got, expected, "seed {seed}: hybrid s={switch_level} P={p}");
            }
        }
    }
}
