//! Property tests: the hash-tree counting kernel must agree with naive
//! subset counting for every placement policy, hash function, visited
//! mode, short-circuit setting, and transaction-trimming setting, over
//! arbitrary candidate sets and databases.

use arm_balance::{BitonicHash, HashFn, IndirectionHash, ModHash};
use arm_dataset::Database;
use arm_hashtree::{
    freeze_policy, naive_counts, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter,
    PlacementPolicy, TreeBuilder, VisitedMode, WorkMeter,
};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;

const N_ITEMS: u32 = 14;

/// Strategy: a set of distinct sorted k-itemsets.
fn candidates(k: usize) -> impl Strategy<Value = CandidateSet> {
    btree_set(btree_set(0..N_ITEMS, k), 0..25).prop_map(move |sets| {
        let mut c = CandidateSet::new(k as u32);
        for s in sets {
            let items: Vec<u32> = s.into_iter().collect();
            c.push(&items);
        }
        c
    })
}

fn database() -> impl Strategy<Value = Database> {
    vec(vec(0..N_ITEMS, 0..10), 0..30)
        .prop_map(|txns| Database::from_transactions(N_ITEMS, txns).unwrap())
}

/// The three hash families under test; `Indirection` is built over the
/// distinct candidate items (standing in for F1).
fn make_hash(kind: usize, fanout: u32, cands: &CandidateSet) -> Box<dyn HashFn> {
    match kind {
        0 => Box::new(ModHash::new(fanout)),
        1 => Box::new(BitonicHash::new(fanout)),
        _ => {
            let items: std::collections::BTreeSet<u32> =
                cands.iter().flat_map(|(_, s)| s.iter().copied()).collect();
            let items: Vec<u32> = items.into_iter().collect();
            Box::new(IndirectionHash::for_frequent_items(&items, N_ITEMS, fanout))
        }
    }
}

fn count_with(
    cands: &CandidateSet,
    db: &Database,
    hash: &dyn HashFn,
    policy: PlacementPolicy,
    threshold: usize,
    opts: CountOptions,
    trim: bool,
) -> Vec<u32> {
    struct Dyn<'a>(&'a dyn HashFn);
    impl HashFn for Dyn<'_> {
        fn hash(&self, i: u32) -> u32 {
            self.0.hash(i)
        }
        fn fanout(&self) -> u32 {
            self.0.fanout()
        }
    }
    let hash = Dyn(hash);
    let b = TreeBuilder::new(cands, &hash, threshold);
    b.insert_all();
    let tree = freeze_policy(&b, policy);
    let filter = trim.then(|| ItemFilter::from_candidates(cands, N_ITEMS));
    let filter = filter.as_ref();
    let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
    let mut meter = WorkMeter::default();
    if tree.counters_inline() {
        tree.count_partition(
            &hash,
            db,
            0..db.len(),
            filter,
            &mut scratch,
            &mut CounterRef::Inline,
            opts,
            &mut meter,
        );
        tree.inline_counts()
    } else {
        let shared = arm_mem::FlatCounters::new(cands.len());
        tree.count_partition(
            &hash,
            db,
            0..db.len(),
            filter,
            &mut scratch,
            &mut CounterRef::Shared(&shared),
            opts,
            &mut meter,
        );
        shared.snapshot()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counting_matches_naive(
        cands in candidates(3),
        db in database(),
        policy_ix in 0usize..8,
        fanout in 2u32..6,
        threshold in 1usize..5,
        hash_kind in 0usize..3,
        short_circuit in any::<bool>(),
        level_path in any::<bool>(),
        trim in any::<bool>(),
    ) {
        let expected = naive_counts(&cands, &db);
        let hash = make_hash(hash_kind, fanout, &cands);
        let opts = CountOptions {
            short_circuit,
            visited: if level_path { VisitedMode::LevelPath } else { VisitedMode::PerNode },
        };
        let got = count_with(
            &cands,
            &db,
            hash.as_ref(),
            PlacementPolicy::ALL[policy_ix],
            threshold,
            opts,
            trim,
        );
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn counting_matches_naive_k2(
        cands in candidates(2),
        db in database(),
        fanout in 2u32..8,
    ) {
        let expected = naive_counts(&cands, &db);
        let hash = ModHash::new(fanout);
        let got = count_with(
            &cands,
            &db,
            &hash,
            PlacementPolicy::Spp,
            2,
            CountOptions::default(),
            false,
        );
        prop_assert_eq!(got, expected);
    }

    /// Transaction trimming is lossless: trimmed and untrimmed runs
    /// produce identical counts for every knob setting that shares them.
    #[test]
    fn trimming_is_lossless(
        cands in candidates(3),
        db in database(),
        policy_ix in 0usize..8,
        fanout in 2u32..6,
        threshold in 1usize..5,
        hash_kind in 0usize..3,
    ) {
        let hash = make_hash(hash_kind, fanout, &cands);
        let policy = PlacementPolicy::ALL[policy_ix];
        let opts = CountOptions::default();
        let untrimmed = count_with(&cands, &db, hash.as_ref(), policy, threshold, opts, false);
        let trimmed = count_with(&cands, &db, hash.as_ref(), policy, threshold, opts, true);
        prop_assert_eq!(trimmed, untrimmed);
    }

    /// Parallel insertion produces the same frozen image counts as
    /// sequential insertion.
    #[test]
    fn parallel_build_equivalent(
        cands in candidates(3),
        db in database(),
    ) {
        prop_assume!(cands.len() >= 2);
        let hash = ModHash::new(3);
        let seq = TreeBuilder::new(&cands, &hash, 2);
        seq.insert_all();
        let par = TreeBuilder::new(&cands, &hash, 2);
        std::thread::scope(|s| {
            for t in 0..3u32 {
                let par = &par;
                let n = cands.len() as u32;
                s.spawn(move || {
                    let mut id = t;
                    while id < n {
                        par.insert(id);
                        id += 3;
                    }
                });
            }
        });
        let count = |b: &TreeBuilder<'_, ModHash>| {
            let tree = freeze_policy(b, PlacementPolicy::Gpp);
            let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
            let mut meter = WorkMeter::default();
            tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Inline,
                CountOptions::default(),
                &mut meter,
            );
            tree.inline_counts()
        };
        prop_assert_eq!(count(&seq), count(&par));
    }

    /// Short-circuiting never changes counts, only the visit tally.
    #[test]
    fn short_circuit_only_saves_work(
        cands in candidates(3),
        db in database(),
    ) {
        let hash = ModHash::new(3);
        let run = |sc: bool| {
            let b = TreeBuilder::new(&cands, &hash, 2);
            b.insert_all();
            let tree = freeze_policy(&b, PlacementPolicy::Spp);
            let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
            let mut meter = WorkMeter::default();
            tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Inline,
                CountOptions { short_circuit: sc, ..CountOptions::default() },
                &mut meter,
            );
            (tree.inline_counts(), meter.node_visits)
        };
        let (counts_off, visits_off) = run(false);
        let (counts_on, visits_on) = run(true);
        prop_assert_eq!(counts_off, counts_on);
        prop_assert!(visits_on <= visits_off);
    }
}
