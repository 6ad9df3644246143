//! Support-counting kernel benchmarks: placement policy, short-circuit,
//! and counter-placement effects on the hot loop.

use arm_balance::BitonicHash;
use arm_dataset::Database;
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, CountScratch, CounterRef, PlacementPolicy,
    TreeBuilder, WorkMeter,
};
use arm_mem::{FlatCounters, LocalCounters};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ITEMS: u32 = 200;

fn fixture() -> (Database, CandidateSet) {
    let mut rng = StdRng::seed_from_u64(7);
    let txns: Vec<Vec<u32>> = (0..2_000)
        .map(|_| (0..12).map(|_| rng.gen_range(0..N_ITEMS)).collect())
        .collect();
    let db = Database::from_transactions(N_ITEMS, txns).unwrap();
    let mut cands = CandidateSet::new(3);
    for a in (0..N_ITEMS).step_by(2) {
        for s in 1..4u32 {
            let set = [a, a + s, a + 2 * s];
            if set[2] < N_ITEMS {
                cands.push(&set);
            }
        }
    }
    let mut sorted = cands.clone();
    sorted.sort_lex();
    (db, sorted)
}

fn bench_policies(c: &mut Criterion) {
    let (db, cands) = fixture();
    let hash = BitonicHash::new(12);
    let mut g = c.benchmark_group("count_by_policy");
    g.sample_size(15);
    for policy in [
        PlacementPolicy::Ccpd,
        PlacementPolicy::Spp,
        PlacementPolicy::Lpp,
        PlacementPolicy::Gpp,
    ] {
        let builder = TreeBuilder::new(&cands, &hash, 6);
        builder.insert_all();
        let tree = freeze_policy(&builder, policy);
        g.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &tree,
            |b, tree| {
                b.iter(|| {
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
                    meter.hits
                })
            },
        );
    }
    g.finish();
}

fn bench_short_circuit(c: &mut Criterion) {
    let (db, cands) = fixture();
    let hash = BitonicHash::new(12);
    let builder = TreeBuilder::new(&cands, &hash, 6);
    builder.insert_all();
    let tree = freeze_policy(&builder, PlacementPolicy::Gpp);
    let mut g = c.benchmark_group("short_circuit");
    g.sample_size(15);
    for sc in [false, true] {
        g.bench_with_input(BenchmarkId::from_parameter(sc), &sc, |b, &sc| {
            b.iter(|| {
                let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
                let mut meter = WorkMeter::default();
                tree.count_partition(
                    &hash,
                    &db,
                    0..db.len(),
                    None,
                    &mut scratch,
                    &mut CounterRef::Inline,
                    CountOptions {
                        short_circuit: sc,
                        ..CountOptions::default()
                    },
                    &mut meter,
                );
                meter.node_visits
            })
        });
    }
    g.finish();
}

fn bench_counter_modes(c: &mut Criterion) {
    let (db, cands) = fixture();
    let hash = BitonicHash::new(12);
    let mut g = c.benchmark_group("counter_mode");
    g.sample_size(15);

    let builder = TreeBuilder::new(&cands, &hash, 6);
    builder.insert_all();
    let inline_tree = freeze_policy(&builder, PlacementPolicy::Gpp);
    let external_tree = freeze_policy(&builder, PlacementPolicy::LGpp);

    g.bench_function("inline", |b| {
        b.iter(|| {
            let mut scratch = CountScratch::new(N_ITEMS, inline_tree.n_nodes());
            let mut meter = WorkMeter::default();
            inline_tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Inline,
                CountOptions::default(),
                &mut meter,
            );
            meter.hits
        })
    });
    g.bench_function("shared_segregated", |b| {
        b.iter(|| {
            let counters = FlatCounters::new(cands.len());
            let mut scratch = CountScratch::new(N_ITEMS, external_tree.n_nodes());
            let mut meter = WorkMeter::default();
            external_tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Shared(&counters),
                CountOptions::default(),
                &mut meter,
            );
            meter.hits
        })
    });
    g.bench_function("local_privatized", |b| {
        b.iter(|| {
            let mut counters = LocalCounters::new(cands.len());
            let mut scratch = CountScratch::new(N_ITEMS, external_tree.n_nodes());
            let mut meter = WorkMeter::default();
            external_tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Local(&mut counters),
                CountOptions::default(),
                &mut meter,
            );
            meter.hits
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_short_circuit,
    bench_counter_modes
);
criterion_main!(benches);
