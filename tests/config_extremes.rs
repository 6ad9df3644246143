//! Config-extremes sweep: CCPD, PCCD, parallel Eclat and the hybrid
//! driver, each fed the extreme values of one knob at a time, must
//! return either `Ok` with exactly the itemsets of the sequential Eclat
//! oracle or a typed [`MiningError`] — never a panic, never a hang.
//!
//! Only two values are errors: a tree with a leaf threshold of 0, and a
//! fixed fan-out of 0 with adaptive fan-out off. The tree-based drivers
//! reject them as [`MiningError::InvalidConfig`] naming the field; Eclat
//! builds no tree and mines normally. Thread counts stay at most 4.

use parallel_arm::core::mine_eclat;
use parallel_arm::dataset::Item;
use parallel_arm::parallel::DbPartition;
use parallel_arm::prelude::*;
use parallel_arm::vertical::try_mine_eclat_parallel;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Itemsets = Vec<(Vec<Item>, u32)>;

fn db() -> Database {
    let mut p = QuestParams::paper(5, 2, 150).with_seed(13);
    p.n_patterns = 30;
    generate(&p)
}

/// One knob at its extreme; every other knob at its default.
struct Case {
    name: String,
    pcfg: ParallelConfig,
    vcfg: VerticalConfig,
    /// The field the tree-based drivers must reject, if any.
    invalid: Option<&'static str>,
}

fn cases() -> Vec<Case> {
    let base = ParallelConfig::new(
        AprioriConfig {
            min_support: Support::Fraction(0.04),
            ..AprioriConfig::default()
        },
        2,
    );
    let case = |name: String, edit: &dyn Fn(&mut ParallelConfig, &mut VerticalConfig)| {
        let (mut pcfg, mut vcfg) = (base.clone(), VerticalConfig::default());
        edit(&mut pcfg, &mut vcfg);
        Case {
            name,
            pcfg,
            vcfg,
            invalid: None,
        }
    };
    let mut out = Vec::new();
    for t in [0usize, 1] {
        let mut c = case(format!("leaf_threshold {t}"), &|p, _| {
            p.base.leaf_threshold = t
        });
        c.invalid = (t == 0).then_some("leaf_threshold");
        out.push(c);
    }
    for h in [0u32, 1] {
        let mut c = case(format!("fixed_fanout {h}"), &|p, _| {
            p.base.adaptive_fanout = false;
            p.base.fixed_fanout = h;
        });
        c.invalid = (h == 0).then_some("fixed_fanout");
        out.push(c);
    }
    for m in [0usize, usize::MAX] {
        out.push(case(format!("parallel_candgen_min {m}"), &|p, _| {
            p.parallel_candgen_min = m
        }));
    }
    for part in [
        DbPartition::WeightedStatic { kmax: 0 },
        DbPartition::WeightedStatic { kmax: usize::MAX },
        DbPartition::WeightedPerIteration,
    ] {
        out.push(case(format!("{part:?}"), &|p, _| p.db_partition = part));
    }
    out.push(case("max_k u32::MAX".into(), &|p, _| {
        p.base.max_k = Some(u32::MAX)
    }));
    for s in [0u32, u32::MAX] {
        out.push(case(format!("switch_level {s}"), &|_, v| {
            v.switch_level = s
        }));
    }
    for f in [f64::NAN, f64::INFINITY, -0.5] {
        out.push(case(format!("Support::Fraction({f})"), &|p, _| {
            p.base.min_support = Support::Fraction(f)
        }));
    }
    for n in [0usize, 4] {
        out.push(case(format!("n_threads {n}"), &|p, _| p.n_threads = n));
    }
    out
}

fn run(miner: &str, db: &Database, c: &Case) -> Result<Itemsets, MiningError> {
    let ctrl = RunControl::default();
    let (pcfg, vcfg) = (&c.pcfg, &c.vcfg);
    match miner {
        "ccpd" => ccpd::try_mine(db, pcfg, &ctrl).map(|(r, _)| r.all_itemsets()),
        "pccd" => pccd::try_mine(db, pcfg, &ctrl).map(|(r, _)| r.all_itemsets()),
        "eclat" => {
            let minsup = pcfg.base.min_support.absolute(db.len());
            try_mine_eclat_parallel(db, minsup, pcfg.base.max_k, vcfg, pcfg.n_threads, &ctrl)
                .map(|(r, _)| r)
        }
        "hybrid" => try_mine_hybrid(db, pcfg, vcfg, &ctrl).map(|(r, _)| r),
        _ => unreachable!("unknown miner {miner}"),
    }
}

#[test]
fn every_miner_returns_the_oracle_or_a_typed_error() {
    let db = db();
    // The fixture reaches k = 3 at the base support, so the tree levels
    // run too, not only F1 and the C2 pass.
    let base = mine_eclat(&db, Support::Fraction(0.04).absolute(db.len()), None);
    assert!(base.iter().any(|(items, _)| items.len() >= 3));
    let mut failures = Vec::new();
    for c in cases() {
        let minsup = c.pcfg.base.min_support.absolute(db.len());
        let want = mine_eclat(&db, minsup, c.pcfg.base.max_k);
        for miner in ["ccpd", "pccd", "eclat", "hybrid"] {
            let what = format!("{miner} with {}", c.name);
            let invalid = c.invalid.filter(|_| miner != "eclat");
            match (
                catch_unwind(AssertUnwindSafe(|| run(miner, &db, &c))),
                invalid,
            ) {
                (Err(_), _) => failures.push(format!("{what}: panicked")),
                (Ok(Ok(got)), None) if got == want => {}
                (Ok(Ok(_)), None) => failures.push(format!("{what}: differs from the oracle")),
                (Ok(Err(MiningError::InvalidConfig { field, .. })), Some(f)) if field == f => {}
                (Ok(got), _) => failures.push(format!(
                    "{what}: expected {}, got {:?}",
                    invalid.map_or("Ok".into(), |f| format!("InvalidConfig on {f}")),
                    got.map(|r| r.len())
                )),
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Checks that CCPD, PCCD and the hybrid reject the named case as
/// `InvalidConfig` on `field`.
fn assert_rejected(case: &str, field: &str) {
    let db = db();
    let c = cases()
        .into_iter()
        .find(|c| c.name == case)
        .expect("case exists");
    for miner in ["ccpd", "pccd", "hybrid"] {
        match run(miner, &db, &c) {
            Err(MiningError::InvalidConfig { field: f, .. }) if f == field => {}
            other => panic!("{miner} with {case}: {:?}", other.map(|r| r.len())),
        }
    }
}

/// `leaf_threshold: 0` panicked on the caller's thread ("leaf threshold
/// must be at least 1") in every tree-based driver.
#[test]
fn zero_leaf_threshold_is_a_typed_error() {
    assert_rejected("leaf_threshold 0", "leaf_threshold");
}

/// `fixed_fanout: 0` with adaptive fan-out off panicked ("fan-out must be
/// positive") in every tree-based driver.
#[test]
fn zero_fixed_fanout_is_a_typed_error() {
    assert_rejected("fixed_fanout 0", "fixed_fanout");
}
