//! Fig. 8 — effect of computation balancing (COMP) and hash tree
//! balancing (TREE), 0.5% support.
//!
//! Four configurations per dataset and processor count:
//! * base: block-partitioned candidate generation + interleaved `mod` hash;
//! * COMP: greedy/bitonic class balancing (§3.1.2);
//! * TREE: bitonic indirection hash (§4.1);
//! * COMP-TREE: both.
//!
//! Reported: % improvement in work-model execution time over the base
//! (the paper's metric is computation-time improvement; the work model
//! removes the single-host-core limitation, see DESIGN.md). CCPD counts
//! `C_2` in a triangular array without generating it, so COMP acts on
//! the joins of k ≥ 3; the candidate-generation imbalance columns are
//! computed for the paper's running example, the single-class `C_2`
//! join over `F_1`.

use arm_balance::Scheme;
use arm_bench::{
    banner, paper_name, pct_improvement, reps_for, write_reports, Csv, DatasetCache, ScaleMode,
    FIG_DATASETS_6,
};
use arm_core::{AprioriConfig, HashScheme, MiningResult, Support};
use arm_dataset::Database;
use arm_parallel::{ccpd, run_report, ParallelConfig, ParallelRunStats};

/// Imbalance (max/mean load) of the single-class `C_2` join assigned to
/// `p` threads by `scheme`: member `i` of `F_1` initiates `|F_1| - i - 1`
/// joins, the triangular profile of §3.1.2.
fn c2_join_imbalance(n_f1: usize, p: usize, scheme: Scheme) -> f64 {
    let weights: Vec<u64> = (0..n_f1).map(|i| (n_f1 - i - 1) as u64).collect();
    scheme.assign(&weights, p).imbalance()
}

fn run(
    db: &Database,
    p: usize,
    candgen: Scheme,
    hash: HashScheme,
    reps: usize,
    max_k: Option<u32>,
) -> (f64, MiningResult, ParallelRunStats) {
    let base = AprioriConfig {
        min_support: Support::Fraction(0.005),
        hash_scheme: hash,
        max_k,
        ..AprioriConfig::default()
    };
    let mut cfg = ParallelConfig::new(base, p).with_candgen(candgen);
    cfg.parallel_candgen_min = 2; // always exercise the COMP knob
    let mut best = f64::MAX;
    // One discarded warm-up run stabilizes allocator and cache state.
    let _ = ccpd::mine(db, &cfg);
    let mut last = None;
    for _ in 0..reps {
        let (result, stats) = ccpd::mine(db, &cfg);
        // The paper reports improvements "only based on the computation
        // time" — candidate generation, tree build, and counting.
        best = best.min(stats.simulated_time_of(&["candgen", "build", "count"]));
        last = Some((result, stats));
    }
    let (result, stats) = last.unwrap();
    (best, result, stats)
}

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Fig. 8: computation and hash tree balancing (0.5% support)",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale);
    let mut csv = Csv::new(
        "fig8.csv",
        "dataset,procs,comp_pct,tree_pct,comp_tree_pct,candgen_imbalance_block,candgen_imbalance_greedy",
    );
    let mut reports = Vec::new();

    println!(
        "{:<16} {:>2} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "dataset", "P", "COMP %", "TREE %", "COMP-TREE %", "imbal(block)", "imbal(greedy)"
    );
    for (t, i, d) in FIG_DATASETS_6 {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        for p in [1usize, 2, 4, 8] {
            let mk = arm_bench::timing_max_k(scale);
            let (base, ..) = run(&db, p, Scheme::Block, HashScheme::Interleaved, reps, mk);
            let (comp, ..) = run(&db, p, Scheme::Greedy, HashScheme::Interleaved, reps, mk);
            let (tree, ..) = run(&db, p, Scheme::Block, HashScheme::Bitonic, reps, mk);
            let (both, result, stats) = run(&db, p, Scheme::Greedy, HashScheme::Bitonic, reps, mk);
            let n_f1 = result.levels.first().map_or(0, |f1| f1.len());
            let imb_block = c2_join_imbalance(n_f1, p, Scheme::Block);
            let imb_greedy = c2_join_imbalance(n_f1, p, Scheme::Greedy);
            // The COMP-TREE run (the configuration the figure argues for)
            // doubles as this dataset/P cell's RunReport.
            reports.push(run_report("ccpd-comp-tree", &name, &result, &stats));
            let (ci, ti, bi) = (
                pct_improvement(base, comp),
                pct_improvement(base, tree),
                pct_improvement(base, both),
            );
            println!(
                "{name:<16} {p:>2} {ci:>10.1} {ti:>10.1} {bi:>12.1} {imb_block:>12.2} {imb_greedy:>12.2}"
            );
            csv.row(format!(
                "{name},{p},{ci:.2},{ti:.2},{bi:.2},{imb_block:.3},{imb_greedy:.3}"
            ));
        }
    }
    let path = csv.finish();
    let report_path = write_reports("fig8.report.json", &reports);
    println!("\nexpected shape (paper): COMP ≈ 0% at P=1, ~20% at P=8; TREE helps even");
    println!("at P=1 (~30%); COMP-TREE is the best, reaching ~40% on multiprocessors.");
    println!("csv: {}", path.display());
    println!("reports: {}", report_path.display());
}
