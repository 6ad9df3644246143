//! Scheduling-mode snapshot: static block splits vs the adaptive
//! executor (`BENCH_scheduling.json`).
//!
//! Runs CCPD under both `Scheduling` modes (`Static`, `Stealing`) at P = 1/2/4/8 on two
//! datasets: the paper's (scaled) `T10.I4.D100K` and a Zipf-tailed
//! variant of it whose handful of giant transactions makes the paper's
//! equal-transaction static split lopsided. For each run it records
//! wall time, the work-model simulated time, the count-phase imbalance,
//! and the executor telemetry (chunks, steals, CAS retries).
//!
//! Two gates, reflected in the exit code so CI can smoke-run this:
//!
//! 1. **Correctness** — `Stealing` must produce frequent itemsets
//!    byte-identical to the `Static` oracle (hard failure).
//! 2. **Balance** — on the skewed dataset at P = 8, the dynamic mode
//!    must improve the count-phase imbalance over `Static`
//!    (hard failure: this is the point of the executor). Wall and
//!    simulated time are reported for the same comparison; on a
//!    single-core host only the simulated (work-model) time is
//!    meaningful, so time regressions warn rather than fail.

use arm_bench::{banner, scaled_params, timing_max_k, ScaleMode};
use arm_core::{AprioriConfig, Support};
use arm_dataset::{Database, Item};
use arm_metrics::Counter;
use arm_parallel::{ccpd, run_report, ParallelConfig, Scheduling};
use arm_quest::{generate, LengthDist};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn modes() -> [Scheduling; 2] {
    [Scheduling::Static, Scheduling::Stealing]
}

struct Row {
    dataset: &'static str,
    mode: &'static str,
    threads: usize,
    wall_seconds: f64,
    simulated_seconds: f64,
    count_imbalance: f64,
    chunks: u64,
    steals: u64,
    steal_attempts: u64,
    cursor_retries: u64,
}

fn main() {
    let scale = ScaleMode::from_env();
    banner("Scheduling-mode snapshot (BENCH_scheduling.json)", scale);

    let base = AprioriConfig {
        min_support: Support::Fraction(0.005),
        max_k: timing_max_k(scale),
        ..AprioriConfig::default()
    };

    let uniform = generate(&scaled_params(10, 4, 100_000, scale));
    let skewed = generate(&scaled_params(10, 4, 100_000, scale).with_length_dist(
        LengthDist::ZipfTail {
            exponent: 1.7,
            max_factor: 16,
        },
    ));
    let datasets: [(&str, &Database); 2] =
        [("T10.I4.D100K", &uniform), ("T10.I4.D100K-zipf16", &skewed)];

    let mut rows: Vec<Row> = Vec::new();
    let mut reports = Vec::new();
    let mut diverged = false;

    println!(
        "{:<22} {:<9} {:>2} {:>10} {:>10} {:>9} {:>8} {:>7} {:>9}",
        "dataset", "mode", "P", "wall(s)", "sim(s)", "imbal", "chunks", "steals", "retries"
    );
    for (name, db) in datasets {
        let mut oracle: Option<Vec<(Vec<Item>, u32)>> = None;
        for p in THREADS {
            for mode in modes() {
                let cfg = ParallelConfig::new(base.clone(), p).with_scheduling(mode);
                let (result, stats) = ccpd::mine(db, &cfg);
                let itemsets = result.all_itemsets();
                match &oracle {
                    None => {
                        assert_eq!(mode, Scheduling::Static, "static runs first");
                        oracle = Some(itemsets);
                    }
                    Some(expected) => {
                        if &itemsets != expected {
                            eprintln!(
                                "DIVERGENCE: {name} {} P={p} disagrees with Static",
                                mode.name()
                            );
                            diverged = true;
                        }
                    }
                }
                let row = Row {
                    dataset: name,
                    mode: mode.name(),
                    threads: p,
                    wall_seconds: stats.wall.as_secs_f64(),
                    simulated_seconds: stats.simulated_time(),
                    count_imbalance: stats.imbalance_of_heaviest("count"),
                    chunks: stats.metrics.total(Counter::ChunksExecuted),
                    steals: stats.metrics.total(Counter::ChunksStolen),
                    steal_attempts: stats.metrics.total(Counter::StealAttempts),
                    cursor_retries: stats.metrics.total(Counter::CursorCasRetries),
                };
                println!(
                    "{:<22} {:<9} {:>2} {:>10.4} {:>10.4} {:>9.3} {:>8} {:>7} {:>9}",
                    row.dataset,
                    row.mode,
                    row.threads,
                    row.wall_seconds,
                    row.simulated_seconds,
                    row.count_imbalance,
                    row.chunks,
                    row.steals,
                    row.cursor_retries
                );
                reports.push(run_report(
                    &format!("ccpd-{}-p{p}", mode.name()),
                    name,
                    &result,
                    &stats,
                ));
                rows.push(row);
            }
        }
    }

    // ---- headline comparison: skewed dataset at max P -----------------
    let at = |mode: &str, p: usize| {
        rows.iter()
            .find(|r| r.dataset == "T10.I4.D100K-zipf16" && r.mode == mode && r.threads == p)
            .unwrap()
    };
    let p_max = *THREADS.last().unwrap();
    let static_row = at("static", p_max);
    let dynamic: Vec<&Row> = ["stealing"].iter().map(|m| at(m, p_max)).collect();
    let best_balance = dynamic
        .iter()
        .min_by(|a, b| a.count_imbalance.total_cmp(&b.count_imbalance))
        .unwrap();
    let best_time = dynamic
        .iter()
        .min_by(|a, b| a.simulated_seconds.total_cmp(&b.simulated_seconds))
        .unwrap();
    println!();
    println!(
        "skewed P={p_max}: static imbalance {:.3} / sim {:.4}s -> best balance {} ({:.3}), \
         best time {} ({:.4}s)",
        static_row.count_imbalance,
        static_row.simulated_seconds,
        best_balance.mode,
        best_balance.count_imbalance,
        best_time.mode,
        best_time.simulated_seconds
    );
    let balanced = best_balance.count_imbalance < static_row.count_imbalance;
    if !balanced {
        eprintln!("FAIL: no dynamic mode improved count-phase balance over static");
    }
    if best_time.simulated_seconds >= static_row.simulated_seconds {
        eprintln!("WARNING: balance gain did not translate into simulated-time gain");
    }

    // ---- hand-formatted JSON snapshot ---------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"scheduling-modes\",\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    json.push_str("  \"datasets\": [\"T10.I4.D100K\", \"T10.I4.D100K-zipf16\"],\n");
    json.push_str(&format!(
        "  \"skewed_p{p_max}_static_imbalance\": {:.4},\n",
        static_row.count_imbalance
    ));
    json.push_str(&format!(
        "  \"skewed_p{p_max}_best_balance_mode\": \"{}\",\n",
        best_balance.mode
    ));
    json.push_str(&format!(
        "  \"skewed_p{p_max}_best_balance_imbalance\": {:.4},\n",
        best_balance.count_imbalance
    ));
    json.push_str(&format!(
        "  \"skewed_p{p_max}_static_simulated_seconds\": {:.6},\n",
        static_row.simulated_seconds
    ));
    json.push_str(&format!(
        "  \"skewed_p{p_max}_best_time_mode\": \"{}\",\n",
        best_time.mode
    ));
    json.push_str(&format!(
        "  \"skewed_p{p_max}_best_time_simulated_seconds\": {:.6},\n",
        best_time.simulated_seconds
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"wall_seconds\": {:.6}, \"simulated_seconds\": {:.6}, \
             \"count_imbalance\": {:.4}, \"chunks\": {}, \"steals\": {}, \
             \"steal_attempts\": {}, \"cursor_retries\": {}}}{}\n",
            r.dataset,
            r.mode,
            r.threads,
            r.wall_seconds,
            r.simulated_seconds,
            r.count_imbalance,
            r.chunks,
            r.steals,
            r.steal_attempts,
            r.cursor_retries,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_scheduling.json", &json).expect("write BENCH_scheduling.json");
    println!("wrote BENCH_scheduling.json");

    std::fs::write(
        "BENCH_scheduling.report.json",
        arm_metrics::reports_to_json(&reports),
    )
    .expect("write BENCH_scheduling.report.json");
    println!("wrote BENCH_scheduling.report.json");

    if diverged || !balanced {
        std::process::exit(1);
    }
}
