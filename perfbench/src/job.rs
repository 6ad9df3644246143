//! Timed jobs: the probe that runs one checked job per database before
//! timing (peak RSS and the oracle), the timed rounds over all databases
//! at P = host cores and P = 1, and in traced runs the per-layer
//! breakdown.

use crate::workload::{Fingerprint, Miner, Workload, CONFIDENCE};
use parallel_arm::core::{generate_rules, MiningResult};
use parallel_arm::dataset::{io, Database, Item};
use parallel_arm::faults::RunControl;
use parallel_arm::metrics::json::{self, Json};
use parallel_arm::metrics::Counter;
use parallel_arm::parallel::{ccpd, ParallelConfig, ParallelRunStats};
use parallel_arm::vertical::{try_mine_eclat_parallel, VerticalConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Timed loads of a database file in each of its steps, for `setup_s`.
pub const SETUP_LOADS: usize = 3;

/// One database of a run, ready to be timed.
#[derive(Debug, Clone)]
pub struct Target {
    pub path: PathBuf,
    /// The oracle's fingerprint of a job on this database.
    pub expect: Fingerprint,
    /// The database as loaded from `path`, for the P = 1 mining calls.
    pub db: Database,
}

/// Every sample taken on one database.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Untraced job walls at P = threads.
    pub job_s: Vec<f64>,
    /// The mining call alone, inside those jobs.
    pub mine_s: Vec<f64>,
    /// Untraced mining calls at P = 1 (untraced runs only).
    pub mine_1t_s: Vec<f64>,
    /// Traced job walls (traced runs only).
    pub traced_job_s: Vec<f64>,
    /// Count-phase wall of the traced jobs, and of traced mining calls
    /// at P = 1.
    pub count_p: Vec<f64>,
    pub count_1t: Vec<f64>,
    /// Per-layer values of the traced jobs.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
}

/// Attempted and failed jobs of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed job.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Refuses a thread count the host cannot run without oversubscription.
pub fn check_threads(p: usize, host: usize) -> Result<(), String> {
    if p == 0 || p > host {
        Err(format!(
            "refusing to run {p} threads on a host with {host} cores"
        ))
    } else {
        Ok(())
    }
}

/// The host's core count as the standard library reports it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Output of one mining call.
struct Mined {
    output: Output,
    stats: ParallelRunStats,
}

enum Output {
    /// CCPD's level-wise result, which rule generation reads.
    Levels(MiningResult),
    /// Eclat's flat itemset list.
    Flat(Vec<(Vec<Item>, u32)>),
}

impl Mined {
    fn levels(&self) -> Option<&MiningResult> {
        match &self.output {
            Output::Levels(r) => Some(r),
            Output::Flat(_) => None,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::default();
        match &self.output {
            Output::Levels(r) => fp.add_result(r),
            Output::Flat(sets) => {
                for (items, support) in sets {
                    fp.add_itemset(items, *support);
                }
            }
        }
        fp
    }
}

fn mine_db(w: &Workload, db: &Database, p: usize) -> Result<Mined, String> {
    let ctrl = RunControl::default();
    let (output, stats) = match w.miner {
        Miner::Ccpd => {
            let cfg = ParallelConfig::new(w.apriori(), p);
            let (result, stats) = ccpd::try_mine(db, &cfg, &ctrl).map_err(|e| e.to_string())?;
            (Output::Levels(result), stats)
        }
        Miner::Eclat => {
            let min_support = w.apriori().min_support.absolute(db.len());
            let cfg = VerticalConfig::default();
            let (sets, stats) = try_mine_eclat_parallel(db, min_support, None, &cfg, p, &ctrl)
                .map_err(|e| e.to_string())?;
            (Output::Flat(sets), stats)
        }
    };
    Ok(Mined { output, stats })
}

pub fn load(path: &Path) -> Result<Database, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    io::read_text(std::io::BufReader::new(f), 0).map_err(|e| format!("{}: {e}", path.display()))
}

/// One timed job: load, mine at P = `p`, and generate rules. Checking
/// and freeing the output happen after the clock stops.
struct Job {
    load_s: f64,
    mine_s: f64,
    rules_s: f64,
    job_s: f64,
    n_rules: u64,
    fp: Fingerprint,
    mined: Mined,
}

fn job(w: &Workload, path: &Path, p: usize) -> Result<Job, String> {
    let start = Instant::now();
    let db = load(path)?;
    let loaded = Instant::now();
    let mined = mine_db(w, black_box(&db), p)?;
    let mined_at = Instant::now();
    let (rules, done) = match mined.levels() {
        Some(result) if w.rules => (generate_rules(result, CONFIDENCE), Instant::now()),
        _ => (Vec::new(), mined_at),
    };
    let mut fp = mined.fingerprint();
    fp.add_rules(&rules);
    Ok(Job {
        load_s: (loaded - start).as_secs_f64(),
        mine_s: (mined_at - loaded).as_secs_f64(),
        rules_s: (done - mined_at).as_secs_f64(),
        job_s: (done - start).as_secs_f64(),
        n_rules: rules.len() as u64,
        fp,
        mined,
    })
}

/// Per-layer values of one traced job, from the benchmark's own spans
/// around each call and the phase records and counters the run returned.
fn layer_values(j: &Job) -> Vec<(&'static str, f64)> {
    let s = &j.mined.stats;
    let phase = |name: &str, k: Option<u32>| phase_s(s, name, k);
    let has_phase = |name: &str| s.phases.iter().any(|ph| ph.name == name);
    let total = |c: Counter| s.metrics.total(c) as f64;
    let meter = s
        .count_meters
        .iter()
        .fold(Default::default(), |mut acc, m| {
            parallel_arm::hashtree::WorkMeter::merge(&mut acc, m);
            acc
        });
    let candidates: usize = j.mined.levels().map_or(0, |r| {
        r.iter_stats
            .iter()
            .filter(|it| it.k >= 2)
            .map(|it| it.n_candidates)
            .sum()
    });
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("dataset.load_s", j.load_s),
        ("core.candgen_s", phase("candgen", None)),
        ("core.candidates", candidates as f64),
        ("core.frequent", j.fp.itemsets as f64),
        ("core.rules_s", j.rules_s),
        ("core.rules", j.n_rules as f64),
        ("hashtree.build_s", phase("build", None)),
        ("hashtree.freeze_s", phase("freeze", None)),
        (
            "hashtree.leaf_lock_contended",
            total(Counter::LeafLockContended),
        ),
        (
            "hashtree.leaf_lock_wait_s",
            total(Counter::LeafLockWaitNs) / 1e9,
        ),
        ("hashtree.tree_bytes", total(Counter::TreeBytes)),
        ("hashtree.count_s", phase("count", None)),
        ("hashtree.count_k2_s", phase("count", Some(2))),
        ("hashtree.count_k3_s", phase("count", Some(3))),
        ("hashtree.subset_checks", meter.subset_checks as f64),
        ("hashtree.node_visits", meter.node_visits as f64),
        ("hashtree.hits", meter.hits as f64),
        (
            "hashtree.hit_ratio",
            ratio(meter.hits as f64, meter.subset_checks as f64),
        ),
        ("mem.ctr_increments", total(Counter::CtrIncrements)),
        ("mem.ctr_cas_retries", total(Counter::CtrCasRetries)),
        (
            "exec.count_imbalance",
            if has_phase("count") {
                s.imbalance_of_heaviest("count")
            } else {
                0.0
            },
        ),
        ("exec.chunks", total(Counter::ChunksExecuted)),
        ("exec.steals", total(Counter::ChunksStolen)),
        ("exec.steal_attempts", total(Counter::StealAttempts)),
        ("parallel.f1_s", phase("f1", None)),
        ("parallel.serial_s", s.serial_wall().as_secs_f64()),
        ("vertical.transpose_s", phase("transpose", None)),
        ("vertical.mine_s", phase("mine", None)),
        (
            "vertical.intersections",
            total(Counter::TidsetIntersections),
        ),
        ("vertical.words_anded", total(Counter::TidsetWordsAnded)),
        (
            "vertical.tidset_mb",
            total(Counter::TidsetBytes) / (1u64 << 20) as f64,
        ),
        (
            "vertical.class_imbalance",
            if has_phase("mine") {
                s.imbalance_of_heaviest("mine")
            } else {
                0.0
            },
        ),
        ("faults.cancel_checks", total(Counter::CancelChecks)),
    ]
}

/// Wall seconds of the phases named `name` (of iteration `k`, if given).
/// Folded from +0.0 so that a run without such phases reads 0, not -0.
fn phase_s(s: &ParallelRunStats, name: &str, k: Option<u32>) -> f64 {
    s.phases
        .iter()
        .filter(|ph| ph.name == name && k.is_none_or(|k| ph.k == k))
        .fold(0.0, |acc, ph| acc + ph.wall.as_secs_f64())
}

/// Runs `f` as one checked, attempted job: an `Err`, a panic or a
/// fingerprint that differs from `expect` in the compared parts counts
/// as a failure.
fn attempt<T>(
    tally: &mut Tally,
    what: &str,
    f: impl FnOnce() -> Result<T, String>,
    check: impl FnOnce(&T) -> bool,
) -> Option<T> {
    let outcome = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) if check(&v) => {
            tally.attempted += 1;
            return Some(v);
        }
        Ok(Ok(_)) => "output differs from the oracle".to_string(),
        Ok(Err(e)) => format!("error: {e}"),
        Err(_) => "panicked".to_string(),
    };
    tally.fail(format!("{what}: {outcome}"));
    None
}

/// What the probe of one database reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Peak resident set (`VmHWM`) of the process after one job, in MiB.
    pub peak_rss_mib: f64,
    /// Why the probe's job failed, if it did.
    pub failure: Option<String>,
}

/// Runs one job at P = `threads` on the database at `path`, checks it
/// against `expect` and reads the process's peak resident set. A run
/// does this in a fresh process before any timing, so the peak belongs
/// to that database's job alone.
pub fn probe(
    w: &Workload,
    path: &Path,
    threads: usize,
    expect: Fingerprint,
) -> Result<Probe, String> {
    check_threads(threads, host_cores())?;
    let mut tally = Tally::default();
    attempt(
        &mut tally,
        "probe job",
        || job(w, path, threads),
        |j| j.fp == expect,
    );
    Ok(Probe {
        peak_rss_mib: peak_rss_mib()?,
        failure: tally.failures.pop(),
    })
}

/// Times rounds over all `targets` for `window`: each step of a round
/// times loads of one database, one job at P = `threads` and one mining
/// call at P = 1 (traced runs: one untraced job, one traced job and one
/// traced mining call at P = 1), each checked against the oracle. The
/// first round always completes, so every database has samples; later
/// rounds stop at the end of the window and run in alternating order,
/// so a cut round does not always short the same databases.
pub fn measure(
    w: &Workload,
    targets: &[Target],
    threads: usize,
    window: Duration,
    trace: bool,
) -> Result<(Vec<Samples>, Tally), String> {
    check_threads(threads, host_cores())?;
    let mut tally = Tally::default();
    let mut samples = vec![Samples::default(); targets.len()];
    // An untimed job first, so the first timed one does not pay for
    // warming the allocator and the thread pool.
    if let Some(t) = targets.first() {
        attempt(
            &mut tally,
            "warm-up job",
            || job(w, &t.path, threads),
            |j| j.fp == t.expect,
        );
    }
    let deadline = Instant::now() + window;
    let mut order: Vec<usize> = (0..targets.len()).collect();
    let mut first = true;
    'rounds: loop {
        for &i in &order {
            if !first && Instant::now() >= deadline {
                break 'rounds;
            }
            step(w, &targets[i], threads, trace, &mut samples[i], &mut tally)?;
        }
        first = false;
        order.reverse();
    }
    Ok((samples, tally))
}

/// One step of a round on one database (see [`measure`]).
fn step(
    w: &Workload,
    t: &Target,
    threads: usize,
    trace: bool,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    for _ in 0..SETUP_LOADS {
        let start = Instant::now();
        let db = load(&t.path)?;
        s.setup_s.push(start.elapsed().as_secs_f64());
        black_box(db);
    }
    let expect = t.expect;
    let same_itemsets =
        |fp: &Fingerprint| fp.itemsets == expect.itemsets && fp.itemset_sum == expect.itemset_sum;
    if let Some(j) = attempt(
        tally,
        "job",
        || job(w, &t.path, threads),
        |j| j.fp == expect,
    ) {
        s.job_s.push(j.job_s);
        s.mine_s.push(j.mine_s);
    }
    if trace {
        let traced_job = || {
            let start = Instant::now();
            let j = job(w, &t.path, threads)?;
            let values = layer_values(&j);
            let count_s = phase_s(&j.mined.stats, "count", None);
            Ok((start.elapsed().as_secs_f64(), values, count_s, j.fp))
        };
        if let Some((wall, values, count_s, _)) =
            attempt(tally, "traced job", traced_job, |v| v.3 == expect)
        {
            s.traced_job_s.push(wall);
            s.count_p.push(count_s);
            for (name, v) in values {
                s.layers.entry(name).or_default().push(v);
            }
        }
        if let Some(m) = attempt(
            tally,
            "traced P=1 mine",
            || mine_db(w, &t.db, 1),
            |m| same_itemsets(&m.fingerprint()),
        ) {
            s.count_1t.push(phase_s(&m.stats, "count", None));
        }
    } else {
        let timed = || {
            let start = Instant::now();
            let m = mine_db(w, &t.db, 1)?;
            Ok((start.elapsed().as_secs_f64(), m.fingerprint()))
        };
        if let Some((wall, _)) = attempt(tally, "P=1 mine", timed, |(_, fp)| same_itemsets(fp)) {
            s.mine_1t_s.push(wall);
        }
    }
    Ok(())
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

impl Probe {
    /// Serializes for the parent process.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("peak_rss_mib".into(), Json::Float(self.peak_rss_mib)),
            (
                "failure".into(),
                self.failure.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    /// Inverse of [`Probe::to_json`].
    pub fn from_json(text: &str) -> Result<Probe, String> {
        let doc = json::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing field {k}"));
        Ok(Probe {
            peak_rss_mib: field("peak_rss_mib")?
                .as_f64()
                .ok_or("peak_rss_mib is not a number")?,
            failure: field("failure")?.as_str().map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_is_refused() {
        assert!(check_threads(1, 1).is_ok());
        assert!(check_threads(2, 2).is_ok());
        assert!(check_threads(3, 2).is_err());
        assert!(check_threads(0, 2).is_err());
    }

    #[test]
    fn probe_round_trips() {
        let mut p = Probe {
            peak_rss_mib: 12.5,
            failure: None,
        };
        assert_eq!(Probe::from_json(&p.to_json().pretty()), Ok(p.clone()));
        p.failure = Some("probe job: panicked".into());
        assert_eq!(Probe::from_json(&p.to_json().pretty()), Ok(p));
    }
}
