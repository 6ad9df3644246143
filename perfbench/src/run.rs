//! One benchmark run: generate the workload's databases from the seed,
//! probe each one (oracle and peak RSS), time rounds over all of them,
//! and print the summary.

use crate::job::{self, host_cores, Probe, Samples, Tally, Target};
use crate::metrics::{result_line, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::workload::{oracle, Fingerprint, Workload, WORKLOADS};
use parallel_arm::dataset::{io, Database};
use parallel_arm::metrics::MetricsRegistry;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Where a run writes its database files, relative to the working
/// directory (the checkout root).
const DATA_DIR: &str = ".bench_data";

/// Every how many databases one is probed for peak RSS.
const PROBE_EVERY: usize = 3;

/// Where databases are probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    /// In a child process per database, so peak RSS is per database.
    Child,
    /// In this process (smoke mode and tests).
    InProcess,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Summary {
    pub values: Vec<(Metric, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed above the result line.
    pub lines: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}\n{}", crate::USAGE))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}\n{}", crate::USAGE))
    };
    if let Some(k) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{k}"));
    }
    let name = get("workload")?;
    let workload = Workload::named(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `perfbench --workload .. --seed .. --seconds .. --trace ..`
pub fn main(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args)?;
    let summary = run(a.workload, a.seed, a.seconds, a.trace, Exec::Child)?;
    print(&summary);
    Ok(summary.failed == 0)
}

/// `perfbench smoke`: every workload on two databases, one round each,
/// untraced and traced, with the oracle, in-process.
pub fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let s = run(w.smoke(), 1, 0.01, trace, Exec::InProcess)?;
            print(&s);
            ok &= s.failed == 0;
        }
    }
    Ok(ok)
}

fn print(s: &Summary) {
    let mut out = std::io::stdout().lock();
    for l in &s.lines {
        let _ = writeln!(out, "{l}");
    }
    let _ = writeln!(
        out,
        "{}",
        result_line(s.failed == 0, s.attempted, s.failed, &s.values)
    );
}

/// The host and build record every result carries.
fn host_record() -> String {
    // Only a checkout that is itself a git work tree names its commit; an
    // exported tree inside some other repository must not borrow its HEAD.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let features = if MetricsRegistry::enabled() {
        "metrics"
    } else {
        "none"
    };
    format!(
        "# host: cores={} rustc=\"{}\" commit={commit} profile={} features={features}",
        host_cores(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

fn run(w: Workload, seed: u64, seconds: f64, trace: bool, exec: Exec) -> Result<Summary, String> {
    let threads = host_cores();
    let dir = Path::new(DATA_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{DATA_DIR}: {e}"))?;
    // Every database and its oracle fingerprint exist before any timing.
    let dbs = generate(&w, seed, threads);
    let paths: Vec<PathBuf> = (0..dbs.len())
        .map(|i| dir.join(format!("{}-{seed}-{}-{i}.txt", w.name, std::process::id())))
        .collect();
    let expects: Vec<Fingerprint> = dbs.iter().map(|(_, fp)| *fp).collect();
    let written = dbs
        .iter()
        .zip(&paths)
        .try_for_each(|((db, _), path)| write_db(db, path));
    drop(dbs);
    let outcome =
        written.and_then(|()| probe_and_measure(&w, &paths, &expects, seconds, trace, exec));
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    let (rss, samples, tally) = outcome?;
    Ok(summarize(&w, threads, trace, &rss, &samples, tally))
}

/// Generates the workload's databases and their oracle fingerprints on
/// `threads` threads, one database at a time each.
fn generate(w: &Workload, seed: u64, threads: usize) -> Vec<(Database, Fingerprint)> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Database, Fingerprint)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= w.n_dbs {
                            return out;
                        }
                        let db = w.database(seed, i);
                        let expect = oracle(w, &db);
                        out.push((i, db, expect));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|(_, db, fp)| (db, fp)).collect()
}

fn write_db(db: &Database, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut buf = std::io::BufWriter::new(file);
    io::write_text(db, &mut buf)
        .and_then(|()| buf.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Probes every `PROBE_EVERY`-th database, then times rounds over all of
/// them. Returns the probes' peak RSS, the samples and the tally of every
/// attempted job.
fn probe_and_measure(
    w: &Workload,
    paths: &[PathBuf],
    expects: &[Fingerprint],
    seconds: f64,
    trace: bool,
    exec: Exec,
) -> Result<(Vec<f64>, Vec<Samples>, Tally), String> {
    let threads = host_cores();
    let mut tally = Tally::default();
    let mut rss = Vec::new();
    for (path, &expect) in paths.iter().zip(expects).step_by(PROBE_EVERY) {
        let probed = match exec {
            Exec::InProcess => job::probe(w, path, threads, expect),
            Exec::Child => probe_child(w, path, threads, expect),
        }?;
        match probed.failure {
            Some(f) => tally.fail(format!("{}: {f}", path.display())),
            None => tally.attempted += 1,
        }
        rss.push(probed.peak_rss_mib);
    }
    let targets = paths
        .iter()
        .zip(expects)
        .map(|(path, &expect)| {
            Ok(Target {
                path: path.clone(),
                expect,
                db: job::load(path)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let window = Duration::from_secs_f64(seconds);
    let (samples, timed) = job::measure(w, &targets, threads, window, trace)?;
    tally.attempted += timed.attempted;
    tally.failed += timed.failed;
    tally.failures.extend(timed.failures);
    Ok((rss, samples, tally))
}

/// Probes one database in a child process of its own.
fn probe_child(
    w: &Workload,
    path: &Path,
    threads: usize,
    expect: Fingerprint,
) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("probe")
        .args(["--workload", w.name])
        .arg("--file")
        .arg(path)
        .args(["--threads", &threads.to_string()])
        .args(["--expect", &expect.encode()])
        .output()
        .map_err(|e| format!("cannot start probe process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "probe process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Probe::from_json(&String::from_utf8_lossy(&out.stdout))
}

/// `perfbench probe ...`: the child side of [`probe_child`]. Prints one
/// [`Probe`] as JSON.
pub fn probe_main(args: &[String]) -> Result<bool, String> {
    let value = |k: &str| {
        args.iter()
            .position(|a| a == k)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("probe: missing {k}"))
    };
    let w = Workload::named(value("--workload")?).ok_or("probe: unknown workload")?;
    let path = PathBuf::from(value("--file")?);
    let threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?;
    let expect = Fingerprint::decode(value("--expect")?).ok_or("probe: bad --expect")?;
    let p = job::probe(&w, &path, threads, expect)?;
    print!("{}", p.to_json().pretty());
    Ok(true)
}

/// The fastest of one database's samples. Another tenant of a shared
/// host can only add time to a run, never take it away, so the fastest
/// of several runs spread over the window is the steadiest estimate of
/// what the code itself costs.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median over the databases of a per-database figure.
fn over_dbs(samples: &[Samples], f: impl Fn(&Samples) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

fn summarize(
    w: &Workload,
    threads: usize,
    trace: bool,
    rss: &[f64],
    samples: &[Samples],
    tally: Tally,
) -> Summary {
    let mut lines = vec![
        host_record(),
        format!(
            "# workload {}: {}, P={threads} and P=1",
            w.name,
            w.describe()
        ),
    ];
    for f in &tally.failures {
        lines.push(format!("# FAILED {f}"));
    }
    let rounds: Vec<usize> = samples
        .iter()
        .map(|s| s.job_s.len().max(s.traced_job_s.len()))
        .collect();
    lines.push(format!(
        "# {} databases timed, {}-{} rounds each",
        samples.len(),
        rounds.iter().min().unwrap_or(&0),
        rounds.iter().max().unwrap_or(&0)
    ));
    let job_s = over_dbs(samples, |s| fastest(&s.job_s));
    let mut values = Vec::new();
    if trace {
        for m in PER_LAYER {
            let v = match m.name {
                "parallel.count_speedup" => over_dbs(samples, |s| {
                    let p = fastest(&s.count_p);
                    if p > 0.0 {
                        fastest(&s.count_1t) / p
                    } else {
                        0.0
                    }
                }),
                "trace.overhead_s" => over_dbs(samples, |s| fastest(&s.traced_job_s)) - job_s,
                name => over_dbs(samples, |s| s.layers.get(name).map_or(0.0, |v| median(v))),
            };
            values.push((m, v));
            lines.push(format!("{:<30} {v:>16.6} {}", m.name, m.unit));
        }
    } else {
        let per_db_jobs: Vec<f64> = samples.iter().map(|s| fastest(&s.job_s)).collect();
        let t = tail(&per_db_jobs);
        let mine_s = over_dbs(samples, |s| fastest(&s.mine_s));
        let mine_1t_s = over_dbs(samples, |s| fastest(&s.mine_1t_s));
        let speedup = if mine_s > 0.0 {
            mine_1t_s / mine_s
        } else {
            0.0
        };
        let n = samples.len();
        let detail = [
            format!("median over {n} databases of each one's fastest job"),
            format!(
                "p{} of the {n} per-database job times, {} beyond it",
                t.percentile, t.beyond
            ),
            "the same for the mining call inside the jobs".to_string(),
            "the same for the mining call at P=1".to_string(),
            "mine_1t_s / mine_s, wall clock".to_string(),
            "the same for a load through dataset::io::read_text".to_string(),
            format!("median over {} databases of a probe's VmHWM", rss.len()),
        ];
        let v = [
            job_s,
            t.value,
            mine_s,
            mine_1t_s,
            speedup,
            over_dbs(samples, |s| fastest(&s.setup_s)),
            median(rss),
        ];
        for ((m, v), d) in END_TO_END.iter().zip(v).zip(detail) {
            values.push((*m, v));
            lines.push(format!("{:<12} {v:>12.6} {:<4} {d}", m.name, m.unit));
        }
        let per_db: Vec<String> = samples
            .iter()
            .map(|s| format!("{:.4}/{:.4}", fastest(&s.job_s), fastest(&s.mine_1t_s)))
            .collect();
        lines.push(format!(
            "# per-database fastest job_s/mine_1t_s: {}",
            per_db.join(" ")
        ));
    }
    let rate = if tally.attempted > 0 {
        tally.failed as f64 / tally.attempted as f64
    } else {
        0.0
    };
    lines.push(format!(
        "error_rate {rate:.6} ({} failed of {} attempted jobs)",
        tally.failed, tally.attempted
    ));
    Summary {
        values,
        attempted: tally.attempted,
        failed: tally.failed,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-size runs of every workload, in both modes, report every
    /// metric of their table with its unit and agree with the oracle.
    #[test]
    fn smoke_runs_report_every_metric() {
        for w in WORKLOADS {
            for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let s = run(w.smoke(), 3, 0.01, trace, Exec::InProcess).unwrap();
                assert_eq!(s.failed, 0, "{} failed: {:?}", w.name, s.lines);
                // A probe, a warm-up job and a round of two databases.
                assert!(s.attempted >= 1 + 1 + 2 * 2);
                let got: Vec<Metric> = s.values.iter().map(|(m, _)| *m).collect();
                assert_eq!(got, table, "{} trace={trace}", w.name);
                assert!(s.values.iter().all(|(_, v)| v.is_finite()));
                let line = result_line(true, s.attempted, s.failed, &s.values);
                for m in table {
                    let unit = format!("\"unit\": \"{}\"", m.unit);
                    assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
                    assert!(line.contains(&unit));
                }
                if !trace {
                    for m in &END_TO_END {
                        let v = s.values.iter().find(|(x, _)| x == m).unwrap().1;
                        assert!(v > 0.0, "{} {} is {v}", w.name, m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload t10-count --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args("--workload t10-count --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload t10-count --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&args("--workload t10-count --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args(
            "--workload t10-count --seed 1 --seconds 2 --trace 0 --x 1"
        ))
        .is_err());
    }
}
