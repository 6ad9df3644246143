//! Compare mode: two result sets, parent and change, judged metric by
//! metric with the benchmark's bounds.
//!
//! A result set is a directory holding, per workload, `<workload>.jsonl`
//! (one untraced result line per run) and optionally
//! `<workload>.trace.jsonl` (one traced result line per run). Line `i`
//! of the parent and line `i` of the change form pair `i`; record them
//! with the same seeds in the same order (`record.sh` does).

use crate::metrics::{find, Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::WORKLOADS;
use parallel_arm::metrics::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Share of pairs the change must win to claim an improvement.
const WIN_SHARE: f64 = 0.9;

/// Outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

/// Judges one end-to-end metric (see the choosing-metrics rule in the
/// README): an improvement needs at least 90% of pairs won and a median
/// gap wider than the parent's own quartile spread; a regression is a
/// median worse by more than `bound`; a spread wider than `bound` leaves
/// the metric unresolved unless every change run beats every parent run.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let gain = |p: f64, c: f64| sign * (p - c);
    let pairs = parent.len().min(change.len());
    let won = wins(parent, change, better);
    let (p1, p3) = quartiles(parent);
    let rel_spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        let m = median(xs);
        if m != 0.0 {
            (q3 - q1) / m.abs()
        } else {
            0.0
        }
    };
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    if pairs > 0 && won as f64 >= WIN_SHARE * pairs as f64 && gain(mp, mc) > p3 - p1 {
        Verdict::Improved
    } else if mp != 0.0 && -gain(mp, mc) / mp.abs() > bound {
        Verdict::Worse
    } else if rel_spread(parent).max(rel_spread(change)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::NoWorse
    }
}

/// Pairs in which the change reads better than the parent; ties count
/// for neither side.
fn wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count()
}

/// Metric values per name, one per result line of `path`.
fn read_set(path: &Path) -> Result<Option<BTreeMap<String, Vec<f64>>>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (n, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let doc = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}:{}: no metrics object", path.display(), n + 1));
        };
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            out.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(Some(out))
}

/// The per-metric bounds `BENCHMARK.json` fixes.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    Ok(doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|e| {
            let name = e.get("name")?.as_str()?.to_string();
            Some((name, e.get("bound")?.as_f64()?))
        })
        .collect())
}

fn label(v: Verdict) -> &'static str {
    match v {
        Verdict::Improved => "improved",
        Verdict::NoWorse => "no worse",
        Verdict::Worse => "WORSE",
        Verdict::Unresolved => "unresolved",
    }
}

/// `perfbench compare <parent> <change>`. Fails when any end-to-end
/// metric of any workload is worse.
pub fn main(parent: &str, change: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    for w in WORKLOADS {
        let file = |dir: &str, suffix: &str| Path::new(dir).join(format!("{}{suffix}", w.name));
        if let (Some(p), Some(c)) = (
            read_set(&file(parent, ".jsonl"))?,
            read_set(&file(change, ".jsonl"))?,
        ) {
            println!("== {} (end to end)", w.name);
            println!(
                "{:<12} {:>30} {:>30} {:>6} {:>6}  verdict",
                "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "bound"
            );
            for m in END_TO_END {
                let (Some(pv), Some(cv)) = (p.get(m.name), c.get(m.name)) else {
                    continue;
                };
                let bound = bounds.get(m.name).copied().unwrap_or(0.0);
                let v = verdict(pv, cv, m.better, bound);
                ok &= v != Verdict::Worse;
                let side = |xs: &[f64]| {
                    let (q1, q3) = quartiles(xs);
                    format!("{:.5} [{q1:.5}, {q3:.5}]", median(xs))
                };
                let pairs = pv.len().min(cv.len());
                let won = wins(pv, cv, m.better);
                println!(
                    "{:<12} {:>30} {:>30} {:>6} {:>6}  {}",
                    m.name,
                    side(pv),
                    side(cv),
                    format!("{won}/{pairs}"),
                    bound,
                    label(v)
                );
            }
        }
        if let (Some(p), Some(c)) = (
            read_set(&file(parent, ".trace.jsonl"))?,
            read_set(&file(change, ".trace.jsonl"))?,
        ) {
            println!("== {} (per layer, medians)", w.name);
            for (name, pv) in &p {
                let Some(cv) = c.get(name) else { continue };
                let (mp, mc) = (median(pv), median(cv));
                let rel = if mp != 0.0 {
                    format!("{:+.1}%", 100.0 * (mc - mp) / mp.abs())
                } else {
                    "-".to_string()
                };
                let unit = find(name).map_or("", |m| m.unit);
                println!("{name:<30} {mp:>14.6} -> {mc:>14.6} {unit:<6} {rel}");
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        let same = parent.clone();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.1),
            Verdict::NoWorse
        );
        // For a higher-is-better metric the same numbers flip.
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let change = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
