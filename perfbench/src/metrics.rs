//! Names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` lists the same tables; a test keeps them in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by an untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 7] = [
    m("job_s", "s", Lower),
    m("job_s_tail", "s", Lower),
    m("mine_s", "s", Lower),
    m("mine_1t_s", "s", Lower),
    m("speedup", "x", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Reported by a traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 35] = [
    m("dataset.load_s", "s", Lower),
    m("core.candgen_s", "s", Lower),
    m("core.candidates", "count", Lower),
    m("core.frequent", "count", Higher),
    m("core.rules_s", "s", Lower),
    m("core.rules", "count", Higher),
    m("hashtree.build_s", "s", Lower),
    m("hashtree.freeze_s", "s", Lower),
    m("hashtree.leaf_lock_contended", "count", Lower),
    m("hashtree.leaf_lock_wait_s", "s", Lower),
    m("hashtree.tree_bytes", "B", Lower),
    m("hashtree.count_s", "s", Lower),
    m("hashtree.count_k2_s", "s", Lower),
    m("hashtree.count_k3_s", "s", Lower),
    m("hashtree.subset_checks", "count", Lower),
    m("hashtree.node_visits", "count", Lower),
    m("hashtree.hits", "count", Higher),
    m("hashtree.hit_ratio", "ratio", Higher),
    m("mem.ctr_increments", "count", Lower),
    m("mem.ctr_cas_retries", "count", Lower),
    m("exec.count_imbalance", "ratio", Lower),
    m("exec.chunks", "count", Lower),
    m("exec.steals", "count", Lower),
    m("exec.steal_attempts", "count", Lower),
    m("parallel.f1_s", "s", Lower),
    m("parallel.serial_s", "s", Lower),
    m("parallel.count_speedup", "x", Higher),
    m("vertical.transpose_s", "s", Lower),
    m("vertical.mine_s", "s", Lower),
    m("vertical.intersections", "count", Lower),
    m("vertical.words_anded", "count", Lower),
    m("vertical.tidset_mb", "MiB", Lower),
    m("vertical.class_imbalance", "ratio", Lower),
    m("faults.cancel_checks", "count", Lower),
    m("trace.overhead_s", "s", Lower),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .copied()
        .find(|m| m.name == name)
}

/// Formats the final result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(Metric, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A finite number in JSON syntax with every digit kept; non-finite
/// values (which JSON cannot hold) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallel_arm::metrics::json::{self, Json};

    /// A legal metric name: `[A-Za-z0-9_.-]+`, at most 64 characters,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn better(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn every_name_is_legal_and_unique() {
        let all: Vec<Metric> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (i, a) in all.iter().enumerate() {
            assert!(valid_name(a.name), "bad name {}", a.name);
            assert!(all[i + 1..].iter().all(|b| b.name != a.name), "{}", a.name);
            assert!(
                !a.unit.is_empty()
                    && a.unit.len() <= 16
                    && a.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                a.unit
            );
        }
        assert!(!valid_name("job s"));
        assert!(!valid_name("_job"));
        assert!(!valid_name(""));
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(ms: &[Metric]) -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m.better).into()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn setup_bound_is_the_largest() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        let bound = |e: &Json| e.get("bound").and_then(Json::as_f64).unwrap();
        let setup = e2e
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"))
            .map(bound)
            .unwrap();
        assert!(e2e.iter().all(|e| bound(e) <= setup && bound(e) <= 0.25));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[(END_TO_END[0], 0.125)]);
        let doc = json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let job = doc.get("metrics").and_then(|m| m.get("job_s")).unwrap();
        assert_eq!(job.get("value").and_then(Json::as_f64), Some(0.125));
        assert_eq!(job.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }
}
