//! The committed perf floors in `ci/bench_baseline.json` are real: each
//! key names a metric a bench reports, in the direction `bench-diff` judges
//! it. A floor on a key no bench writes fails `bench-diff` as missing, and a
//! floor on a key `higher_is_better` cannot classify would be reported as
//! `info` and never trip, so both are caught here, before CI runs.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use starnuma_cli::higher_is_better;
use starnuma_types::json::{parse, Json};

fn load(text: &str, what: &str) -> Json {
    parse(text).unwrap_or_else(|| panic!("{what} is not valid JSON"))
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks '{key}'"))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key).as_str().expect("a string field")
}

/// `(name, better)` for each metric of one list of `BENCHMARK.json`.
fn metrics<'a>(spec: &'a Json, list: &str) -> Vec<(&'a str, &'a str)> {
    field(spec, list)
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| (text(m, "name"), text(m, "better")))
        .collect()
}

#[test]
fn committed_floors_name_reported_metrics_in_their_direction() {
    let spec = load(include_str!("../BENCHMARK.json"), "BENCHMARK.json");
    let baseline = load(
        include_str!("../ci/bench_baseline.json"),
        "ci/bench_baseline.json",
    );
    let workloads: Vec<&str> = field(&spec, "workloads")
        .as_array()
        .expect("a workload list")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let end_to_end = metrics(&spec, "end_to_end");
    let per_layer = metrics(&spec, "per_layer");

    let floors = baseline.as_object().expect("baseline is an object");
    let mut rate_floors = Vec::new();
    for (key, value) in floors {
        if key == "note" {
            continue;
        }
        let v = value.as_num().unwrap_or(f64::NAN);
        assert!(v.is_finite() && v > 0.0, "{key}: floor {v} is not positive");
        let direction = higher_is_better(key);
        let (bench, metric) = key
            .strip_prefix("e2e.")
            .and_then(|rest| rest.split_once('.'))
            .unwrap_or_else(|| panic!("{key}: not e2e.<workload>.<metric>"));
        let (workload, list) = match bench.strip_suffix("+trace") {
            Some(w) => (w, &per_layer),
            None => (bench, &end_to_end),
        };
        assert!(
            workloads.contains(&workload),
            "{key}: '{workload}' is not a BENCHMARK.json workload"
        );
        let better = list
            .iter()
            .find(|(name, _)| *name == metric)
            .map(|(_, better)| *better)
            .unwrap_or_else(|| panic!("{key}: '{metric}' is not a metric of its mode"));
        assert_eq!(
            direction,
            Some(better == "higher"),
            "{key}: bench-diff's direction disagrees with BENCHMARK.json ('{better}')"
        );
        if metric == "accesses_per_sec" {
            rate_floors.push(workload);
        }
    }
    for w in &workloads {
        assert!(
            rate_floors.contains(w),
            "workload {w} has no accesses_per_sec floor"
        );
    }
}

/// `bench-diff` judges every end-to-end metric of `BENCHMARK.json` in the
/// direction its `better` field states, under the key each workload's
/// history line gives it, so a regression on any of them can fail CI.
#[test]
fn every_end_to_end_metric_has_its_stated_direction() {
    let spec = load(include_str!("../BENCHMARK.json"), "BENCHMARK.json");
    let workloads = field(&spec, "workloads")
        .as_array()
        .expect("a workload list");
    for (metric, better) in metrics(&spec, "end_to_end") {
        for w in workloads {
            let key = format!("e2e.{}.{metric}", text(w, "name"));
            assert_eq!(
                higher_is_better(&key),
                Some(better == "higher"),
                "{key}: BENCHMARK.json says '{better}' is better"
            );
        }
    }
}
