//! `results/BENCH_summary.json` — the cross-run perf trajectory.
//!
//! Every experiment binary and micro-bench group folds its headline
//! medians into one machine-readable file, keyed by experiment name, so
//! successive runs (and successive PRs) can be diffed without scraping
//! stdout or re-parsing per-experiment CSVs. The file is read-modify-
//! written: running one experiment updates its own entry and leaves the
//! rest untouched. Modeled medians are deterministic for a fixed seed;
//! wall medians are whatever the current host produced.

use std::collections::BTreeMap;
use std::fs;

use telemetry::json::{self, Value};

use crate::table::{results_dir, smoke_run};

/// Median of the samples (NaN-free input assumed), or `None` when empty.
fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { 0.5 * (s[n / 2 - 1] + s[n / 2]) })
}

/// Builds the JSON entry for one experiment.
fn entry(modeled_us: &[f64], wall_us: &[f64]) -> Value {
    let mut o = BTreeMap::new();
    if let Some(m) = median(modeled_us) {
        o.insert("median_modeled_us".to_string(), Value::Num(m));
    }
    if let Some(w) = median(wall_us) {
        o.insert("median_wall_us".to_string(), Value::Num(w));
    }
    o.insert(
        "samples".to_string(),
        Value::Num(modeled_us.len().max(wall_us.len()) as f64),
    );
    Value::Obj(o)
}

/// Reads the existing summary's experiment map, tolerating a missing or
/// malformed file (a fresh map in both cases).
fn load_experiments(text: Option<&str>) -> BTreeMap<String, Value> {
    let Some(text) = text else { return BTreeMap::new() };
    match json::parse(text) {
        Ok(Value::Obj(mut root)) => match root.remove("experiments") {
            Some(Value::Obj(map)) => map,
            _ => BTreeMap::new(),
        },
        _ => BTreeMap::new(),
    }
}

/// Serialises the summary document (single line + trailing newline,
/// deterministic key order).
fn render(experiments: BTreeMap<String, Value>) -> String {
    let mut root = BTreeMap::new();
    root.insert("experiments".to_string(), Value::Obj(experiments));
    let mut s = Value::Obj(root).to_json();
    s.push('\n');
    s
}

/// Folds one experiment's timing samples into
/// `results/BENCH_summary.json` as medians. Best-effort like the CSV
/// mirror: I/O failures warn on stderr rather than failing the run. A
/// smoke run records nothing.
pub fn record(name: &str, modeled_us: &[f64], wall_us: &[f64]) {
    if smoke_run() {
        return;
    }
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_summary.json");
    let existing = fs::read_to_string(&path).ok();
    let mut experiments = load_experiments(existing.as_deref());
    experiments.insert(name.to_string(), entry(modeled_us, wall_us));
    match fs::write(&path, render(experiments)) {
        Ok(()) => println!("[summary {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Folds one named scalar metric into an experiment's entry in
/// `results/BENCH_summary.json`, preserving whatever medians [`record`]
/// already wrote for it. Used for headline numbers that are not timing
/// medians — e.g. E9's `scenarios_per_sec` throughput. A smoke run
/// records nothing.
pub fn record_metric(name: &str, key: &str, value: f64) {
    if smoke_run() {
        return;
    }
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_summary.json");
    let existing = fs::read_to_string(&path).ok();
    let mut experiments = load_experiments(existing.as_deref());
    merge_metric(&mut experiments, name, key, value);
    if let Err(e) = fs::write(&path, render(experiments)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Inserts `key = value` into `name`'s entry, creating the entry (or
/// replacing a non-object one) as needed.
fn merge_metric(experiments: &mut BTreeMap<String, Value>, name: &str, key: &str, value: f64) {
    let entry = experiments
        .entry(name.to_string())
        .or_insert_with(|| Value::Obj(BTreeMap::new()));
    match entry {
        Value::Obj(o) => {
            o.insert(key.to_string(), Value::Num(value));
        }
        other => {
            let mut o = BTreeMap::new();
            o.insert(key.to_string(), Value::Num(value));
            *other = Value::Obj(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
        assert_eq!(median(&[4.0, 2.0, 8.0, 6.0]), Some(5.0));
    }

    #[test]
    fn entry_skips_missing_series() {
        let e = entry(&[2.0, 1.0], &[]);
        assert_eq!(e.get("median_modeled_us").and_then(Value::as_f64), Some(1.5));
        assert!(e.get("median_wall_us").is_none());
        assert_eq!(e.get("samples").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn read_modify_write_preserves_other_entries() {
        let mut first = BTreeMap::new();
        first.insert("e1".to_string(), entry(&[10.0], &[20.0]));
        let text = render(first);
        let mut loaded = load_experiments(Some(&text));
        loaded.insert("e2".to_string(), entry(&[30.0], &[]));
        let text2 = render(loaded);
        let v = json::parse(&text2).unwrap();
        let exps = v.get("experiments").unwrap();
        assert_eq!(
            exps.get("e1").unwrap().get("median_modeled_us").and_then(Value::as_f64),
            Some(10.0)
        );
        assert_eq!(
            exps.get("e2").unwrap().get("median_modeled_us").and_then(Value::as_f64),
            Some(30.0)
        );
    }

    #[test]
    fn merge_metric_preserves_existing_medians() {
        let mut exps = BTreeMap::new();
        exps.insert("e9_batch".to_string(), entry(&[100.0], &[200.0]));
        merge_metric(&mut exps, "e9_batch", "scenarios_per_sec", 50_000.0);
        let e = &exps["e9_batch"];
        assert_eq!(e.get("median_modeled_us").and_then(Value::as_f64), Some(100.0));
        assert_eq!(e.get("scenarios_per_sec").and_then(Value::as_f64), Some(50_000.0));
        // A metric on an experiment with no medians creates the entry.
        merge_metric(&mut exps, "fresh", "k", 1.0);
        assert_eq!(exps["fresh"].get("k").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn malformed_existing_file_starts_fresh() {
        assert!(load_experiments(Some("not json")).is_empty());
        assert!(load_experiments(Some("{\"experiments\": 3}")).is_empty());
        assert!(load_experiments(None).is_empty());
    }
}
