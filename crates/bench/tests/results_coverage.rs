//! Every experiment binary's table has its committed CSV in `results/`.
//!
//! The table names come from the `.emit("…")` calls in `src/bin/exp_*.rs`,
//! so a renamed bin, a renamed table or a dropped `emit` fails here, as
//! does a CSV that no binary writes any more.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use fbs_bench::results_dir;

/// Number of fields in one CSV line (quoted fields may hold commas).
fn fields(line: &str) -> usize {
    let mut quoted = false;
    let separators = line.chars().filter(|&c| {
        quoted ^= c == '"';
        c == ',' && !quoted
    });
    1 + separators.count()
}

#[test]
fn every_experiment_table_has_a_committed_csv() {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets it");
    let bins = Path::new(&manifest).join("src/bin");
    let mut tables = BTreeSet::new();
    for entry in fs::read_dir(&bins).expect("src/bin is readable") {
        let path = entry.expect("dir entry").path();
        let src = fs::read_to_string(&path).expect("bin source is readable");
        let names: Vec<&str> = src
            .split(".emit(\"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        assert!(!names.is_empty(), "{} emits no table", path.display());
        tables.extend(names.into_iter().map(str::to_string));
    }

    let dir = results_dir();
    for name in &tables {
        let path = dir.join(format!("{name}.csv"));
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: no committed {}: {e}", path.display()));
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        let rows: Vec<&str> = lines.collect();
        assert!(!rows.is_empty(), "{name}.csv has no data rows");
        for row in rows {
            assert_eq!(
                fields(row),
                fields(header),
                "{name}.csv: row {row:?} vs header"
            );
        }
    }

    let committed: BTreeSet<String> = fs::read_dir(&dir)
        .expect("results/ is readable")
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_suffix(".csv")
                .map(str::to_string)
        })
        .collect();
    let orphans: Vec<_> = committed.difference(&tables).collect();
    assert!(orphans.is_empty(), "CSVs no experiment writes: {orphans:?}");
}
