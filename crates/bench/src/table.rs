//! The shared table helper every experiment binary renders through: one
//! column-aligned markdown printer with a CSV mirror under `results/`,
//! plus the timing-sample hook that feeds `results/BENCH_summary.json`
//! (see [`crate::summary`]) so the cross-PR perf trajectory is recorded
//! without per-binary boilerplate.

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

use fbs::Timing;

use crate::summary;

/// A simple column-aligned markdown table accumulated row by row and
/// mirrored to CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    modeled_us: Vec<f64>,
    wall_us: Vec<f64>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            modeled_us: Vec::new(),
            wall_us: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Records one measured solve behind the table's headline numbers.
    /// [`Table::emit`] folds the samples into `results/BENCH_summary.json`
    /// as per-experiment medians (modeled and wall µs).
    pub fn sample(&mut self, timing: &Timing) {
        self.modeled_us.push(timing.total_us());
        self.wall_us.push(timing.wall_us);
    }

    /// Renders the table as column-aligned markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("\n## {}\n\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let inner: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>width$}", width = w))
                .collect();
            format!("| {} |\n", inner.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders the rows as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the markdown table, writes `results/<name>.csv` (relative
    /// to the workspace root when run via cargo), and — when timing
    /// samples were recorded — updates the experiment's medians in
    /// `results/BENCH_summary.json`. A smoke run only prints.
    pub fn emit(&self, name: &str) {
        print!("{}", self.to_markdown());
        if smoke_run() {
            println!("\n[smoke run: results/ left untouched]");
            return;
        }
        let dir = results_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        match fs::write(&path, self.to_csv()) {
            Ok(()) => println!("\n[written {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        if !self.modeled_us.is_empty() || !self.wall_us.is_empty() {
            summary::record(name, &self.modeled_us, &self.wall_us);
        }
    }
}

/// Whether this process runs a smoke configuration: any `*_SMOKE`
/// variable (`E9_SMOKE`, `E17_SMOKE`, …) is set. Smoke runs write
/// nothing under `results/`, so they never overwrite a full run's
/// numbers.
pub fn smoke_run() -> bool {
    std::env::vars_os().any(|(k, _)| k.to_str().is_some_and(|k| k.ends_with("_SMOKE")))
}

/// `results/` next to the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .ancestors()
        .nth(2)
        .map(|ws| ws.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats µs with sensible precision.
pub fn us(v: f64) -> String {
    if v >= 100_000.0 {
        format!("{:.1} ms", v / 1000.0)
    } else {
        format!("{v:.1} µs")
    }
}

/// Formats a speedup factor.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = Table::new("Demo", &["n", "time"]);
        t.row(&[&1024, &"5.0 µs"]);
        t.row(&[&2048, &"9.1 µs"]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| 1024 |"));
        let csv = t.to_csv();
        assert!(csv.starts_with("n,time\n"));
        assert!(csv.contains("2048,9.1 µs\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("Demo", &["x"]);
        t.row(&[&"a,b"]);
        assert!(t.to_csv().contains("\"a,b\""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(12.34), "12.3 µs");
        assert_eq!(us(250_000.0), "250.0 ms");
        assert_eq!(speedup(3.912), "3.91x");
    }

    #[test]
    fn sample_collects_timing() {
        let mut t = Table::new("Demo", &["x"]);
        let timing = Timing { wall_us: 7.0, ..Timing::default() };
        t.sample(&timing);
        assert_eq!(t.modeled_us.len(), 1);
        assert_eq!(t.wall_us, vec![7.0]);
    }
}
