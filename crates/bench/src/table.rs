//! The shared table helper every experiment binary renders through: one
//! column-aligned markdown printer with a CSV mirror under `results/`.

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-aligned markdown table accumulated row by row and
/// mirrored to CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
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

    /// Prints the markdown table and writes `results/<name>.csv` (see
    /// [`results_dir`]). A smoke run only prints.
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
    }
}

/// Whether this process runs a smoke configuration: any `*_SMOKE`
/// variable (`E9_SMOKE`, `E17_SMOKE`, …) is set. Smoke runs write
/// nothing under `results/`, so they never overwrite a full run's
/// numbers.
pub fn smoke_run() -> bool {
    std::env::vars_os().any(|(k, _)| k.to_str().is_some_and(|k| k.ends_with("_SMOKE")))
}

/// `results/` at the root of the checkout being run: resolved at run
/// time from the `CARGO_MANIFEST_DIR` that `cargo run` and `cargo test`
/// set, else `./results`. Never the compile-time path — a checkout
/// copied together with its `target/` reuses the old binaries, which
/// would otherwise write into the original checkout.
pub fn results_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR");
    results_dir_for(manifest.as_deref().map(Path::new))
}

/// [`results_dir`] for a given `crates/bench` manifest directory.
fn results_dir_for(manifest: Option<&Path>) -> PathBuf {
    manifest
        .and_then(|m| m.ancestors().nth(2))
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
    fn results_dir_follows_the_run_time_manifest() {
        let dir = results_dir_for(Some(Path::new("/copy/of/repo/crates/bench")));
        assert_eq!(dir, Path::new("/copy/of/repo/results"));
        assert_eq!(results_dir_for(None), Path::new("results"));
    }
}
