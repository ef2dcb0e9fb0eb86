//! Shared helpers for the benchmark/figure-regeneration harness.
//!
//! Every table and figure of the paper is a function of [`paper`], and
//! the `paper` binary runs them all; the `scenario_suite`, `sweep` and
//! `adversary` binaries drive the scenario engine (see the crate map in
//! docs/ARCHITECTURE.md). They print human-readable tables and drop
//! CSV files under `results/`.

use std::fmt::Write as _;
use std::path::PathBuf;

pub mod cli;
pub mod paper;

/// The directory where regeneration binaries drop CSV artifacts.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("can create results dir");
    dir.canonicalize().unwrap_or(dir)
}

/// A simple aligned text table with CSV export.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<w$} ", c, w = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&self.header, &widths, &mut out);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
            if i == widths.len() - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Print to stdout and save CSV under `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let path = results_dir().join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv()).expect("write results csv");
        println!("[saved {}]\n", path.display());
    }
}

/// Format a f64 compactly.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_exports() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        let txt = t.render();
        assert!(txt.contains("| a"));
        assert!(txt.contains("| 1"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(0.5), "0.500");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
