//! Output plumbing: CSV files under `results/` and aligned text tables on
//! stdout (the harness "prints the same rows/series the paper reports").

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The repository's results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let candidates = [PathBuf::from("results"), PathBuf::from("../../results")];
    for c in &candidates {
        if c.exists() {
            return c.clone();
        }
    }
    let dir = candidates[0].clone();
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a custom-harness bench's record `BENCH_<name>.json` into
/// [`results_dir`], and mirrors it into the workspace root's `results/`
/// when that is a different existing directory (`cargo bench` runs with
/// the package as cwd, so [`results_dir`] is `crates/bench/results`
/// there). Prints every path written; panics when a write fails.
pub fn write_bench_json(name: &str, json: &str) {
    let file = format!("BENCH_{name}.json");
    let dir = results_dir();
    let root = PathBuf::from("../../results");
    let distinct = match (dir.canonicalize().ok(), root.canonicalize().ok()) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    let mirror = distinct.then(|| root.join(&file));
    for target in std::iter::once(dir.join(&file)).chain(mirror) {
        fs::write(&target, json).unwrap_or_else(|e| panic!("write {}: {e}", target.display()));
        println!("wrote {}", target.display());
    }
}

/// Writes a CSV file of string cells.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "{}", header.join(","))?;
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| vfl_tabular::csv::escape_field(c))
            .collect();
        writeln!(out, "{}", escaped.join(","))?;
    }
    out.flush()
}

/// Convenience: writes a CSV of `f64` rows.
pub fn write_csv_f64(path: &Path, header: &[&str], rows: &[Vec<f64>]) -> std::io::Result<()> {
    let string_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:.6}")).collect())
        .collect();
    write_csv(path, header, &string_rows)
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>width$}", width = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// `mean±std` cell formatting used by the paper's tables.
pub fn pm(mean: f64, std: f64, decimals: usize) -> String {
    format!("{mean:.decimals$}±{std:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("vfl_bench_report_test");
        let path = dir.join("t.csv");
        write_csv(&path, &["a", "b"], &[vec!["1".into(), "x,y".into()]]).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,\"x,y\"\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pm_formatting() {
        assert_eq!(pm(2.93, 0.04, 2), "2.93±0.04");
        assert_eq!(pm(170.0, 0.0, 1), "170.0±0.0");
    }
}
