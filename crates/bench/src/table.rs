//! Minimal table formatter shared by all experiments: aligned console
//! output plus optional CSV export.
//!
//! Set `NWO_CSV=<dir>` to write every experiment's table as
//! `<dir>/<name>.csv`, ready for plotting.

use std::fmt::Write as _;

/// A titled table with a fixed column set.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    csv_name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table. `csv_name` is the (extension-free) CSV file name.
    pub fn new(title: &str, csv_name: &str, columns: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            csv_name: csv_name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (must match the column count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Appends a free-form note printed under the table (not in the CSV).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the aligned console form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n==== {} ====\n", self.title);
        for (i, col) in self.columns.iter().enumerate() {
            let pad = widths[i];
            if i == 0 {
                let _ = write!(out, "{col:<pad$}");
            } else {
                let _ = write!(out, "  {col:>pad$}");
            }
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let pad = widths[i];
                if i == 0 {
                    let _ = write!(out, "{cell:<pad$}");
                } else {
                    let _ = write!(out, "  {cell:>pad$}");
                }
            }
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }

    /// The CSV form (header + rows, comma-separated, quotes around cells
    /// containing commas).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table and, when `NWO_CSV` is set, writes the CSV file.
    pub fn emit(&self) {
        print!("{}", self.render());
        if let Some(dir) = crate::env::Env::current().csv_dir {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("NWO_CSV: cannot create {}: {e}", dir.display());
                return;
            }
            let path = dir.join(format!("{}.csv", self.csv_name));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("NWO_CSV: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// Formats a float with one decimal place.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a percentage with one decimal place.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Formats a signed percentage with two decimal places.
pub fn spct(v: f64) -> String {
    format!("{v:+.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", "t", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "23".into()]);
        let s = t.render();
        assert!(s.contains("==== T ===="));
        assert!(s.contains("long-name"));
        // Value column right-aligned to the same width.
        let lines: Vec<&str> = s
            .lines()
            .filter(|l| !l.is_empty() && !l.contains("===="))
            .collect();
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("T", "t", &["a", "b"]);
        t.row(vec!["x,y".into(), "z\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"z\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T", "t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(pct(54.13), "54.1%");
        assert_eq!(spct(4.3), "+4.30%");
        assert_eq!(spct(-0.5), "-0.50%");
    }
}
