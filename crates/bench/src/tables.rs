//! Table rendering for the experiment benches: aligned console output in
//! the paper's `mean ± variance` style plus one machine-readable JSON line
//! per table.

use fc_geom::stats::{mean, variance};

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: AsRef<str>>(title: impl Into<String>, header: &[S]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cell count should match the header).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the aligned table to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&format!("{}\n", "-".repeat(total)));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table and a compact JSON line for machine consumption.
    pub fn print(&self) {
        print!("{}", self.render());
        let header: Vec<String> = self.header.iter().map(|h| json_string(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        println!(
            "JSON {{\"table\":{},\"header\":[{}],\"rows\":[{}]}}",
            json_string(&self.title),
            header.join(","),
            rows.join(",")
        );
    }
}

/// Escapes a string as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats repeated measurements the way the paper reports cells:
/// `mean ± variance`, with short human-friendly precision.
pub fn fmt_mean_var(values: &[f64]) -> String {
    format!(
        "{} ± {}",
        fmt_compact(mean(values)),
        fmt_compact(variance(values))
    )
}

/// Compact numeric formatting: `1.07`, `86.3`, `2.4K`, `3.2B`, `inf`.
pub fn fmt_compact(v: f64) -> String {
    if !v.is_finite() {
        return if v.is_nan() {
            "nan".into()
        } else {
            "inf".into()
        };
    }
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}B", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}K", v / 1e3)
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.095 || a == 0.0 {
        format!("{v:.2}")
    } else if a >= 0.0005 {
        format!("{v:.4}")
    } else {
        format!("{v:.1e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "2.0".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        // Both rows align: the "value" column starts at the same offset.
        let lines: Vec<&str> = s
            .lines()
            .filter(|l| l.contains("1.0") || l.contains("2.0"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].find("1.0"), lines[1].find("2.0"));
    }

    #[test]
    fn compact_formats() {
        assert_eq!(fmt_compact(1.066), "1.07");
        assert_eq!(fmt_compact(86.33), "86.3");
        assert_eq!(fmt_compact(614.2), "614");
        assert_eq!(fmt_compact(24_000.0), "24.0K");
        assert_eq!(fmt_compact(3.2e9), "3.2B");
        assert_eq!(fmt_compact(f64::INFINITY), "inf");
    }

    #[test]
    fn mean_var_matches_paper_style() {
        let s = fmt_mean_var(&[1.0, 1.2, 0.8]);
        assert!(s.contains('±'), "{s}");
        assert!(s.starts_with("1.00"), "{s}");
    }
}
