//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple fixed-width text table (right-aligned numeric columns).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(out, "  {:>width$}", cell, width = widths[i]);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["policy", "time", "I/Os"]);
        t.row(["normal", "283.72", "4186"]);
        t.row(["relevance", "99.55", "1842"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("policy"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("normal"));
        assert!(lines[3].contains("relevance"));
        // Numeric columns are right aligned: the shorter number is padded.
        assert!(lines[3].contains(" 99.55"));
    }

    #[test]
    fn helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(283.721), "283.72");
        assert_eq!(pct(0.9394), "93.9%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }
}
