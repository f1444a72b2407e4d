//! Minimal text-table formatting for experiment output.

/// A simple aligned text table (monospace output for terminals).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn add_row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table as aligned monospace text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a floating-point value in the scientific notation used by the
/// paper's tables (e.g. `4.45140e+08`).
#[must_use]
pub fn sci(value: f64) -> String {
    format!("{value:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut table = TextTable::new("Demo", &["Set", "Power", "F"]);
        table.add_row(["S1".to_string(), "31".to_string(), sci(4.4514e8)]);
        table.add_row(["S3".to_string(), "32".to_string(), sci(4.64428e8)]);
        let text = table.render();
        assert!(text.contains("Demo"));
        assert!(text.contains("Set"));
        assert!(text.contains("4.451e8"));
        let lines: Vec<&str> = text.lines().collect();
        // Title + header + rule + 2 rows.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut table = TextTable::new("", &["a", "b", "c"]);
        table.add_row(["only".to_string()]);
        assert_eq!(table.rows[0].len(), 3);
        assert!(table.render().contains("only"));
    }

    #[test]
    fn sci_formats_like_the_paper() {
        assert_eq!(sci(37_690_000_000.0), "3.769e10");
        assert_eq!(sci(0.0), "0.000e0");
    }
}
