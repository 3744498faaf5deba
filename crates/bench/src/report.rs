//! Timing and plain-text table rendering for the benchmark binaries.

use std::time::{Duration, Instant};

/// Runs `f`, returning its result together with the elapsed wall-clock time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration as milliseconds with three decimals (the unit used in
/// the paper's plots).
pub fn format_duration(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

/// A fixed-width plain-text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
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
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders and prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_returns_the_closure_result() {
        let (value, elapsed) = time(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(elapsed >= Duration::ZERO);
    }

    #[test]
    fn duration_formatting_is_in_milliseconds() {
        assert_eq!(format_duration(Duration::from_millis(12)), "12.000");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.500");
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = Table::new(["query", "time (ms)"]);
        table.row(["Q1", "1.2"]);
        table.row(["Q10", "123.4"]);
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("query"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("Q1 "));
        assert!(lines[3].starts_with("Q10"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut table = Table::new(["a", "b", "c"]);
        table.row(["1"]);
        assert!(table.render().lines().count() >= 3);
    }
}
