//! Plain-text rendering: aligned tables and ASCII bar charts.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// An aligned plain-text table.
///
/// # Examples
///
/// ```
/// use bandwall_experiments::render::Table;
///
/// let mut t = Table::new(&["technique", "cores"]);
/// t.row(vec!["DRAM".into(), "18".into()]);
/// t.row(vec!["3D".into(), "14".into()]);
/// let out = t.render();
/// assert!(out.contains("DRAM"));
/// assert!(out.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table with a header underline; the first column is
    /// left-aligned, the rest right-aligned.
    pub fn render(&self) -> String {
        let columns = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        let all_rows = std::iter::once(&self.headers).chain(&self.rows);
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, row: &[String]| {
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let align = if i == 0 { Align::Left } else { Align::Right };
                let pad = width - cell.chars().count();
                match align {
                    Align::Left => {
                        out.push_str(cell);
                        out.extend(std::iter::repeat_n(' ', pad));
                    }
                    Align::Right => {
                        out.extend(std::iter::repeat_n(' ', pad));
                        out.push_str(cell);
                    }
                }
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Renders a horizontal ASCII bar of `value` scaled so `max` spans
/// `width` characters.
///
/// # Examples
///
/// ```
/// use bandwall_experiments::render::bar;
///
/// assert_eq!(bar(5.0, 10.0, 10), "#####");
/// assert_eq!(bar(10.0, 10.0, 10), "##########");
/// assert_eq!(bar(0.0, 10.0, 10), "");
/// ```
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(cells(&["a", "1"]));
        t.row(cells(&["longer", "12345"]));
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header and underline present.
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with('-'));
        // Numbers right-aligned: the ones digit lines up.
        let pos1 = lines[2].rfind('1').unwrap();
        let pos5 = lines[3].rfind('5').unwrap();
        assert_eq!(pos1, pos5);
    }

    #[test]
    fn table_handles_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(cells(&["x", "extra"]));
        t.row(Vec::new());
        let out = t.render();
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(2.5, 10.0, 20), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped at width");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
