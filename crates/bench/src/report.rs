//! Structured experiment reports.
//!
//! Every experiment in the registry produces a [`Report`]: an ordered
//! list of blocks (notes and typed tables) plus headline [`Metric`]s
//! that pair each model value with the paper's reported number. A
//! report renders as ASCII (byte-compatible with the committed golden
//! reports), CSV, or JSON.

use crate::header_string;
use crate::render::{bar, Table};
use std::fmt;

/// One table cell: the exact ASCII text plus an optional
/// machine-readable numeric value for CSV/JSON output.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    text: String,
    num: Option<f64>,
}

impl Value {
    /// An empty cell.
    pub fn empty() -> Self {
        Value {
            text: String::new(),
            num: None,
        }
    }

    /// A plain text cell with no numeric payload.
    pub fn text(text: impl Into<String>) -> Self {
        Value {
            text: text.into(),
            num: None,
        }
    }

    /// An integer count cell.
    pub fn int(value: u64) -> Self {
        Value {
            text: value.to_string(),
            num: Some(value as f64),
        }
    }

    /// A float cell rendered with `digits` decimals.
    pub fn float(value: f64, digits: usize) -> Self {
        Value {
            text: format!("{value:.digits$}"),
            num: Some(value),
        }
    }

    /// A custom-formatted cell carrying `num` as its machine value
    /// (e.g. text `"17.3%"` with value `0.173`).
    pub fn fmt(text: impl Into<String>, num: f64) -> Self {
        Value {
            text: text.into(),
            num: Some(num),
        }
    }

    /// An ASCII bar cell; the machine value is the bar's magnitude.
    pub fn bar(value: f64, max: f64, width: usize) -> Self {
        Value {
            text: bar(value, max, width),
            num: Some(value),
        }
    }

    /// The machine-readable value, when the cell has one.
    pub fn num(&self) -> Option<f64> {
        self.num
    }
}

/// A typed table: optional leading title line, column headers, and rows
/// of [`Value`] cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableBlock {
    /// Optional line printed above the table (ASCII only).
    pub title: Option<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; ragged rows are allowed.
    pub rows: Vec<Vec<Value>>,
}

impl TableBlock {
    /// Creates a table with the given column headers.
    pub fn new(columns: &[&str]) -> Self {
        TableBlock {
            title: None,
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets the title line printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row of cells.
    pub fn push_row(&mut self, row: Vec<Value>) -> &mut Self {
        self.rows.push(row);
        self
    }

    /// Renders the table body (headers + rows) as aligned ASCII.
    pub fn to_ascii(&self) -> String {
        let headers: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let mut t = Table::new(&headers);
        for row in &self.rows {
            t.row(row.iter().map(|v| v.text.clone()).collect());
        }
        t.render()
    }
}

/// One block of report output, in presentation order.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// A single line of text.
    Note(String),
    /// An empty line (ASCII only).
    Blank,
    /// A typed table.
    Table(TableBlock),
}

/// A headline model-vs-paper number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (snake_case, stable across runs).
    pub name: String,
    /// The value this reproduction computes.
    pub model: f64,
    /// The paper's reported value, when it states one.
    pub paper: Option<f64>,
}

impl Metric {
    /// `model - paper`, when the paper states a value.
    pub fn delta(&self) -> Option<f64> {
        self.paper.map(|p| self.model - p)
    }
}

/// The structured result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registry id (e.g. `fig02_traffic_vs_cores`).
    pub id: String,
    /// Figure/table label (e.g. `"Figure 2"`).
    pub figure: String,
    /// Human title printed in the header banner.
    pub title: String,
    /// Ordered presentation blocks.
    pub blocks: Vec<Block>,
    /// Headline model/paper/delta triples.
    pub metrics: Vec<Metric>,
    /// `Some(message)` when the experiment failed to produce a result;
    /// failed reports render as a failure banner / row / JSON object.
    pub error: Option<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, figure: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            figure: figure.into(),
            title: title.into(),
            blocks: Vec::new(),
            metrics: Vec::new(),
            error: None,
        }
    }

    /// Creates a failure report for an experiment that produced no result:
    /// the registry identity plus the error message, rendered by every
    /// format as an explicit failure (never silently dropped).
    pub fn failure(
        id: impl Into<String>,
        figure: impl Into<String>,
        title: impl Into<String>,
        error: impl fmt::Display,
    ) -> Self {
        let mut report = Report::new(id, figure, title);
        report.error = Some(error.to_string());
        report
    }

    /// Whether this report records a failure instead of a result.
    pub fn is_failure(&self) -> bool {
        self.error.is_some()
    }

    /// Appends a one-line note.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Note(line.into()));
        self
    }

    /// Appends an empty line.
    pub fn blank(&mut self) -> &mut Self {
        self.blocks.push(Block::Blank);
        self
    }

    /// Appends a table.
    pub fn table(&mut self, table: TableBlock) -> &mut Self {
        self.blocks.push(Block::Table(table));
        self
    }

    /// Records a headline metric.
    pub fn metric(&mut self, name: impl Into<String>, model: f64, paper: Option<f64>) -> &mut Self {
        self.metrics.push(Metric {
            name: name.into(),
            model,
            paper,
        });
        self
    }

    /// Looks up a metric by name.
    pub fn get_metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Renders the report exactly as the historical binary printed it:
    /// header banner, then every block in order. Failure reports render
    /// the banner followed by a single `FAILED:` line.
    pub fn to_ascii(&self) -> String {
        let mut out = header_string(&self.figure, &self.title);
        if let Some(err) = &self.error {
            out.push_str(&format!("FAILED: {err}\n"));
            return out;
        }
        for block in &self.blocks {
            match block {
                Block::Note(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
                Block::Blank => out.push('\n'),
                Block::Table(t) => {
                    if let Some(title) = &t.title {
                        out.push_str(title);
                        out.push('\n');
                    }
                    out.push_str(&t.to_ascii());
                }
            }
        }
        out
    }

    /// Renders the report as CSV sections (experiment preamble, metrics,
    /// then one section per table), separated by blank lines.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("experiment,{}\n", csv_field(&self.id)));
        out.push_str(&format!("figure,{}\n", csv_field(&self.figure)));
        out.push_str(&format!("title,{}\n", csv_field(&self.title)));
        if let Some(err) = &self.error {
            out.push_str(&format!("status,failed\nerror,{}\n", csv_field(err)));
            return out;
        }
        if !self.metrics.is_empty() {
            out.push_str("\nmetric,model,paper,delta\n");
            for m in &self.metrics {
                out.push_str(&format!(
                    "{},{},{},{}\n",
                    csv_field(&m.name),
                    fmt_f64(m.model),
                    m.paper.map(fmt_f64).unwrap_or_default(),
                    m.delta().map(fmt_f64).unwrap_or_default(),
                ));
            }
        }
        for block in &self.blocks {
            if let Block::Table(t) = block {
                out.push_str(&format!(
                    "\ntable,{}\n",
                    csv_field(t.title.as_deref().unwrap_or("")),
                ));
                let cols: Vec<String> = t.columns.iter().map(|c| csv_field(c)).collect();
                out.push_str(&cols.join(","));
                out.push('\n');
                for row in &t.rows {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|v| match v.num {
                            Some(n) => fmt_f64(n),
                            None => csv_field(&v.text),
                        })
                        .collect();
                    out.push_str(&cells.join(","));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Renders the report as a single JSON object (hand-rolled, no
    /// dependencies; deterministic key order and float formatting).
    /// Failure reports render as
    /// `{"id":...,"figure":...,"title":...,"status":"failed","error":...}`;
    /// success reports keep the historical shape byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"id\":{}", json_string(&self.id)));
        out.push_str(&format!(",\"figure\":{}", json_string(&self.figure)));
        out.push_str(&format!(",\"title\":{}", json_string(&self.title)));
        if let Some(err) = &self.error {
            out.push_str(&format!(
                ",\"status\":\"failed\",\"error\":{}}}",
                json_string(err)
            ));
            return out;
        }
        out.push_str(",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"model\":{},\"paper\":{},\"delta\":{}}}",
                json_string(&m.name),
                json_f64(m.model),
                m.paper.map(json_f64).unwrap_or_else(|| "null".to_string()),
                m.delta()
                    .map(json_f64)
                    .unwrap_or_else(|| "null".to_string()),
            ));
        }
        out.push_str("],\"blocks\":[");
        let mut first = true;
        for block in &self.blocks {
            match block {
                Block::Blank => continue,
                Block::Note(line) => {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!(
                        "{{\"type\":\"note\",\"text\":{}}}",
                        json_string(line)
                    ));
                }
                Block::Table(t) => {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str("{\"type\":\"table\",\"title\":");
                    match &t.title {
                        Some(title) => out.push_str(&json_string(title)),
                        None => out.push_str("null"),
                    }
                    out.push_str(",\"columns\":[");
                    for (i, c) in t.columns.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_string(c));
                    }
                    out.push_str("],\"rows\":[");
                    for (i, row) in t.rows.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('[');
                        for (j, v) in row.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            out.push_str(&format!(
                                "{{\"text\":{},\"value\":{}}}",
                                json_string(&v.text),
                                v.num.map(json_f64).unwrap_or_else(|| "null".to_string()),
                            ));
                        }
                        out.push(']');
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Deterministic float formatting shared by CSV and JSON: Rust's
/// shortest-roundtrip `Display`, so `183.0` prints as `183`.
pub(crate) fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// A JSON number literal; non-finite values render as `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".to_string()
    }
}

/// Escapes a CSV field (quotes fields containing commas, quotes, or
/// newlines).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Escapes a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("fig_x", "Figure X", "sample");
        let mut t = TableBlock::new(&["label", "cores"]);
        t.push_row(vec![Value::text("base"), Value::int(11)]);
        t.push_row(vec![Value::fmt("17.3%", 0.173), Value::empty()]);
        r.table(t);
        r.blank();
        r.note("a closing note");
        r.metric("supportable_cores", 11.0, Some(11.0));
        r.metric("unanchored", 2.5, None);
        r
    }

    #[test]
    fn ascii_matches_legacy_layout() {
        let out = sample().to_ascii();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "================================================================"
        );
        assert_eq!(lines[1], "Figure X — sample");
        assert!(lines[2].starts_with("Reproduction of Rogers"));
        // Header (4) + table (4) + blank + note.
        assert_eq!(lines.len(), 10);
        assert_eq!(lines.last().unwrap(), &"a closing note");
        assert!(out.contains("base"));
    }

    #[test]
    fn table_title_precedes_table() {
        let mut r = Report::new("x", "F", "t");
        let mut t = TableBlock::new(&["col_q"]).with_title("section one:");
        t.push_row(vec![Value::int(1)]);
        r.table(t);
        let out = r.to_ascii();
        let pos_title = out.find("section one:").unwrap();
        let pos_col = out.find("col_q").unwrap();
        assert!(pos_title < pos_col);
    }

    #[test]
    fn csv_prefers_numeric_cells() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("experiment,fig_x\n"));
        assert!(csv.contains("metric,model,paper,delta\nsupportable_cores,11,11,0\n"));
        // "17.3%" cell carries the machine value 0.173.
        assert!(csv.contains("0.173,"));
        // Metric without a paper anchor leaves paper/delta empty.
        assert!(csv.contains("unanchored,2.5,,\n"));
    }

    #[test]
    fn json_is_valid_and_typed() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"id\":\"fig_x\""));
        assert!(json.contains("\"model\":11,\"paper\":11,\"delta\":0"));
        assert!(json.contains("\"paper\":null"));
        assert!(json.contains("\"text\":\"17.3%\",\"value\":0.173"));
        assert!(json.contains("{\"type\":\"note\",\"text\":\"a closing note\"}"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_is_byte_stable() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn failure_report_renders_in_every_format() {
        let r = Report::failure("fig_x", "Figure X", "sample", "model error: infeasible");
        assert!(r.is_failure());
        let ascii = r.to_ascii();
        assert!(ascii.starts_with("====") && ascii.contains("Figure X — sample"));
        assert!(ascii.ends_with("FAILED: model error: infeasible\n"));
        let csv = r.to_csv();
        assert!(csv.contains("status,failed\nerror,model error: infeasible\n"));
        assert_eq!(
            r.to_json(),
            "{\"id\":\"fig_x\",\"figure\":\"Figure X\",\"title\":\"sample\",\
             \"status\":\"failed\",\"error\":\"model error: infeasible\"}"
        );
    }

    #[test]
    fn success_report_has_no_status_key() {
        let r = sample();
        assert!(!r.is_failure());
        assert!(!r.to_json().contains("\"status\""));
        assert!(!r.to_csv().contains("status,"));
        assert!(!r.to_ascii().contains("FAILED"));
    }

    #[test]
    fn metric_delta() {
        let m = Metric {
            name: "x".into(),
            model: 24.0,
            paper: Some(22.0),
        };
        assert_eq!(m.delta(), Some(2.0));
        let r = sample();
        assert_eq!(r.get_metric("supportable_cores").unwrap().model, 11.0);
        assert!(r.get_metric("missing").is_none());
    }
}
