//! Result tables for the benchmark harness.
//!
//! Every figure-reproducing bench prints one [`Table`] whose rows mirror
//! the series of the corresponding paper figure, and appends the same
//! table as one JSON line to a report file (`sharon-bench`'s `emit`).

use std::fmt;
use std::path::Path;

/// A measurement table, printed with `Display` or written as JSON.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. `"figure13a"`).
    pub id: String,
    /// Human title (e.g. `"Latency vs events per window (LR)"`).
    pub title: String,
    /// Column headers; column 0 is the x-axis.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (scaling factors, skipped series, ...).
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Set the headers.
    pub fn headers<S: Into<String>>(mut self, headers: impl IntoIterator<Item = S>) -> Self {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Append a row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Append the table as a JSON line to `path` (creating it if needed).
    pub fn append_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json())
    }

    /// The table as one JSON object of string fields and string arrays
    /// (written by hand: the workspace has no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"id\":");
        json::write_str(&mut out, &self.id);
        out.push_str(",\"title\":");
        json::write_str(&mut out, &self.title);
        out.push_str(",\"headers\":");
        json::write_str_array(&mut out, &self.headers);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str_array(&mut out, row);
        }
        out.push_str("],\"notes\":");
        json::write_str_array(&mut out, &self.notes);
        out.push('}');
        out
    }
}

/// Minimal JSON writer for the flat string shapes [`Table`] uses.
mod json {
    pub(super) fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    pub(super) fn write_str_array(out: &mut String, items: &[String]) {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, item);
        }
        out.push(']');
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        // column widths
        let ncols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:>width$}  ", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        if !self.headers.is_empty() {
            write_row(f, &self.headers)?;
            writeln!(
                f,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * ncols)
            )?;
        }
        for row in &self.rows {
            write_row(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Format a byte count in adaptive units.
pub fn fmt_bytes(b: usize) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1}MB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Format an events/second throughput.
pub fn fmt_throughput(events: u64, elapsed: std::time::Duration) -> String {
    let s = elapsed.as_secs_f64().max(1e-12);
    let r = events as f64 / s;
    if r >= 1_000_000.0 {
        format!("{:.2}M ev/s", r / 1_000_000.0)
    } else if r >= 1_000.0 {
        format!("{:.1}k ev/s", r / 1_000.0)
    } else {
        format!("{r:.0} ev/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table_renders() {
        let mut t = Table::new("figX", "demo").headers(["x", "a", "b"]);
        t.row(["1", "10", "100"]);
        t.row(["2", "20", "200"]);
        t.note("scaled down 10x");
        let s = t.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("100"));
        assert!(s.contains("note: scaled"));
    }

    #[test]
    fn json_append_writes_one_to_json_line_per_call() {
        let mut t = Table::new("figY", "demo");
        t.row(["1"]);
        let dir = std::env::temp_dir().join("sharon-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.jsonl");
        let _ = std::fs::remove_file(&path);
        t.append_json(&path).unwrap();
        t.append_json(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = content.lines().collect();
        assert_eq!(lines, vec![t.to_json(), t.to_json()]);
    }

    #[test]
    fn to_json_escapes_every_special_character() {
        let mut t = Table::new("fig\"Z\"", "back \\ slash\nnew\rline").headers(["x", "y"]);
        t.row(["1", "a\tb"]);
        t.row(["2", ""]);
        t.note("bell \u{7} — 10×");
        assert_eq!(
            t.to_json(),
            r#"{"id":"fig\"Z\"","title":"back \\ slash\nnew\rline","headers":["x","y"],"rows":[["1","a\tb"],["2",""]],"notes":["bell \u0007 — 10×"]}"#
        );
        assert_eq!(
            Table::new("", "").to_json(),
            r#"{"id":"","title":"","headers":[],"rows":[],"notes":[]}"#
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
        assert!(fmt_bytes(2 * 1024 * 1024 * 1024).ends_with("GB"));
        assert_eq!(fmt_throughput(3000, Duration::from_secs(1)), "3.0k ev/s");
        assert_eq!(
            fmt_throughput(2_000_000, Duration::from_secs(1)),
            "2.00M ev/s"
        );
        assert_eq!(fmt_throughput(5, Duration::from_secs(1)), "5 ev/s");
    }
}
