//! Plain-text table rendering for the experiment harnesses.

use std::fmt::Write as _;

/// A simple left-aligned text table with a title, printed in the style the
/// paper's tables/figure captions use.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let pad = width[i] - c.chars().count();
                s.push_str(c);
                s.extend(std::iter::repeat_n(' ', pad));
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as a JSON document (`{"title", "rows": [{...}]}`)
    /// with header cells as keys — hand-rolled to keep the dependency set
    /// minimal.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::new();
        let _ = write!(out, "{{\"title\":\"{}\",\"rows\":[", esc(&self.title));
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (h, c)) in self.header.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", esc(h), esc(c));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The table as a harness writes it — one line of JSON when the
    /// `SIMD2_JSON` environment variable is set (machine-readable
    /// output), an aligned text table otherwise.
    pub fn emit(&self) -> String {
        if std::env::var_os("SIMD2_JSON").is_some() {
            self.render_json() + "\n"
        } else {
            self.render()
        }
    }
}

/// Formats a speedup factor the way the paper quotes them (`12.34x`).
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats seconds with an auto-scaled unit.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1.0e-3 {
        format!("{:.3} ms", s * 1.0e3)
    } else {
        format!("{:.1} us", s * 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("name    value"));
        assert!(s.contains("longer  2.5"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut t = Table::new("J \"quoted\"", &["app", "speedup"]);
        t.row(&["APSP".into(), "12.3x".into()]);
        t.row(&["line\nbreak".into(), "1x".into()]);
        let j = t.render_json();
        assert!(j.starts_with("{\"title\":\"J \\\"quoted\\\"\""), "{j}");
        assert!(
            j.contains("{\"app\":\"APSP\",\"speedup\":\"12.3x\"}"),
            "{j}"
        );
        assert!(j.contains("line\\nbreak"), "{j}");
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_speedup(12.345), "12.35x");
        assert_eq!(fmt_seconds(2.5), "2.500 s");
        assert_eq!(fmt_seconds(0.0025), "2.500 ms");
        assert_eq!(fmt_seconds(2.5e-6), "2.5 us");
    }
}
