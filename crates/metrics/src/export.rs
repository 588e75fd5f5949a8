//! One structured tabular export pipeline (DESIGN §11).
//!
//! Every tabular artifact the harness writes — the fig4_2x per-router
//! contention CSVs (via [`crate::series_csv`], rebuilt on this module)
//! and the workload tables — renders through one [`Table`] type with one
//! CSV writer, instead of each call site hand-formatting its own rows.

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free-form text (written raw).
    Text(String),
    /// An exact integer.
    Int(u64),
    /// A float rendered at a fixed decimal precision.
    Num(f64, usize),
    /// No value (an empty CSV field).
    Missing,
}

impl Cell {
    fn csv(&self, out: &mut String) {
        match self {
            Cell::Text(s) => out.push_str(s),
            Cell::Int(v) => out.push_str(&v.to_string()),
            Cell::Num(v, prec) => out.push_str(&format!("{v:.prec$}")),
            Cell::Missing => {}
        }
    }
}

/// A table of typed cells with a CSV rendering.
#[derive(Debug, Clone)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given header columns.
    pub fn new(columns: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; its arity must match the header.
    pub fn push_row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity must match the {} header columns",
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// CSV rendering: header line, then one line per row, `,`-joined.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                cell.csv(&mut out);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["name", "n", "v", "opt"]);
        t.push_row(vec![
            Cell::Text("a".into()),
            Cell::Int(3),
            Cell::Num(1.5, 4),
            Cell::Missing,
        ]);
        t.push_row(vec![
            Cell::Text("b\"x\\".into()),
            Cell::Int(u64::MAX),
            Cell::Num(-0.25, 2),
            Cell::Int(7),
        ]);
        t
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,n,v,opt");
        assert_eq!(lines[1], "a,3,1.5000,");
        assert_eq!(lines[2], "b\"x\\,18446744073709551615,-0.25,7");
        assert!(csv.ends_with('\n'));
    }

    #[test]
    fn empty_table_renders() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.to_csv(), "x\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(vec![Cell::Int(1)]);
    }
}
