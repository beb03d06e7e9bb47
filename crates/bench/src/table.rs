//! The one output format of every figure: a [`Figure`] holds titled
//! [`Table`]s and free-text notes. Each row is printed to the console
//! as it is added, and the same rows serialize into the driver's
//! `--out` JSON, so the two never disagree.

use std::path::{Path, PathBuf};

/// One column: header, console width and alignment, and how numbers
/// in it print (decimal places, then a unit suffix such as `%`, `x` or
/// ` ms`). The suffix is the column's unit in the JSON.
#[derive(Debug, Clone)]
pub struct Col {
    name: String,
    width: usize,
    left: bool,
    prec: usize,
    suffix: &'static str,
}

impl Col {
    /// A right-aligned column `width` characters wide.
    pub fn new(name: impl Into<String>, width: usize) -> Col {
        Col {
            name: name.into(),
            width,
            left: false,
            prec: 0,
            suffix: "",
        }
    }

    /// A column of mean ± 95% CI milliseconds ([`Cell::ms`]).
    pub fn ms(name: impl Into<String>) -> Col {
        Col::new(name, 22).prec(3).suffix(" ms")
    }

    /// Pad cells on the right.
    pub fn left(mut self) -> Col {
        self.left = true;
        self
    }

    /// Print numbers with `prec` decimal places.
    pub fn prec(mut self, prec: usize) -> Col {
        self.prec = prec;
        self
    }

    /// Print `suffix` after every number.
    pub fn suffix(mut self, suffix: &'static str) -> Col {
        self.suffix = suffix;
        self
    }

    fn pad(&self, s: &str) -> String {
        let w = self.width;
        if self.left {
            format!("{s:<w$}")
        } else {
            format!("{s:>w$}")
        }
    }

    fn render(&self, cell: &Cell) -> String {
        let (p, unit) = (self.prec, self.suffix);
        self.pad(&match cell {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => format!("{v}{unit}"),
            Cell::Num(v) => format!("{v:.p$}{unit}"),
            Cell::Ci(m, ci) => format!("{m:9.p$} ± {ci:6.p$}{unit}"),
            Cell::Count(v) => human(*v as f64, 1000.0, &["", "K", "M", "B"], ""),
            Cell::Bytes(v) => human(*v as f64, 1024.0, &["B", "KB", "MB", "GB", "TB"], " "),
        })
    }
}

/// `v` in the largest unit of `units` (each `step` times the last) it
/// reaches: `1.5B`, `22.4 GB`.
fn human(v: f64, step: f64, units: &[&str], sep: &str) -> String {
    let mut u = 0;
    let mut v = v;
    while v >= step && u + 1 < units.len() {
        v /= step;
        u += 1;
    }
    if u == 0 && sep.is_empty() {
        format!("{v:.0}")
    } else {
        format!("{v:.1}{sep}{}", units[u])
    }
}

/// One value of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text, printed as is.
    Text(String),
    /// An exact count.
    Int(u64),
    /// A measurement, printed at the column's precision.
    Num(f64),
    /// A mean and its 95% confidence half-interval, in the column's
    /// unit.
    Ci(f64, f64),
    /// A count printed in K/M/B (`42.0M`); the JSON keeps it exact.
    Count(u64),
    /// A byte size printed in KB/MB/… (`22.4 GB`); the JSON keeps it
    /// exact.
    Bytes(u64),
}

impl Cell {
    /// A `(mean, ci)` pair of seconds, as milliseconds.
    pub fn ms((mean, ci): (f64, f64)) -> Cell {
        Cell::Ci(mean * 1e3, ci * 1e3)
    }

    fn json(&self) -> String {
        match self {
            Cell::Text(s) => json_str(s),
            Cell::Int(v) | Cell::Count(v) | Cell::Bytes(v) => v.to_string(),
            Cell::Num(v) => json_num(*v),
            Cell::Ci(m, ci) => format!(
                "{{\"mean\": {}, \"ci95\": {}}}",
                json_num(*m),
                json_num(*ci)
            ),
        }
    }
}

macro_rules! cell_from {
    ($($t:ty => |$v:ident| $e:expr),*) => {
        $(impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                $e
            }
        })*
    };
}

cell_from!(&str => |s| Cell::Text(s.into()), String => |s| Cell::Text(s), u64 => |v| Cell::Int(v),
    usize => |v| Cell::Int(v as u64), f64 => |v| Cell::Num(v));

/// Add a row to the figure's last table, converting each value with
/// `Cell::from`: `row!(fig; name, edges.len(), Cell::ms(time))`.
#[macro_export]
macro_rules! row {
    ($t:expr; $($cell:expr),* $(,)?) => {
        $t.row(vec![$($crate::table::Cell::from($cell)),*])
    };
}

/// Titled columns and their rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    cols: Vec<Col>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    fn json(&self) -> String {
        let cols = self.cols.iter().map(|c| {
            let (name, unit) = (json_str(&c.name), json_str(c.suffix.trim()));
            format!("{{\"name\": {name}, \"unit\": {unit}}}")
        });
        let rows = self
            .rows
            .iter()
            .map(|r| format!("[{}]", join(r.iter().map(Cell::json), ", ")));
        format!(
            "{{\"title\": {}, \"columns\": [{}],\n      \"rows\": [{}]}}",
            json_str(&self.title),
            join(cols, ", "),
            join(rows, ",\n        ")
        )
    }
}

/// What one figure reported: its tables and notes, printed as they are
/// added.
#[derive(Debug)]
pub struct Figure {
    name: &'static str,
    caption: &'static str,
    tables: Vec<Table>,
    notes: Vec<String>,
    out_dir: PathBuf,
}

impl Figure {
    /// An empty report for figure `name`; `out_dir` is where it may
    /// leave files ([`Figure::out_dir`]).
    pub fn new(name: &'static str, caption: &'static str, out_dir: PathBuf) -> Figure {
        Figure {
            name,
            caption,
            tables: Vec::new(),
            notes: Vec::new(),
            out_dir,
        }
    }

    /// The figure's name on the driver's command line.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Start a table: print its title (when not empty) and header.
    /// [`Figure::row`] adds to the table started last.
    pub fn table(&mut self, title: impl Into<String>, cols: Vec<Col>) {
        let title = title.into();
        if !title.is_empty() {
            let gap = if self.tables.is_empty() { "" } else { "\n" };
            println!("{gap}{title}");
        }
        let header: Vec<String> = cols.iter().map(|c| c.pad(&c.name)).collect();
        println!("{}", header.join("  ").trim_end());
        let rows = Vec::new();
        self.tables.push(Table { title, cols, rows });
    }

    /// Print a row of the last table and keep it for the JSON. Panics
    /// before any table, or on a row of the wrong length.
    pub fn row(&mut self, cells: Vec<Cell>) {
        let t = self.tables.last_mut().expect("a row before any table");
        assert_eq!(cells.len(), t.cols.len(), "{}: row width", t.title);
        let printed: Vec<String> = t
            .cols
            .iter()
            .zip(&cells)
            .map(|(c, v)| c.render(v))
            .collect();
        println!("{}", printed.join("  ").trim_end());
        t.rows.push(cells);
    }

    /// Print a line of commentary and keep it for the JSON.
    pub fn note(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.notes.push(text);
    }

    /// A directory for files the figure leaves behind (the recovery
    /// figure's sample checkpoint store): beside the `--out` file, or
    /// in the system temp dir.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// This figure as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"name\": {}, \"caption\": {},\n    \"tables\": [{}],\n    \"notes\": [{}]}}",
            json_str(self.name),
            json_str(self.caption),
            join(self.tables.iter().map(Table::json), ",\n    "),
            join(self.notes.iter().map(|n| json_str(n)), ", ")
        )
    }
}

fn join(items: impl Iterator<Item = String>, sep: &str) -> String {
    items.collect::<Vec<_>>().join(sep)
}

/// `s` as a JSON string (the driver's own text: no control characters).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `v` as a JSON number (`null` when not finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_print_in_their_column() {
        let pct = Col::new("moved", 10).prec(4).suffix("%");
        assert_eq!(pct.render(&Cell::Num(0.0595)), "   0.0595%");
        assert_eq!(
            Col::ms("t").render(&Cell::ms((0.002078, 0.0))),
            "     2.078 ±  0.000 ms"
        );
        assert_eq!(Col::new("g", 6).left().render(&"ab".into()), "ab    ");
        let count = Col::new("n", 6);
        assert_eq!(count.render(&Cell::Count(42_000_000)), " 42.0M");
        assert_eq!(count.render(&Cell::Count(84)), "    84");
        assert_eq!(count.render(&Cell::Bytes(1_500_000_000_000)), "1.4 TB");
        assert_eq!(Col::new("b", 8).render(&Cell::Bytes(47_408)), " 46.3 KB");
    }

    #[test]
    fn a_figure_serializes_what_it_printed() {
        let mut fig = Figure::new("figX", "a \"quoted\" caption", PathBuf::new());
        fig.table(
            "",
            vec![Col::new("k", 3), Col::ms("t"), Col::new("r", 4).prec(1)],
        );
        row!(fig; 7u64, Cell::ms((0.5, 0.25)), f64::NAN);
        fig.note("done");
        let out = fig.json();
        assert!(
            out.contains("\"caption\": \"a \\\"quoted\\\" caption\""),
            "{out}"
        );
        assert!(
            out.contains("[7, {\"mean\": 500, \"ci95\": 250}, null]"),
            "{out}"
        );
        assert!(out.contains("{\"name\": \"t\", \"unit\": \"ms\"}"), "{out}");
        assert!(out.contains("\"notes\": [\"done\"]"), "{out}");
    }
}
