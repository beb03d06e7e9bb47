//! The paper-reproduction driver: one command regenerates every table
//! and figure of the paper's §4.
//!
//! ```sh
//! cargo run -p elga-bench --release -- <name>... | all [--out FILE]
//! ```
//!
//! Each figure prints its tables as it measures them; `--out FILE`
//! also writes every selected figure's rows as one JSON document.
//! `ELGA_SCALE` and `ELGA_TRIALS` size the experiments ([`setup`]).

#![warn(missing_docs)]

pub mod setup;
pub mod table;

mod dynamic;
mod elastic;
mod placement;
mod scaling;

use std::path::PathBuf;
use table::Figure;

/// A figure's body: it measures and reports into the [`Figure`].
pub type Run = fn(&mut Figure);

/// A figure as the driver knows it: name on the command line, caption,
/// body.
pub type Entry = (&'static str, &'static str, Run);

/// Every figure the driver knows, in the order `all` runs them.
pub const FIGURES: &[Entry] = &[
    ("table2", "datasets (published vs regenerated)", scaling::table2),
    ("fig04", "PageRank per-iteration: LiveJournal seed vs A-BTER-style replicas (x1, x10)", scaling::fig04),
    ("fig05", "hash function impact: PR iteration runtime + edge distribution over 2048 agents", placement::fig05),
    ("fig06", "load balance over 2048 agents vs virtual agents per agent (Twitter-2010-like)", placement::fig06),
    ("fig07", "count-min width sweep: per-edge resolve cost + degree estimation error", placement::fig07),
    ("fig08", "strong scaling over nodes (2 agents per node), PageRank per-iteration", scaling::fig08),
    ("fig09", "scaling over agents per node at fixed node count, PageRank per-iteration", scaling::fig09),
    ("fig10", "weak scaling on Pokec-like replicas (edges grow with agents; flat is ideal)", scaling::fig10),
    ("fig11", "per-iteration PageRank: ElGA vs Blogel-like vs GraphX-like", scaling::fig11),
    ("fig12", "WCC total runtime: ElGA vs Blogel-like vs GraphX-like (symmetrized inputs)", scaling::fig12),
    ("fig13", "single-node dynamic WCC: per-insertion times, ElGA vs STINGER-like (+ GAPbs static)", dynamic::fig13),
    ("fig14", "edge insertion rate vs agent count (streamers = agents/2)", dynamic::fig14),
    ("fig15", "per-batch incremental WCC on Twitter-like vs GraphX-like rebuild baseline", dynamic::fig15),
    ("fig16", "elasticity cost: % edges moved (at 2048 agents) and add+remove wall time (live, 8 agents)", elastic::fig16),
    ("fig17", "manual elastic scaling mid-PageRank (4 -> 16 agents after iteration 1, then back)", elastic::fig17),
    ("fig18", "reactive autoscaling under a step-function client query load (Skitter-like)", elastic::fig18),
    ("sec35", "messaging overhead: in-process channels vs TCP sockets (paper: MPI 1µs / TCP 4µs / ZMQ 20µs)", scaling::sec35),
    ("ablation_sync_async", "synchronous vs asynchronous WCC (barriered supersteps vs event-driven)", dynamic::ablation_sync_async),
    ("ablation_replication", "vertex replication (high-degree splitting) on vs off, hub-heavy graph", placement::ablation_replication),
    ("recovery", "crash recovery duration: checkpoint + log replay vs replay from the empty graph", elastic::recovery),
];

/// The command line's grammar and the names it accepts.
pub fn usage(figures: &[Entry]) -> String {
    let mut s = String::from("usage: elga-bench <name>... | all [--out FILE]\nnames:");
    for (name, caption, _) in figures {
        s.push_str(&format!("\n  {name:<22} {caption}"));
    }
    s
}

/// Run the figures `args` name (`all` is every one, in table order),
/// print them, and write them to the `--out` file if one is given.
/// A malformed command line or an unwritable `--out` is an error
/// carrying the message to print.
pub fn run(args: &[String], figures: &[Entry]) -> Result<Vec<Figure>, String> {
    let mut picked = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => return Err(format!("--out needs a file\n{}", usage(figures))),
            },
            "all" => picked.extend(0..figures.len()),
            name => match figures.iter().position(|f| f.0 == name) {
                Some(i) => picked.push(i),
                None => return Err(format!("unknown figure `{name}`\n{}", usage(figures))),
            },
        }
    }
    if picked.is_empty() {
        return Err(usage(figures));
    }
    let out_dir = out
        .as_ref()
        .map_or_else(std::env::temp_dir, |p| p.with_file_name(""));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut done = Vec::new();
    for i in picked {
        let (name, caption, body) = figures[i];
        println!("\n=== {name} — {caption} ===");
        println!(
            "    (frac {:.1e} of published sizes, {} trials, {cores} core(s); ELGA_SCALE/ELGA_TRIALS to adjust)",
            setup::frac(),
            setup::trials(),
        );
        if cores == 1 {
            println!("    NOTE: single-core host — scaling curves time-share one CPU; expect flat, not decreasing.");
        }
        let mut fig = Figure::new(name, caption, out_dir.clone());
        body(&mut fig);
        done.push(fig);
    }
    if let Some(path) = out {
        let mut json = format!(
            "{{\"frac\": {}, \"scale\": {}, \"trials\": {}, \"cores\": {cores},\n  \"figures\": [\n  ",
            setup::frac(),
            setup::scale(),
            setup::trials()
        );
        let figs: Vec<String> = done.iter().map(Figure::json).collect();
        json.push_str(&figs.join(",\n  "));
        json.push_str("]}\n");
        std::fs::write(&path, json)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    Ok(done)
}

/// [`run`] as a process: its exit code (0, or 2 after printing the
/// error to stderr).
pub fn main_with(args: &[String], figures: &[Entry]) -> i32 {
    match run(args, figures) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use table::Col;

    fn note_name(fig: &mut Figure) {
        let name = fig.name();
        fig.table("", vec![Col::new("name", 8)]);
        row!(fig; name);
    }

    const FAKE: &[Entry] = &[
        ("b", "second letter", note_name),
        ("a", "first letter", note_name),
        ("c", "third letter", note_name),
    ];

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// The names of the figures `a` ran, in the order they ran.
    fn ran(a: &[&str]) -> Result<Vec<&'static str>, String> {
        run(&args(a), FAKE).map(|figs| figs.iter().map(Figure::name).collect())
    }

    #[test]
    fn figure_names_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        assert_eq!(names.len(), 20);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn all_runs_the_table_in_order() {
        assert_eq!(ran(&["all"]).expect("all"), ["b", "a", "c"]);
        assert_eq!(ran(&["c", "b"]).expect("two"), ["c", "b"]);
    }

    #[test]
    fn an_unknown_name_fails_and_lists_the_names() {
        let err = ran(&["a", "zz"]).expect_err("unknown name");
        assert!(err.contains("unknown figure `zz`"), "{err}");
        for (name, caption, _) in FAKE {
            assert!(err.contains(&format!("  {name:<22} {caption}")), "{err}");
        }
        for bad in [&["zz"][..], &[], &["a", "--out"]] {
            assert_eq!(main_with(&args(bad), FAKE), 2, "{bad:?}");
        }
        assert_eq!(main_with(&args(&["a"]), FAKE), 0);
    }

    #[test]
    fn out_writes_the_rows_it_printed() {
        let path = std::env::temp_dir().join(format!("elga-bench-{}.json", std::process::id()));
        let out = path.to_str().expect("utf-8 path");
        let figs = run(&args(&["all", "--out", out]), FAKE).expect("run");
        assert_eq!(figs[0].out_dir(), path.parent().expect("dir"));
        let json = std::fs::read_to_string(&path).expect("written");
        let _ = std::fs::remove_file(&path);
        let at = |s: &str| {
            json.find(s)
                .unwrap_or_else(|| panic!("{s} missing: {json}"))
        };
        assert!(at("[\"b\"]") < at("[\"a\"]") && at("[\"a\"]") < at("[\"c\"]"));
    }
}
