//! The docs name only what exists. Every backticked Rust name or repo
//! path in DESIGN.md and README.md resolves to something under
//! `crates/`, `src/`, `tests/`, `examples/` or `ci/` (a path may also be
//! a file at the root), and every comment in a `.rs` file that cites a
//! section as DESIGN.md followed by its quoted title names a heading or
//! a bold item of DESIGN.md.
//!
//! A span is a *path* when it has a `/` or ends in a source or doc
//! extension; `path::item` also needs `item` in that file's code. A span
//! is a *name* when it is identifiers joined by `::` or `.` (with `()`
//! and a macro's `!` allowed); each identifier must occur in the code —
//! comments do not count, so a deleted function that a comment still
//! mentions is gone. Anything else (`u64 run`, `OK(epoch)`, `O(n)`) is
//! prose, not checked; so are paper terms, which the docs write without
//! backticks.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Where the names the docs cite live.
const ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "ci"];

/// What a path span ends in.
const EXTENSIONS: [&str; 6] = [".rs", ".md", ".toml", ".sh", ".txt", ".yml"];

/// The files and directories under [`ROOTS`], and the identifiers of
/// each `.rs` file's code, its comments cut off, and of each `ci/` file.
struct Tree {
    root: PathBuf,
    files: Vec<String>,
    dirs: Vec<String>,
    words: HashMap<String, HashSet<String>>,
}

impl Tree {
    fn load() -> Tree {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut tree = Tree {
            root: root.clone(),
            files: Vec::new(),
            dirs: Vec::new(),
            words: HashMap::new(),
        };
        for dir in ROOTS {
            tree.walk(&root.join(dir));
        }
        tree
    }

    fn walk(&mut self, dir: &Path) {
        let root = self.root.clone();
        let rel = |p: &Path| {
            let rel = p.strip_prefix(&root).unwrap().to_string_lossy();
            rel.replace('\\', "/")
        };
        self.dirs.push(rel(dir));
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy();
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if path.is_dir() {
                self.walk(&path);
                continue;
            }
            let file = rel(&path);
            // The ratchet's names in ci/ count as code too.
            let rust = file.ends_with(".rs");
            if rust || file.starts_with("ci/") {
                let text = fs::read_to_string(&path).unwrap();
                let code: Vec<&str> = if rust {
                    let uncommented = text.lines().map(|l| l.split_once("//").map_or(l, |c| c.0));
                    uncommented.collect()
                } else {
                    vec![&text]
                };
                let words = code
                    .iter()
                    .flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
                self.words.insert(file.clone(), words);
            }
            self.files.push(file);
        }
    }

    /// The file or directory `path` names: from the root, or as the
    /// tail of a path under [`ROOTS`], `.rs` implied for an example.
    fn resolve(&self, path: &str) -> Option<String> {
        let path = path.trim_end_matches('/');
        if self.root.join(path).exists() {
            return Some(path.to_string());
        }
        let tail = |p: &&String| {
            [path.to_string(), format!("{path}.rs")]
                .iter()
                .any(|want| *p == want || p.ends_with(&format!("/{want}")))
        };
        self.files.iter().chain(&self.dirs).find(tail).cloned()
    }

    fn in_code(&self, word: &str) -> bool {
        self.words.values().any(|w| w.contains(word))
    }
}

fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The inline code spans of markdown `text` outside fenced blocks, a
/// span broken over lines joined up again.
fn spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose += line;
            prose += "\n";
        }
    }
    let mut out = Vec::new();
    let mut rest = prose.as_str();
    while let Some(at) = rest.find('`') {
        let ticks = rest[at..].len() - rest[at..].trim_start_matches('`').len();
        let body = &rest[at + ticks..];
        let Some(end) = body.find(&"`".repeat(ticks)) else {
            break;
        };
        out.push(body[..end].lines().map(str::trim).collect());
        rest = &body[end + ticks..];
    }
    out
}

/// Why `span` names nothing, if it is a path or a name that does not
/// resolve.
fn unresolved(tree: &Tree, span: &str) -> Option<String> {
    if span.contains("://") || tree.root.join(span).exists() {
        return None;
    }
    let (path, items) = span.split_once("::").unwrap_or((span, ""));
    // A line number after a file is not part of its name.
    let path = path.split_once(':').map_or(path, |(p, _)| p);
    let is_path = path.contains('/') || EXTENSIONS.iter().any(|e| path.ends_with(e));
    if is_path {
        let path_chars = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
        if !path.chars().all(path_chars) {
            return None;
        }
        let Some(file) = tree.resolve(path) else {
            return Some(format!("`{span}`: no such file"));
        };
        let words = tree.words.get(&file);
        let missing = items
            .split("::")
            .map(|i| i.trim_end_matches("()"))
            .filter(|i| !i.is_empty())
            .find(|i| !words.is_some_and(|w| w.contains(*i)));
        return missing.map(|i| format!("`{span}`: no `{i}` in {file}"));
    }
    let name = span.trim_end_matches('!').replace("()", "");
    let segments: Vec<&str> = name.split("::").flat_map(|s| s.split('.')).collect();
    if !segments.iter().all(|s| is_ident(s)) {
        return None;
    }
    let missing = segments.iter().find(|s| !tree.in_code(s));
    missing.map(|s| format!("`{span}`: no `{s}` in the code"))
}

#[test]
fn every_backticked_name_and_path_in_the_docs_exists() {
    let tree = Tree::load();
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = fs::read_to_string(tree.root.join(doc)).unwrap();
        let mut seen = HashSet::new();
        for span in spans(&text) {
            if seen.insert(span.clone()) {
                stale.extend(unresolved(&tree, &span).map(|why| format!("{doc}: {why}")));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "the docs name what is not there:\n{}",
        stale.join("\n")
    );
}

/// The headings and bold items of DESIGN.md, each without a closing
/// period.
fn anchors(design: &str) -> HashSet<String> {
    let mut out: HashSet<String> = design
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim().to_string())
        .collect();
    out.extend(
        design
            .split("**")
            .skip(1)
            .step_by(2)
            .map(|b| b.trim_end_matches('.').to_string()),
    );
    out
}

#[test]
fn every_design_md_citation_in_the_code_names_a_section() {
    let tree = Tree::load();
    let anchors = anchors(&fs::read_to_string(tree.root.join("DESIGN.md")).unwrap());
    let mut stale = Vec::new();
    for file in tree.words.keys() {
        // A comment that runs over several lines reads as one line.
        let text = fs::read_to_string(tree.root.join(file)).unwrap();
        let comments = text
            .lines()
            .map(|l| {
                l.trim_start()
                    .strip_prefix("//")
                    .map(|c| c.trim_start_matches(['/', '!']).trim())
            })
            .fold(String::new(), |acc, c| match c {
                Some(c) => acc + " " + c,
                None => acc + "\n",
            });
        for cited in comments.split("DESIGN.md").skip(1) {
            let cited = cited.trim_start_matches([',', ' ']);
            let Some(title) = cited.strip_prefix('"').and_then(|c| c.split_once('"')) else {
                continue;
            };
            let title = title.0.trim_end_matches('.');
            if !anchors.contains(title) {
                stale.push(format!("{file}: DESIGN.md \"{title}\""));
            }
        }
    }
    stale.sort();
    assert!(
        stale.is_empty(),
        "citations of DESIGN.md sections it does not have:\n{}",
        stale.join("\n")
    );
}
