//! Multi-run modes. Each workload runs in a process of its own (this
//! executable, re-executed), so `peak_rss_mb` is per workload.
//!
//! * `--workload all`: every workload once.
//! * `--aa N`: the A/A self-check. `N` interleaved pairs of full runs
//!   of the same code (A B A B …, never A A B B: host load drifts over
//!   minutes), compared with the benchmark's own bounds. A pair of
//!   medians further apart than the bound fails the check; it is
//!   reported as unresolved rather than as a disagreement when a run's
//!   host sentinels fired.

use crate::host::median;
use crate::schema::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;
use std::process::Command;

/// One child's two output lines.
struct ChildRun {
    info: String,
    result: String,
}

fn run_child(args: &Args, workload: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    match (lines.next(), lines.next()) {
        (Some(result), Some(info)) if result.starts_with("{\"correct\"") => Ok(ChildRun {
            info: info.to_string(),
            result: result.to_string(),
        }),
        _ => Err(format!("{workload}: no result ({})", out.status)),
    }
}

/// The number following `"key": ` (or `"key": {"value": `) in a line
/// this program printed.
fn number(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = line[at..]
        .strip_prefix("{\"value\": ")
        .unwrap_or(&line[at..]);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    line[at..].split('"').next()
}

/// Every workload once; the last line sums the children's results.
pub fn all(args: &Args) -> Result<bool, String> {
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for w in &WORKLOADS {
        let run = run_child(args, w)?;
        println!("{}", run.info);
        println!("{}", run.result);
        attempted += number(&run.result, "attempted").unwrap_or(0.0);
        failed += number(&run.result, "failed").unwrap_or(1.0);
        // Re-key the child's metrics as `<workload>.<metric>`.
        let names: Vec<(&str, &str)> = if args.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, unit) in names {
            if let Some(v) = number(&run.result, name) {
                metrics.push(format!(
                    "\"{}.{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                    w
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0.0,
        metrics.join(", ")
    );
    Ok(failed == 0.0)
}

/// The A/A self-check; `Ok(false)` when a pair of medians disagrees by
/// more than the metric's bound or an operation failed.
pub fn aa(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    // runs[workload][side] = that side's children, in run order.
    let mut runs: Vec<[Vec<ChildRun>; 2]> = WORKLOADS.iter().map(|_| [vec![], vec![]]).collect();
    for pair in 0..args.aa {
        for side in 0..2 {
            for (wi, w) in WORKLOADS.iter().enumerate() {
                let run = run_child(args, w)?;
                eprintln!(
                    "aa: pair {pair} side {} {}: {}",
                    ["A", "B"][side],
                    w,
                    run.result
                );
                ok &= number(&run.result, "failed") == Some(0.0);
                runs[wi][side].push(run);
            }
        }
    }

    println!("| workload | metric | median A | median B | diff | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    for (w, sides) in WORKLOADS.iter().zip(&runs) {
        for m in &END_TO_END {
            let side_median = |side: &Vec<ChildRun>| {
                let v: Vec<f64> = side
                    .iter()
                    .filter_map(|r| number(&r.result, m.name))
                    .collect();
                median(&v)
            };
            let (a, b) = (side_median(&sides[0]), side_median(&sides[1]));
            let diff = (a - b).abs() / a.min(b);
            let within = diff <= m.bound;
            ok &= within;
            // A disagreement while the sentinels fired is the host's.
            let noisy = sides
                .iter()
                .flatten()
                .any(|r| r.info.contains("\"noisy_host\": true"));
            let verdict = match (within, noisy) {
                (true, _) => "ok",
                (false, true) => "unresolved (noisy_host)",
                (false, false) => "EXCEEDS",
            };
            println!(
                "| {} | {} | {a:.4} | {b:.4} | {:.2} % | {:.0} % | {verdict} |",
                w,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
            );
            rows.push(format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"a\": {a}, \"b\": {b}, \"diff\": {diff}, \"bound\": {}, \"within\": {within}}}",
                w, m.name, m.bound
            ));
        }
    }

    // Determinism: which values repeated exactly across all 2N runs.
    let mut det = Vec::new();
    for (w, sides) in WORKLOADS.iter().zip(&runs) {
        let infos: Vec<&str> = sides.iter().flatten().map(|r| r.info.as_str()).collect();
        let digests: Vec<_> = infos.iter().map(|i| text(i, "input_digest")).collect();
        let mut fields = vec![format!(
            "\"input_digest\": {{\"exact\": {}}}",
            digests.windows(2).all(|p| p[0] == p[1])
        )];
        let Some(body) = infos[0].split_once("\"determinism\": {").map(|(_, b)| b) else {
            continue;
        };
        let body = body.split('}').next().unwrap_or("");
        for key in body.split(", ").filter_map(|kv| kv.split('"').nth(1)) {
            let values: Vec<f64> = infos
                .iter()
                .filter_map(|i| i.split_once("\"determinism\": {"))
                .filter_map(|(_, d)| number(d, key))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            fields.push(format!(
                "\"{key}\": {{\"exact\": {}, \"min\": {lo}, \"max\": {hi}}}",
                lo == hi && values.len() == infos.len()
            ));
        }
        det.push(format!("\"{}\": {{{}}}", w, fields.join(", ")));
    }
    println!(
        "{{\"aa\": {{\"pairs\": {}, \"ok\": {ok}, \"rows\": [{}], \"determinism\": {{{}}}}}}}",
        args.aa,
        rows.join(", "),
        det.join(", ")
    );
    Ok(ok)
}
