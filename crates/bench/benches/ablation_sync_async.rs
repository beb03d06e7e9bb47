//! Ablation — synchronous vs asynchronous execution (§3.2/§3.4: ElGA
//! "supports both synchronous and asynchronous vertex-centric
//! applications"; the paper does not isolate the two modes, so this is
//! an extension experiment from DESIGN.md's ablation list).
//!
//! WCC is monotone and runs in both modes; async avoids superstep
//! barriers at the cost of redundant propagation. Beside each mode's
//! time, the last trial's counts: vertex messages delivered (`vmsgs`,
//! after sender-side combining in both modes) and the VMSG and STATE
//! frames the run put on the wire.

use elga_bench::{banner, cluster, fmt_ms, generate, timed_trials};
use elga_core::algorithms::Wcc;
use elga_core::msg::packet;
use elga_core::program::{ExecutionMode, RunOptions};
use elga_gen::catalog::find;

fn main() {
    banner(
        "Ablation",
        "synchronous vs asynchronous WCC (barriered supersteps vs event-driven)",
    );
    println!(
        "{:<16} {:>9}  {:<5}  {:>22}  {:>9}  {:>7}  {:>7}",
        "graph", "m", "mode", "total", "vmsgs", "VMSG fr", "STATE fr"
    );
    for name in ["Twitter-2010", "LiveJournal", "Amazon0601"] {
        let ds = find(name).expect("catalog");
        let (_, edges) = generate(&ds, 97);
        for mode in [ExecutionMode::Sync, ExecutionMode::Async] {
            let mut counts = (0, 0, 0);
            let (mean, ci) = timed_trials(|| {
                let mut c = cluster(4);
                c.ingest_edges(edges.iter().copied());
                let net = c.transport().net_stats().expect("in-process stats");
                let frames = || (net.sent(packet::VMSG).0, net.sent(packet::STATE).0);
                let (vmsgs, before) = (c.metrics().vmsgs, frames());
                let stats = c
                    .run_with(
                        Wcc::new(),
                        RunOptions {
                            reuse_state: false,
                            mode,
                        },
                    )
                    .expect("run");
                let after = frames();
                counts = (
                    c.metrics().vmsgs - vmsgs,
                    after.0 - before.0,
                    after.1 - before.1,
                );
                c.shutdown();
                stats.total
            });
            println!(
                "{:<16} {:>9}  {:<5}  {:>22}  {:>9}  {:>7}  {:>7}",
                name,
                edges.len(),
                format!("{mode:?}"),
                fmt_ms(mean, ci),
                counts.0,
                counts.1,
                counts.2
            );
        }
    }
}
