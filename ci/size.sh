#!/bin/sh
# The size ratchet (ROADMAP item 2(ii)): recompute the sizes
# `ci/size.txt` records and fail when any is above its line there.
# Growth is then an edit to that file in the same change — a decision
# a reviewer sees — and shrinking needs no permission (lower the file
# when it does). Run from the repository root.
#
#   core_src_lines          every line under crates/core/src
#   core_src_nontest_lines  each file's lines above its first
#                           `#[cfg(test)]`: mechanism, not unit tests
#   graph_src_nontest_lines the same count under crates/graph/src
#   net_src_nontest_lines   the same count under crates/net/src: the
#                           substrate carries TCP's faults, not a
#                           layer that masks faults of its own making
#   packet_kinds            the `packet::` constants
#   lead_io_sites           clock reads, threads, sockets and stderr
#                           writes in the non-test part of `lead.rs`:
#                           the lead's IO belongs to its shell
#                           (`directory::lead_loop`)
#   config_knobs            the `pub` fields of `SystemConfig` that are
#                           not `#[deprecated]`: a new knob is an edit
#                           to this file a reviewer sees
#   bench_lines             every line of every .rs file under
#                           crates/bench: the one paper-figure driver
#   agent_clock_reads       `Instant::now` in the non-test part of
#                           crates/core/src/agent/*.rs: the agent's
#                           one time-based decision takes the time as
#                           an input (`Agent::on_tick(now)`); what is
#                           left are stopwatches and the thread shell
#   cluster_clock_sites     `Instant::now` and `thread::sleep` lines in
#                           the non-test part of cluster.rs: the
#                           driver waits on the lead's answers (a
#                           `quiesce` is one request), not on its clock
#   kernel_dyn_calls        `dyn VertexProgram` mentions in the
#                           non-test part of agent/superstep.rs: the
#                           kernels are generic over the program type,
#                           and only a custom program is a trait object
#   design_md_bytes         the bytes of DESIGN.md: a spec whose wire
#                           tables msg.rs renders and whose names
#                           tests/docs.rs resolves, not a history
#   rust_lines              every line of every .rs file `git ls-files`
#                           lists, shims included
set -eu
lines=$(find crates/core/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
nontest() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n }'
}
nontest=$(nontest crates/core/src)
graph_nontest=$(nontest crates/graph/src)
net_nontest=$(nontest crates/net/src)
kinds=$(awk '/^pub mod packet/,/^}/' crates/core/src/msg.rs | grep -c 'pub const [A-Z_0-9]*: u8')
lead_io=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/lead.rs |
    grep -cE 'Instant::now|\.elapsed\(\)|std::thread|Transport|Publisher|Mailbox|eprintln!' || true)
knobs=$(awk '/^pub struct SystemConfig/ { on = 1; next }
    on && /^}/ { exit }
    on && /#\[deprecated/ { old = 1; next }
    on && /^    pub [a-z_0-9]+:/ { if (!old) n++; old = 0 }
    END { print n + 0 }' crates/core/src/config.rs)
agent_clock=$(find crates/core/src/agent -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test && /Instant::now/ { n++ } END { print n + 0 }')
bench=$(find crates/bench -name '*.rs' -print0 | xargs -0 cat | wc -l)
cluster_clock=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/cluster.rs |
    grep -cE 'Instant::now|thread::sleep' || true)
kernel_dyn=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/agent/superstep.rs |
    grep -c 'dyn VertexProgram' || true)
design_bytes=$(wc -c < DESIGN.md)
rust=$(git ls-files -z '*.rs' | xargs -0 cat | wc -l)
status=0
while read -r name ceiling; do
    case "$name" in
        core_src_lines) got=$lines ;;
        core_src_nontest_lines) got=$nontest ;;
        graph_src_nontest_lines) got=$graph_nontest ;;
        net_src_nontest_lines) got=$net_nontest ;;
        packet_kinds) got=$kinds ;;
        lead_io_sites) got=$lead_io ;;
        config_knobs) got=$knobs ;;
        agent_clock_reads) got=$agent_clock ;;
        bench_lines) got=$bench ;;
        cluster_clock_sites) got=$cluster_clock ;;
        kernel_dyn_calls) got=$kernel_dyn ;;
        design_md_bytes) got=$design_bytes ;;
        rust_lines) got=$rust ;;
        *) continue ;;
    esac
    echo "$name $got (ceiling $ceiling)"
    if [ "$got" -gt "$ceiling" ]; then
        echo "$name grew past ci/size.txt: raise the ceiling there on purpose, or shrink" >&2
        status=1
    fi
done < ci/size.txt
exit $status
