#!/bin/sh
# The size ratchet (ROADMAP item 2(ii)): recompute the two sizes
# `ci/size.txt` records and fail when either is above its line there.
# Growth is then an edit to that file in the same change — a decision
# a reviewer sees — and shrinking needs no permission (lower the file
# when it does). Run from the repository root.
set -eu
lines=$(find crates/core/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
kinds=$(awk '/^pub mod packet/,/^}/' crates/core/src/msg.rs | grep -c 'pub const [A-Z_0-9]*: u8')
status=0
while read -r name ceiling; do
    case "$name" in
        core_src_lines) got=$lines ;;
        packet_kinds) got=$kinds ;;
        *) continue ;;
    esac
    echo "$name $got (ceiling $ceiling)"
    if [ "$got" -gt "$ceiling" ]; then
        echo "$name grew past ci/size.txt: raise the ceiling there on purpose, or shrink" >&2
        status=1
    fi
done < ci/size.txt
exit $status
