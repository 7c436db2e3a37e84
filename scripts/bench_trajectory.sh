#!/usr/bin/env bash
# Run the support::timing bench harnesses and collect their JSON lines
# into one trajectory file, so every PR's perf numbers accumulate next
# to the code that produced them.
#
# Usage: scripts/bench_trajectory.sh [OUT] [BENCH...]
#   OUT      output file (default: the next BENCH_PR<N>.json after the
#            highest-numbered one present)
#   BENCH... bench targets to run (default: micro extensions, plus the
#            ingest_backing group from the ablations bench)
#
# Environment:
#   CAESAR_BENCH_SAMPLES  samples per benchmark (harness default 5)
#   CAESAR_BENCH_WARMUP   warmup invocations (harness default 1)
#
# Each emitted line is one benchmark:
#   {"group":…,"name":…,"median_ns":…,"min_ns":…,"max_ns":…,"samples":…}
# plus one leading meta line recording when/what produced the file.
# Compare trajectories across PRs by joining on (group, name) — names
# are stable by contract (see support::timing docs). Group
# "concurrent_build" prices the sharded slice build ("1"/"2"/"4",
# "linerate_4") against the ring-fed stream build ("stream_4",
# "linerate_stream_4"); the retired scan-and-filter "replay_*" and
# slice-over-ring "pinned_4" rows survive only in the trajectory files
# recorded before their code was deleted. PR 3's pairs live in
# groups "record" ("caesar_trace" vs "caesar_trace_batch"),
# "estimators" ("caesar_query_*_all_flows" vs the "*_batch"/"*_par4"
# batch-engine sweeps) and "hashing" ("kmap_indices_k3" vs
# "kmap_fill_indices_k3"). The raw ring hand-off is group "spsc".
# PR 5's pair prices the supervised
# online engine's fault-tolerance tax: group "online"
# "steady_state_4" (single-owner supervised offer loop, epoch merges,
# watchdog ticks) vs group "concurrent_build" "stream_4" (the same
# transport without supervision), plus "online/snapshot_roundtrip_4"
# for the cost of a mid-stream checkpoint + restore. PR 6 adds group
# "zoo_ingest": one sequential-ingest bench per workload-zoo family
# (cdn … caida_fit), pricing how each traffic shape loads the
# cache/SRAM pipeline, plus "mouse_flood_online_stressed" for the
# supervised online path under the stalled-lane tail-drop stress plan.
# PR 7 adds groups "zoo_merge" and "service": "zoo_merge" prices
# folding three taps' frozen sketches into an empty cluster view, one
# bench per zoo family ("merge_3_taps_<family>" — O(L) counter adds,
# with L set per family by zoo_config); "service" prices the wire
# ("payload_encode_decode" for the SketchPayload codec,
# "inprocess_push3_query64" for the full frame path without sockets,
# and "tcp_query64_round_trip" for the same query over a live loopback
# socket — the bench that caught the Nagle/delayed-ACK stall
# TCP_NODELAY now prevents). PR 8's pairs: the lane-kernel query
# sweeps in group "estimators" ("caesar_query_*_all_flows_batch" now
# runs the chunked [f64;4]/[u64;4] lane kernels — compare against the
# same names in BENCH_PR7.json), the batched-ingest headline
# "record/caesar_trace_batch" (FlowSlotMap cache index + base-hash
# batching), and group "ingest_backing" — the packed-vs-word SRAM
# ablation ("word_small_l"/"packed_small_l" at L=2048,
# "word_large_l"/"packed_large_l" at L=32768) whose keep/drop verdict
# lives in EXPERIMENTS.md. PR 9 adds groups "checkpoint" and
# "service_delta": "checkpoint" prices a low-churn epoch's checkpoint
# both ways ("snapshot_full_{small,large}_l" re-seals every counter,
# "delta_low_churn_{small,large}_l" seals only the dirtied blocks; the
# headline pair is the two large_l names at L=32768), and
# "service_delta" prices refreshing the cluster view after a full push
# ("inprocess_refresh_full_push" vs "inprocess_refresh_delta_push",
# plus the SketchDelta codec in "delta_between_encode_decode"). Both
# groups also emit "*_bytes*" pseudo-results whose ns fields carry
# **frame sizes in bytes**, so the size win rides the same diff table
# as the time win.
#
# After writing OUT, the script prints a median diff table against the
# most recent other BENCH_*.json (joined on group/name), so every run
# shows its trajectory against the previous PR.
set -euo pipefail
cd "$(dirname "$0")/.."

LAST_N="$(ls BENCH_PR*.json 2>/dev/null \
    | sed -n 's/^BENCH_PR\([0-9]*\)\.json$/\1/p' | sort -n | tail -1 || true)"
OUT="${1:-BENCH_PR$(( ${LAST_N:-0} + 1 )).json}"
shift || true
BENCHES=("$@")
ABLATION_RIDEALONG=0
if [ "${#BENCHES[@]}" -eq 0 ]; then
    BENCHES=(micro extensions)
    # The packed-vs-word ingest ablation rides along under a filter so
    # the (slow) full ablation suite does not run on every refresh.
    ABLATION_RIDEALONG=1
fi

echo "==> building release benches (offline)"
cargo build --release --offline --benches --workspace >/dev/null

TMP="$(mktemp "${OUT}.XXXXXX")"
trap 'rm -f "$TMP"' EXIT
printf '{"meta":"bench_trajectory","date":"%s","benches":"%s"}\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "${BENCHES[*]}" > "$TMP"

for b in "${BENCHES[@]}"; do
    echo "==> cargo bench --bench $b"
    # The harness prints one JSON object per line on stdout and its
    # human-readable summary on stderr; keep only the JSON.
    cargo bench --offline -p bench --bench "$b" 2>/dev/null \
        | grep '^{' >> "$TMP"
done

if [ "$ABLATION_RIDEALONG" -eq 1 ]; then
    echo "==> cargo bench --bench ablations (ingest_backing only)"
    CAESAR_BENCH_FILTER=ingest_backing \
        cargo bench --offline -p bench --bench ablations 2>/dev/null \
        | grep '^{' >> "$TMP"
fi

mv "$TMP" "$OUT"
trap - EXIT
echo "==> wrote $(grep -c '^{' "$OUT") JSON lines to $OUT"

# --- median diff vs the previous trajectory file ---------------------
# The harness emits keys in a pinned alphabetical order (see
# support::timing tests), so sed extraction is reliable.
json_key() { # json_key LINE -> "group/name" ("" for meta lines)
    printf '%s\n' "$1" \
        | sed -n 's/.*"group":"\([^"]*\)".*"name":"\([^"]*\)".*/\1\/\2/p'
}
json_median() {
    printf '%s\n' "$1" \
        | sed -n 's/.*"median_ns":\([0-9.eE+-]*\),.*/\1/p'
}

PREV="$(ls BENCH_*.json 2>/dev/null | grep -vx "$OUT" | sort -V | tail -1 || true)"
if [ -z "$PREV" ]; then
    echo "==> no previous BENCH_*.json to diff against"
    exit 0
fi

echo "==> median diff: $PREV -> $OUT (ratio < 1 is faster)"
printf '%-50s %14s %14s %8s\n' "group/name" "prev_ns" "new_ns" "ratio"
while IFS= read -r line; do
    key="$(json_key "$line")"
    [ -n "$key" ] || continue
    new="$(json_median "$line")"
    group="${key%%/*}"
    name="${key#*/}"
    prev_line="$(grep -F "\"group\":\"$group\"" "$PREV" \
        | grep -F "\"name\":\"$name\"" | head -1 || true)"
    if [ -z "$prev_line" ]; then
        printf '%-50s %14s %14s %8s\n' "$key" "-" "$new" "new"
        continue
    fi
    prev="$(json_median "$prev_line")"
    ratio="$(awk -v a="$prev" -v b="$new" 'BEGIN { if (a > 0) printf "%.2f", b / a; else print "-" }')"
    printf '%-50s %14s %14s %8s\n' "$key" "$prev" "$new" "$ratio"
done < <(grep '^{' "$OUT")
