#!/usr/bin/env bash
# Canonical tier-1 entrypoint: build + test the whole workspace fully
# offline. The workspace has zero crates.io dependencies (see
# CONTRIBUTING.md, "Vendored-shim policy"), so `--offline` must never
# be the reason a step fails — if it is, a crates.io dependency snuck
# back in and that is the bug.
#
# Usage: scripts/check.sh [--quick-bench | --fault-smoke | --zoo-smoke | --service-smoke | --simd-smoke | --delta-smoke | --thread-smoke]
#   --thread-smoke      threaded-runtime smoke mode: run the
#                       detached-thread acceptance suite
#                       (tests/threaded_runtime.rs — fault-free
#                       byte-identity to the pump oracle at 1/2/4
#                       shards, heartbeat failover on an injected hang
#                       with exact loss accounting, in-place panic
#                       respawn, live quiesce-snapshot/restore, delta
#                       chains, pump↔threads handoff, finish without
#                       waiting out the monitor) plus the thread chaos
#                       property in tests/fault_tolerance.rs, the
#                       ring-fed ingest equivalence suite
#                       (tests/ingest_scaling.rs — finish ≡ build at
#                       1/2/4 shards and every ring capacity down to
#                       1, 16 shards over 5 flows, the empty trace)
#                       and the runtime's unit tests (a dropped engine
#                       releases every worker), in release, under a
#                       hard wall-clock timeout — a supervision bug
#                       whose symptom is "a drain wait never returns"
#                       or "a worker never wakes" must fail the smoke,
#                       not wedge it. Also runs the no-sleep and
#                       one-ring-runtime checks below.
#   --delta-smoke       delta-checkpoint smoke mode: run the epoch-delta
#                       acceptance suite (tests/delta_checkpoint.rs —
#                       base+deltas replays byte-identical across random
#                       geometries × shard counts × fault plans, per-link
#                       mass conservation, typed rejection of broken
#                       chains, dirty-mask soundness on the shared
#                       atomic SRAM) in release, plus the delta-push unit
#                       tests in the caesar and service crates, then the
#                       forged-frame tests (the caesar unit tests named
#                       `forged*`: re-sealed snapshots, CDLT links and
#                       CSKP/CSKD frames with forged fields must be
#                       refused typed, or restore a working engine or
#                       merge) again from
#                       their release binary under `ulimit -v` 4 GiB,
#                       so an allocation sized from forged input fails
#                       at once instead of eating the host — including
#                       the ignored ones whose forged sizes (cache,
#                       ring, a snapshot's or a CSKP payload's L) only
#                       the address limit makes safe to ask for —, and
#                       likewise the service unit tests named `forged*`
#                       (a PushDelta or PushSketch whose fingerprint
#                       claims L = 2^40 must be refused before a block
#                       expands or the counters are allocated) and the
#                       cachesim ones
#                       (`CacheTable::restore` refusing a duplicate
#                       flow, a recency order that is no permutation
#                       and, with the ignored one, an `entries` the
#                       allocator refuses), then the tiny-scale
#                       cluster-view sweep whose rows now carry
#                       measured full-vs-delta wire bytes. Runs the
#                       one-counter-codec check below first.
#   --simd-smoke        lane-kernel smoke mode: run the lane bit-identity
#                       suites (tests/lane_kernels.rs — chunked CSM/MLM
#                       sweeps ≡ scalar prepared kernels bit for bit —
#                       and tests/packed_parity.rs — packed-SRAM builds
#                       byte-identical to word builds) in release, then
#                       the asm-shape guard: re-emit the caesar crate
#                       with --emit=asm and require packed vector
#                       instructions inside the named probe kernels
#                       (asm_probe_csm_lanes, asm_probe_mlm_lanes,
#                       asm_probe_fill_lanes_k3), so a toolchain bump
#                       that silently de-vectorizes the lane kernels
#                       fails here instead of shipping as a perf
#                       regression. On hosts without AVX the asm guard
#                       is SKIPPED loudly (the lane loops still run —
#                       scalar codegen is correct, just slower).
#   --service-smoke     cluster-service smoke mode: run the service
#                       crate's unit tests plus the merge/service
#                       acceptance suites (tests/mergeable.rs — the
#                       byte-for-byte merge property — and
#                       tests/cluster_service.rs — saturation
#                       monotonicity + the per-zoo-family loopback TCP
#                       bit-identity check) in release, then the
#                       tiny-scale cluster-view sweep asserting its
#                       CSV/JSON artifacts land, then the cluster_view
#                       example end-to-end over a real socket.
#   --zoo-smoke         workload-zoo smoke mode: run the zoo acceptance
#                       suite (tests/workload_zoo.rs — determinism,
#                       CAIDA-fit goldens, CZOO artifact round-trips,
#                       and the three adversarial OnlineCaesar
#                       regressions) in release, then the tiny-scale
#                       per-workload sweep (caesar-experiments zoo)
#                       asserting its CSV/JSON artifacts land, then the
#                       workload_zoo example end-to-end.
#   --fault-smoke       robustness smoke mode: run the fault-tolerance
#                       acceptance suite (tests/fault_tolerance.rs) in
#                       release — injected worker panics, sticky ring
#                       stalls, drop-policy loss accounting, and the
#                       snapshot → restore → resume byte-identity
#                       round-trip — then run the resilient_monitor
#                       example end-to-end. Release, not debug, on
#                       purpose: catch_unwind + supervised respawn must
#                       survive optimized codegen, and the smoke stays
#                       fast enough for pre-push hooks.
#   --quick-bench       smoke-bench mode: instead of the full tier-1
#                       sweep, time just the two canary kernels
#                       (estimator_kernels/csm_kernel and
#                       cache/cache_record_hit, via CAESAR_BENCH_FILTER)
#                       and FAIL if either regresses more than 1.5x
#                       against the newest committed BENCH_*.json.
#                       Compares min_ns, not median_ns, and retries up
#                       to 3 times: these kernels sit at single-digit
#                       ns where one loaded window inflates any
#                       statistic ~2x. A genuine regression fails every
#                       attempt; transient host steal does not.
#                       Also runs the thread-scaling canary: the
#                       4-shard concurrent build must be meaningfully
#                       faster than the 1-shard build (median t4 <
#                       0.8x t1) — FAIL otherwise. The scaling canary
#                       needs real cores: on hosts with fewer than 2
#                       (nproc) it is SKIPPED loudly, because the
#                       worker-per-shard build cannot beat sequential
#                       on a single hardware thread by construction.
# Environment:
#   CHECK_WORKSPACE=0   restrict tests to the root package (the seed's
#                       tier-1 definition); default runs --workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

json_median() { # json_median GROUP NAME FILE -> median_ns ("" if absent)
    grep -F "\"group\":\"$1\"" "$3" 2>/dev/null \
        | grep -F "\"name\":\"$2\"" | head -1 \
        | sed -n 's/.*"median_ns":\([0-9.eE+-]*\),.*/\1/p'
}

json_min() { # json_min GROUP NAME FILE -> min_ns ("" if absent)
    grep -F "\"group\":\"$1\"" "$3" 2>/dev/null \
        | grep -F "\"name\":\"$2\"" | head -1 \
        | sed -n 's/.*"min_ns":\([0-9.eE+-]*\),.*/\1/p'
}

# The online runtimes wait on wakes, never on a clock: the only
# `thread::sleep` allowed in crates/caesar/src is the injected
# `SlowDrain` stall, whose line carries the marker comment.
check_no_runtime_sleeps() {
    echo "==> no thread::sleep on the runtime path (crates/caesar/src)"
    local sleeps
    sleeps=$(grep -rn 'thread::sleep' crates/caesar/src | grep -v 'injected SlowDrain stall' || true)
    if [ -n "$sleeps" ]; then
        echo "check.sh: thread::sleep on the runtime path; wait on a wake instead:"
        echo "$sleeps"
        exit 1
    fi
}

# One ring transport: the online engine's `Lane` is the only code in
# crates/caesar/src that builds an SPSC ring, so every ring-fed path
# shares its supervision, accounting and checkpointing.
check_one_ring_runtime() {
    echo "==> one ring runtime: SPSC rings built only in crates/caesar/src/lane.rs"
    local rings
    rings=$(grep -rnE 'spsc::(try_)?ring' crates/caesar/src | grep -v '^crates/caesar/src/lane\.rs:' || true)
    if [ -n "$rings" ]; then
        echo "check.sh: SPSC ring built outside the Lane; feed the thread runtime instead:"
        echo "$rings"
        exit 1
    fi
    if ! grep -qE 'spsc::(try_)?ring' crates/caesar/src/lane.rs; then
        echo "check.sh: no SPSC ring construction found in crates/caesar/src/lane.rs"
        exit 1
    fi
}

# One counter codec: `CSKP` payloads, `CSKD` deltas and the service
# frames that carry them write and read counters only through the
# shared sparse section (`checkpoint::{put_blocks, get_blocks}`). A
# raw byte read or write on the counter array, or inside a loop over
# it, in the non-test code of crates/caesar/src/merge.rs or
# crates/service/src is a second codec.
check_one_counter_codec() {
    echo "==> one counter codec: merge.rs and crates/service/src carry counters only via put_blocks/get_blocks"
    local bad
    bad=$(for f in crates/caesar/src/merge.rs crates/service/src/*.rs; do
        awk -v f="$f" '
            /^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            {
                io = ($0 ~ /(put|get)_(u8|u16_le|u32_le|u64_le|uvarint|slice|array|count)\(/)
                if (io && ($0 ~ /counters(\.|\[)/ || loop > 0)) print f ":" NR ": " $0
                if (loop > 0) loop--
                if ($0 ~ /for .* in .*counters/) loop = 3
            }' "$f"
    done)
    if [ -n "$bad" ]; then
        echo "check.sh: counters encoded or decoded outside checkpoint::{put_blocks, get_blocks}:"
        echo "$bad"
        exit 1
    fi
    for fn in put_blocks get_blocks; do
        if ! grep -q "$fn(" crates/caesar/src/merge.rs; then
            echo "check.sh: crates/caesar/src/merge.rs no longer calls $fn"
            exit 1
        fi
    done
}

if [ "${1:-}" = "--thread-smoke" ]; then
    echo "==> thread smoke: detached-thread runtime + heartbeat supervision, release build"
    check_no_runtime_sleeps
    check_one_ring_runtime
    # `timeout` turns a wedged drain/failover wait into a failure
    # instead of a hung CI job; 300s is ~100x the healthy runtime.
    run timeout 300 cargo test --release --offline -q --test threaded_runtime
    run timeout 300 cargo test --release --offline -q --test fault_tolerance random_thread_chaos
    run timeout 300 cargo test --release --offline -q --test ingest_scaling
    run timeout 120 cargo test --release --offline -q -p caesar --lib threaded
    echo "check.sh --thread-smoke: all green"
    exit 0
fi

if [ "${1:-}" = "--fault-smoke" ]; then
    echo "==> fault smoke: supervised recovery + crash-consistency, release build"
    run cargo test --release --offline -q --test fault_tolerance
    # The demo streams with a live fault plan (panic + stall + forced
    # saturation) and asserts the mass invariant and the checkpoint
    # round-trip internally; any violation aborts it.
    echo "==> cargo run --release --example resilient_monitor (output suppressed)"
    cargo run -q --release --offline --example resilient_monitor >/dev/null
    echo "check.sh --fault-smoke: all green"
    exit 0
fi

if [ "${1:-}" = "--delta-smoke" ]; then
    echo "==> delta smoke: epoch-delta checkpoints + delta pushes, release build"
    check_one_counter_codec
    run cargo test --release --offline -q --test delta_checkpoint
    run cargo test --release --offline -q -p caesar --lib -- delta
    run cargo test --release --offline -q -p service
    for crate in cachesim caesar service; do
        BIN="$(cargo test --release --offline -q -p "$crate" --lib --no-run --message-format=json \
            | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | head -1)"
        if [ -z "$BIN" ]; then
            echo "check.sh --delta-smoke: no $crate unit-test binary to run"
            exit 1
        fi
        echo "==> ulimit -v 4194304; $BIN forged --include-ignored"
        (ulimit -v 4194304 && "$BIN" -q forged --include-ignored)
    done
    OUT="$(mktemp -d)"
    trap 'rm -rf "$OUT"' EXIT
    echo "==> caesar-experiments cluster --scale tiny --out $OUT (output suppressed)"
    cargo run -q --release --offline -p experiments --bin caesar-experiments -- \
        cluster --scale tiny --out "$OUT" >/dev/null
    if ! head -1 "$OUT/cluster_view.csv" | grep -q "bytes_delta"; then
        echo "check.sh --delta-smoke: cluster_view.csv lacks the bytes_delta column"
        exit 1
    fi
    # Every family row must report nonzero measured wire bytes for both
    # the full and the delta pushes (last two CSV columns).
    bad="$(awk -F, 'NR > 1 && ($(NF-1) + 0 <= 0 || $NF + 0 <= 0)' "$OUT/cluster_view.csv" | wc -l)"
    if [ "$bad" -ne 0 ]; then
        echo "check.sh --delta-smoke: $bad cluster_view.csv rows lack measured push bytes"
        exit 1
    fi
    echo "check.sh --delta-smoke: all green"
    exit 0
fi

if [ "${1:-}" = "--service-smoke" ]; then
    echo "==> service smoke: mergeable sketches + query service, release build"
    run cargo test --release --offline -q -p service
    run cargo test --release --offline -q --test mergeable
    run cargo test --release --offline -q --test cluster_service
    OUT="$(mktemp -d)"
    trap 'rm -rf "$OUT"' EXIT
    echo "==> caesar-experiments cluster --scale tiny --out $OUT (output suppressed)"
    cargo run -q --release --offline -p experiments --bin caesar-experiments -- \
        cluster --scale tiny --out "$OUT" >/dev/null
    for artifact in cluster_view.csv cluster_view.json; do
        if [ ! -s "$OUT/$artifact" ]; then
            echo "check.sh --service-smoke: sweep did not write $artifact"
            exit 1
        fi
    done
    # Header + one row per family.
    rows="$(wc -l < "$OUT/cluster_view.csv")"
    if [ "$rows" -lt 9 ]; then
        echo "check.sh --service-smoke: cluster_view.csv has $rows lines, want >= 9"
        exit 1
    fi
    # The example pushes 3 taps over a live loopback socket and asserts
    # mass conservation internally; any violation aborts it.
    echo "==> cargo run --release --example cluster_view (output suppressed)"
    cargo run -q --release --offline --example cluster_view >/dev/null
    echo "check.sh --service-smoke: all green"
    exit 0
fi

if [ "${1:-}" = "--zoo-smoke" ]; then
    echo "==> zoo smoke: workload families + adversarial regressions, release build"
    run cargo test --release --offline -q --test workload_zoo
    OUT="$(mktemp -d)"
    trap 'rm -rf "$OUT"' EXIT
    echo "==> caesar-experiments zoo --scale tiny --out $OUT (output suppressed)"
    cargo run -q --release --offline -p experiments --bin caesar-experiments -- \
        zoo --scale tiny --out "$OUT" >/dev/null
    for artifact in zoo_sweep.csv zoo_sweep.json; do
        if [ ! -s "$OUT/$artifact" ]; then
            echo "check.sh --zoo-smoke: sweep did not write $artifact"
            exit 1
        fi
    done
    # Header + one row per family.
    rows="$(wc -l < "$OUT/zoo_sweep.csv")"
    if [ "$rows" -lt 9 ]; then
        echo "check.sh --zoo-smoke: zoo_sweep.csv has $rows lines, want >= 9"
        exit 1
    fi
    echo "==> cargo run --release --example workload_zoo (output suppressed)"
    cargo run -q --release --offline --example workload_zoo >/dev/null
    echo "check.sh --zoo-smoke: all green"
    exit 0
fi

if [ "${1:-}" = "--simd-smoke" ]; then
    echo "==> simd smoke: lane-kernel bit-identity + asm vector-shape guard"
    run cargo test --release --offline -q -p caesar --test lane_kernels
    run cargo test --release --offline -q -p caesar --test packed_parity
    if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
        echo "simd-smoke: asm guard SKIPPED — host CPU advertises no AVX2;"
        echo "simd-smoke: lane kernels verified bit-identical under scalar codegen only"
        echo "check.sh --simd-smoke: all green (asm guard skipped)"
        exit 0
    fi
    # Emit asm for the caesar crate alone. codegen-units=1 keeps every
    # probe in one .s file; the flag change means a one-off rebuild of
    # the crate, which is the price of a readable disassembly.
    echo "==> cargo rustc -p caesar --release -- --emit=asm -C codegen-units=1"
    cargo rustc -p caesar --release --offline -- --emit=asm -C codegen-units=1 >/dev/null 2>&1
    ASM="$(ls -t target/release/deps/caesar-*.s 2>/dev/null | head -1 || true)"
    if [ -z "$ASM" ]; then
        echo "check.sh --simd-smoke: --emit=asm produced no caesar-*.s"
        exit 1
    fi
    echo "==> asm guard over $ASM"
    probe_body() { # probe_body SYMBOL -> the instructions of that function
        awk -v p="$1" '
            index($0, p) && /:$/ { on = 1 }
            on { print }
            on && /cfi_endproc/ { exit }
        ' "$ASM"
    }
    guard_fail=0
    # Float lane kernels must use packed-double arithmetic; the k-map
    # candidate pass is integer lane math, so its signature is packed
    # 64-bit adds/shifts/multiplies instead.
    for spec in \
        "asm_probe_csm_lanes v(add|mul|sub|div|max)pd|vfm(add|sub)" \
        "asm_probe_mlm_lanes v(sqrt|add|mul|sub|div|max)pd|vfm(add|sub)" \
        "asm_probe_fill_lanes_k3 vp(add|sll|srl|mul|xor)q|vpmuludq"; do
        probe="${spec%% *}"
        pattern="${spec#* }"
        body="$(probe_body "$probe")"
        if [ -z "$body" ]; then
            echo "simd-smoke: probe $probe not found in $ASM"
            guard_fail=1
            continue
        fi
        hits="$(printf '%s\n' "$body" | grep -cE "$pattern" || true)"
        if [ "$hits" -gt 0 ]; then
            echo "simd-smoke: $probe vectorized ($hits packed-vector instructions)"
        else
            echo "simd-smoke: $probe has NO packed-vector instructions — lane kernel de-vectorized"
            guard_fail=1
        fi
    done
    if [ "$guard_fail" -ne 0 ]; then
        echo "check.sh --simd-smoke: asm vector-shape guard failed"
        exit 1
    fi
    echo "check.sh --simd-smoke: all green"
    exit 0
fi

if [ "${1:-}" = "--quick-bench" ]; then
    BASE="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
    if [ -z "$BASE" ]; then
        echo "check.sh --quick-bench: no BENCH_*.json baseline; skipping"
        exit 0
    fi
    echo "==> quick-bench smoke vs $BASE (fail on >1.5x regression, 3 attempts)"
    run cargo build --release --offline -p bench --benches >/dev/null
    SMOKE="$(mktemp)"
    trap 'rm -f "$SMOKE"' EXIT
    kernels_ok=0
    for attempt in 1 2 3; do
        CAESAR_BENCH_FILTER="estimator_kernels/csm_kernel,cache/cache_record_hit" \
            CAESAR_BENCH_SAMPLES=9 \
            cargo bench --offline -p bench --bench micro 2>/dev/null \
            | grep '^{' > "$SMOKE"
        fail=0
        for key in "estimator_kernels csm_kernel" "cache cache_record_hit"; do
            set -- $key
            prev="$(json_min "$1" "$2" "$BASE")"
            new="$(json_min "$1" "$2" "$SMOKE")"
            if [ -z "$prev" ] || [ -z "$new" ]; then
                echo "quick-bench: $1/$2 missing (prev='$prev' new='$new')"
                fail=1
                continue
            fi
            verdict="$(awk -v a="$prev" -v b="$new" \
                'BEGIN { r = (a > 0) ? b / a : 0; printf "%.2f %s", r, (r > 1.5) ? "FAIL" : "ok" }')"
            echo "quick-bench[$attempt]: $1/$2 ${prev}ns -> ${new}ns (ratio ${verdict})"
            case "$verdict" in *FAIL*) fail=1 ;; esac
        done
        if [ "$fail" -eq 0 ]; then
            kernels_ok=1
            break
        fi
        [ "$attempt" -lt 3 ] && echo "quick-bench: attempt $attempt noisy; retrying" && sleep 2
    done
    if [ "$kernels_ok" -ne 1 ]; then
        echo "check.sh --quick-bench: canary kernel regressed on all attempts"
        exit 1
    fi

    # --- thread-scaling canary ---------------------------------------
    # The point of the sharded ingest is that more shards are faster.
    # Pin that property: the 4-shard concurrent build median must be
    # < 0.8x the 1-shard median. It is a *host* property as much as a
    # code property, so it is only meaningful with real parallelism —
    # on a single-core host the worker threads time-slice one hardware
    # thread and 4 shards cannot beat 1 by construction. Skip loudly
    # there instead of producing a vacuous failure.
    CORES="$(nproc 2>/dev/null || echo 1)"
    if [ "$CORES" -lt 2 ]; then
        echo "quick-bench: thread-scaling canary SKIPPED — host has $CORES core(s);"
        echo "quick-bench: t4 < 0.8x t1 is unobservable without >=2 hardware threads"
        echo "check.sh --quick-bench: all green (scaling canary skipped)"
        exit 0
    fi
    scaling_ok=0
    for attempt in 1 2; do
        CAESAR_BENCH_FILTER="concurrent_build/1,concurrent_build/4" \
            cargo bench --offline -p bench --bench extensions 2>/dev/null \
            | grep '^{' > "$SMOKE"
        t1="$(json_median concurrent_build 1 "$SMOKE")"
        t4="$(json_median concurrent_build 4 "$SMOKE")"
        if [ -z "$t1" ] || [ -z "$t4" ]; then
            echo "quick-bench: concurrent_build medians missing (t1='$t1' t4='$t4')"
            break
        fi
        verdict="$(awk -v a="$t1" -v b="$t4" \
            'BEGIN { r = (a > 0) ? b / a : 0; printf "%.2f %s", r, (r < 0.8) ? "ok" : "FAIL" }')"
        echo "quick-bench[$attempt]: scaling t1=${t1}ns t4=${t4}ns (t4/t1 ${verdict}, need < 0.80)"
        case "$verdict" in
            *ok*) scaling_ok=1 ;;
        esac
        [ "$scaling_ok" -eq 1 ] && break
        [ "$attempt" -lt 2 ] && echo "quick-bench: scaling attempt $attempt noisy; retrying" && sleep 2
    done
    if [ "$scaling_ok" -ne 1 ]; then
        echo "check.sh --quick-bench: thread-scaling canary failed (t4 not < 0.8x t1 on $CORES cores)"
        exit 1
    fi
    echo "check.sh --quick-bench: all green"
    exit 0
fi

check_no_runtime_sleeps
check_one_ring_runtime
check_one_counter_codec

run cargo build --release --offline

# The threaded-runtime suite runs under a hard wall-clock timeout even
# in the default flow: its characteristic failure mode is a drain or
# failover wait that never returns, which must fail tier-1 loudly
# instead of wedging it. The workspace sweep below re-runs the suite
# in debug — by then this release pass has already bounded it.
run timeout 300 cargo test --release --offline -q --test threaded_runtime

if [ "${CHECK_WORKSPACE:-1}" = "1" ]; then
    run cargo test -q --offline --workspace
else
    run cargo test -q --offline
fi

# The repository benchmark (perfbench/) is a workspace of its own, so
# nothing above compiles it. Its tiny-run tests build it against the
# current crates and drive every workload once, so an API change that
# breaks the benchmark fails here, not in the first benchmark run.
run cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# Benches and examples are not exercised by `cargo test`; keep them
# compiling so the figure/bench harnesses never rot. Build them in
# release too: the bench trajectory (scripts/bench_trajectory.sh) runs
# release binaries, and an -O-only codegen error must fail CI, not the
# first perf run.
run cargo build --offline --benches --examples --workspace
run cargo build --release --offline --benches --examples --workspace

# Clippy with -D warnings is part of tier-1 wherever the component is
# installed; it is skipped (loudly) only when the toolchain ships
# without it, so its absence must not fail the offline sandbox.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint step"
fi

# Rustdoc with -D warnings: a broken or private intra-doc link fails
# tier-1 the way a lint does.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "check.sh: all green"
