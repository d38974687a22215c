#!/usr/bin/env sh
# CI gate: rustfmt, release build, workspace and benchmark-harness tests,
# the docs and clippy with warnings denied, perfsnap's trace-overhead gate
# and a one-rung ladder, CLI usage errors, store, query-serving
# (queryd/queryc), dynaddrd replay, streamed and traced pipeline smokes,
# the paper-tier memory ceilings (streamed analyze, dynaddrd and queryd),
# and the quickstart.
#
# The perfsnap step fails if tracing costs more than 2% (and 10 ms) of an
# untraced analyze, and proves the s005 ladder rung writes valid JSON with
# the executor's thread count. Its
# ladder numbers are not a benchmark: refresh BENCH_pipeline.json with a
# default perfsnap run, and measure speed with perfbench/run.py.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
# perfbench/ is its own workspace and is not formatted by this step.
cargo fmt --all --check

echo "==> cargo build --release --workspace"
# --workspace: the root package alone would skip the member binaries the
# smokes below run straight from target/release (queryd, dynaddrd, ...).
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo doc --workspace --no-deps (warnings denied)"
# A doc link to a deleted, renamed or private item fails here instead of
# dangling in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy --workspace --all-targets (warnings denied)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> benchmark harness tests (against the workspace crates)"
cargo test --release --offline --manifest-path perfbench/harness/Cargo.toml \
    --target-dir target/perfbench-harness

echo "==> perfsnap (trace-overhead gate, tier ladder s005 only)"
SNAP="$(mktemp /tmp/perfsnap-smoke.XXXXXX.json)"
SMOKE="$(mktemp -d /tmp/dynaddr-smoke.XXXXXX)"
trap 'rm -rf "$SNAP" "$SMOKE"' EXIT
# One executor thread: the tier child must record the count it ran with,
# not the host's. The trace gate runs on one thread either way.
DYNADDR_THREADS=1 cargo run --release -q -p dynaddr-bench --bin perfsnap -- \
    --tiers s005 --out "$SNAP"

python3 -m json.tool "$SNAP" > /dev/null
grep -q '"tiers"' "$SNAP"
grep -q '"probes_per_sec"' "$SNAP"
grep -q '"peak_rss_bytes"' "$SNAP"
grep -q '"trace_overhead_pct"' "$SNAP"
python3 -c 'import json, sys
tiers = json.load(open(sys.argv[1]))["tiers"]
assert [t["threads"] for t in tiers if t["tier"] == "s005"] == [1], tiers' "$SNAP"

echo "==> CLI usage errors (exit 2, not a panic)"
exits_2() { CODE=0; "$@" > /dev/null 2>&1 || CODE=$?; test "$CODE" -eq 2; }
exits_2 ./target/release/simulate --out "$SMOKE/bad" --seed abc
exits_2 ./target/release/analyze --threads
exits_2 ./target/release/analyze --tier paper
exits_2 ./target/release/perfsnap --seed abc
exits_2 ./target/release/repro --seed abc
# An unknown experiment is refused before the world is simulated.
exits_2 ./target/release/repro fgi1
exits_2 ./target/release/queryd --cache-mb abc
exits_2 ./target/release/queryc --count x
exits_2 ./target/release/dynaddrd --rate 0
exits_2 ./target/release/dynaddrd --threads x

echo "==> store smoke (scale 0.01): the reference report the smokes below diff"
# simulate always writes through the shard spill and its k-way merge;
# tests/determinism.rs pins that file to the in-memory simulation's bytes.
cargo run --release -q -p dynaddr-bench --bin simulate -- \
    --out "$SMOKE/store" --scale 0.01 --seed 5
test -f "$SMOKE/store/dataset.store"
cargo run --release -q -p dynaddr-bench --bin analyze -- \
    --data "$SMOKE/store" --report "$SMOKE/store.txt" > /dev/null

echo "==> query serving smoke (queryd on the scale-0.01 store)"
# The daemon's cache-backed answers must match the batch-loaded local
# oracle byte for byte (remote vs local), and a second identical batch —
# now served from a warm cache — must match the first (cold vs warm).
QSOCK="$SMOKE/queryd.sock"
./target/release/queryd --data "$SMOKE/store" --socket "$QSOCK" \
    --trace "$SMOKE/queryd-trace.jsonl" 2> "$SMOKE/queryd.err" &
QPID=$!
trap 'kill "$QPID" 2>/dev/null || true; rm -rf "$SNAP" "$SMOKE"' EXIT
./target/release/queryc --data "$SMOKE/store" --socket "$QSOCK" \
    --count 400 --seed 99 --out "$SMOKE/q-remote-cold.txt"
./target/release/queryc --data "$SMOKE/store" --socket "$QSOCK" \
    --count 400 --seed 99 --out "$SMOKE/q-remote-warm.txt"
./target/release/queryc --data "$SMOKE/store" \
    --count 400 --seed 99 --out "$SMOKE/q-local.txt"
diff "$SMOKE/q-remote-cold.txt" "$SMOKE/q-local.txt"
diff "$SMOKE/q-remote-cold.txt" "$SMOKE/q-remote-warm.txt"
kill "$QPID"
wait "$QPID" 2>/dev/null || true
# A 1 MiB cache holds a few dozen probes, so the same batch runs the
# evicting per-probe path and each segment's first-touch indexing.
QSOCK="$SMOKE/queryd-1mb.sock"
./target/release/queryd --data "$SMOKE/store" --socket "$QSOCK" --cache-mb 1 \
    2> "$SMOKE/queryd-1mb.err" &
QPID=$!
./target/release/queryc --data "$SMOKE/store" --socket "$QSOCK" \
    --count 400 --seed 99 --out "$SMOKE/q-remote-1mb.txt"
diff "$SMOKE/q-remote-1mb.txt" "$SMOKE/q-local.txt"
kill "$QPID"
wait "$QPID" 2>/dev/null || true

echo "==> dynaddrd replay smoke (scale 0.01 store, daemon vs batch report)"
# Replaying the full stream through the live per-probe state machines and
# sealing must reproduce the batch analyzer's report byte for byte — at 1
# thread, 2 threads, and the ambient count. Mid-replay, the daemon must
# answer rolling point queries over its socket. It replays the named file,
# here a renamed copy whose directory holds no dataset.store.
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$SNAP" "$SMOKE"' EXIT
mkdir "$SMOKE/replay"
cp "$SMOKE/store/dataset.store" "$SMOKE/replay/renamed.store"
cp -R "$SMOKE/store/ip2as" "$SMOKE/store/names.json" "$SMOKE/replay/"
for THREADS in 1 2 ambient; do
    DSOCK="$SMOKE/dynaddrd-$THREADS.sock"
    DREPORT="$SMOKE/dynaddrd-$THREADS.txt"
    if [ "$THREADS" = ambient ]; then
        set --
    else
        set -- --threads "$THREADS"
    fi
    ./target/release/dynaddrd --replay "$SMOKE/replay/renamed.store" \
        --socket "$DSOCK" --rate max --report "$DREPORT" \
        --trace "$SMOKE/dynaddrd-$THREADS-trace.jsonl" \
        "$@" 2> "$SMOKE/dynaddrd-$THREADS.err" &
    DPID=$!
    # Rolling snapshot + probe state while (or just after) the replay
    # runs; then block until the stream is sealed.
    ./target/release/dynaddrd query --socket "$DSOCK" snapshot \
        > "$SMOKE/dynaddrd-$THREADS.snap"
    grep -q '^snapshot: ' "$SMOKE/dynaddrd-$THREADS.snap"
    ./target/release/dynaddrd query --socket "$DSOCK" --wait-sealed 120 ingest \
        | grep -q 'sealed true'
    # The report is published by atomic rename just after sealing.
    N=0
    until [ -f "$DREPORT" ]; do
        N=$((N+1))
        [ "$N" -lt 200 ] || { echo "dynaddrd report never appeared"; exit 1; }
        sleep 0.1
    done
    diff "$SMOKE/store.txt" "$DREPORT"
    grep -q '"ev":"heartbeat"' "$SMOKE/dynaddrd-$THREADS-trace.jsonl"
    kill "$DPID"
    wait "$DPID" 2>/dev/null || true
done
# A paced replay (--rate N) loads the whole store and replays it in
# arrival order, a path the max-rate runs above never take. At a huge
# multiplier it runs unthrottled and must seal the same report.
./target/release/dynaddrd --replay "$SMOKE/replay/renamed.store" \
    --socket "$SMOKE/dynaddrd-paced.sock" --rate 1e9 --exit-after-replay \
    --report "$SMOKE/dynaddrd-paced.txt" 2> "$SMOKE/dynaddrd-paced.err"
diff "$SMOKE/store.txt" "$SMOKE/dynaddrd-paced.txt"

echo "==> streamed pipeline smoke (scale 0.01, streamed vs batch)"
# --streamed runs the same write path as the store smoke, so the cmp is a
# run-to-run check; tests/determinism.rs pins the merged store to the
# in-memory simulation's bytes. The out-of-core analyzer must give the
# byte-identical report.
cargo run --release -q -p dynaddr-bench --bin simulate -- \
    --out "$SMOKE/streamed" --scale 0.01 --seed 5 --streamed
cmp "$SMOKE/store/dataset.store" "$SMOKE/streamed/dataset.store"
cargo run --release -q -p dynaddr-bench --bin analyze -- \
    --data "$SMOKE/streamed" --streamed --report "$SMOKE/streamed.txt" > /dev/null
diff "$SMOKE/store.txt" "$SMOKE/streamed.txt"

echo "==> traced pipeline smoke (scale 0.01, trace on vs off)"
# Observability is strictly off the output path: with --trace the binaries
# must write a valid JSONL sidecar (heartbeats, spans, executor stats)
# while the dataset and report bytes stay identical to the untraced runs.
cargo run --release -q -p dynaddr-bench --bin simulate -- \
    --out "$SMOKE/traced" --scale 0.01 --seed 5 --streamed \
    --trace "$SMOKE/simulate-trace.jsonl"
cmp "$SMOKE/store/dataset.store" "$SMOKE/traced/dataset.store"
DYNADDR_HEARTBEAT_SECS=0 cargo run --release -q -p dynaddr-bench --bin analyze -- \
    --data "$SMOKE/traced" --streamed --report "$SMOKE/traced.txt" \
    --trace "$SMOKE/analyze-trace.jsonl" > /dev/null
diff "$SMOKE/store.txt" "$SMOKE/traced.txt"
# Every sidecar line must be one valid JSON object.
for TRACE in "$SMOKE/simulate-trace.jsonl" "$SMOKE/analyze-trace.jsonl"; do
    test -s "$TRACE"
    while IFS= read -r line; do
        printf '%s\n' "$line" | python3 -m json.tool > /dev/null
    done < "$TRACE"
done
grep -q '"ev":"exec_stats"' "$SMOKE/analyze-trace.jsonl"
grep -q '"ev":"heartbeat"' "$SMOKE/analyze-trace.jsonl"
grep -q '"ev":"span"' "$SMOKE/analyze-trace.jsonl"

echo "==> paper-tier streamed smoke (memory ceiling)"
# The full 10,977-probe tier must analyze out-of-core under 150 MiB peak
# RSS — a ceiling the materialized path exceeds (~220 MB). The analyze
# binary self-reports VmHWM on stderr as "peak_rss_bytes: N".
cargo run --release -q -p dynaddr-bench --bin simulate -- \
    --out "$SMOKE/paper" --tier paper --streamed
cargo run --release -q -p dynaddr-bench --bin analyze -- \
    --data "$SMOKE/paper" --streamed --report "$SMOKE/paper.txt" \
    > /dev/null 2> "$SMOKE/paper-analyze.err"
RSS="$(sed -n 's/^peak_rss_bytes: //p' "$SMOKE/paper-analyze.err")"
echo "    paper-tier streamed analyze peak RSS: $RSS bytes"
test -n "$RSS"
test "$RSS" -lt 157286400

echo "==> paper-tier dynaddrd smoke (memory ceiling, sealed vs streamed analyze)"
# At --rate max dynaddrd replays the store probe-major, one batch of
# whole probes at a time, so it holds one batch beside the machines, not
# the store. Its sealed report must equal the streamed analyzer's, and it
# must peak under 200 MiB RSS (about 180 MiB on a 2-vCPU Xeon VM).
DSOCK="$SMOKE/dynaddrd-paper.sock"
DREPORT="$SMOKE/paper-dynaddrd.txt"
./target/release/dynaddrd --replay "$SMOKE/paper/dataset.store" --socket "$DSOCK" \
    --rate max --report "$DREPORT" 2> "$SMOKE/dynaddrd-paper.err" &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$SNAP" "$SMOKE"' EXIT
N=0
until [ -f "$DREPORT" ]; do
    kill -0 "$DPID" 2>/dev/null || { cat "$SMOKE/dynaddrd-paper.err"; exit 1; }
    N=$((N+1))
    [ "$N" -lt 1200 ] || { echo "dynaddrd paper report never appeared"; exit 1; }
    sleep 0.1
done
diff "$SMOKE/paper.txt" "$DREPORT"
HWM="$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$DPID/status")"
echo "    paper-tier dynaddrd peak RSS: $HWM kB"
test -n "$HWM"
test "$HWM" -lt 204800
kill "$DPID"
wait "$DPID" 2>/dev/null || true

echo "==> paper-tier queryd smoke (memory ceiling, remote vs local)"
# queryd on the paper-tier store with a fixed 64 MiB probe cache must
# answer a seeded batch byte-identically to the batch-loaded oracle and
# peak under 110 MiB RSS (about 84 MiB on a 2-vCPU Xeon VM). The cache
# holds only the probes asked for, so with the 256 MiB default the peak
# tracks how many probes the requests name.
QSOCK="$SMOKE/queryd-paper.sock"
./target/release/queryd --data "$SMOKE/paper" --socket "$QSOCK" --cache-mb 64 \
    2> "$SMOKE/queryd-paper.err" &
QPID=$!
trap 'kill "$QPID" 2>/dev/null || true; rm -rf "$SNAP" "$SMOKE"' EXIT
./target/release/queryc --data "$SMOKE/paper" --socket "$QSOCK" \
    --count 2000 --seed 99 --out "$SMOKE/qp-remote.txt"
./target/release/queryc --data "$SMOKE/paper" \
    --count 2000 --seed 99 --out "$SMOKE/qp-local.txt"
diff "$SMOKE/qp-remote.txt" "$SMOKE/qp-local.txt"
HWM="$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$QPID/status")"
echo "    paper-tier queryd peak RSS: $HWM kB"
test -n "$HWM"
test "$HWM" -lt 112640
kill "$QPID"
wait "$QPID" 2>/dev/null || true

echo "==> quickstart example smoke"
cargo run --release -q --example quickstart > /dev/null

echo "==> ci OK"
