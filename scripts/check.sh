#!/usr/bin/env bash
# Repo-wide CI gate. Run from anywhere; operates on the repo root.
#
# Every behaviour gate (goldens, byte-identity across threads and trace
# sampling, the differential engine oracle, crash recovery, exit codes)
# lives in the Rust suite, run once here by `cargo test --workspace`.
# This script holds only what that debug-build run cannot:
#   - fmt, clippy, a type check of e2e-bench (outside the workspace),
#     rustdoc and the workspace test run itself;
#   - three source lints (print statements in library code,
#     process-global telemetry, DAIL_ environment readers);
#   - six gates that need a release build or wall-clock timing: the
#     telemetry overhead ceiling (wall-clock), the results/ regeneration
#     gate (a full-scale release run), the select-bench 3x floor, the
#     1M-row ANN gate, the columnar step-change gate and the warm-start 10x
#     floor (release-build timings).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo check e2e-bench (a workspace of its own that calls the library)"
# The workspace build does not see e2e-bench, so a change to an API it
# calls (storage's execute_query, execute_query_oracle, results_match)
# must fail this gate rather than the benchmark run.
cargo check --offline --manifest-path e2e-bench/Cargo.toml --all-targets

echo "==> cargo doc -D warnings (no dangling or private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo test -q (with the retired DAIL_ variables exported)"
# These variables once configured a run from the shell; flags replaced
# them and nothing may read them any more. Exporting them with values
# that changed behaviour turns a reader that comes back into a failure.
DAIL_EXEC=oracle DAIL_RETRIEVAL=ivf DAIL_ANALYZE=1 DAIL_TSDB=0 DAIL_TRACE_SAMPLE=0 \
    DAIL_TSDB_MAX_SERIES=2 DAIL_CRASH_POINT=mid-commit@1 \
    cargo test -q --offline --workspace

echo "==> print lint (library crates must use obskit, not stdout)"
# Library crates report through obskit; println!/eprintln! belong only in
# CLI binaries (crates/bench/src/bin), examples, and the criterion shim
# (whose whole job is printing). Doc-comment lines are exempt.
violations=$(grep -rn --include='*.rs' -E 'print(ln)?!|eprint(ln)?!' \
    src crates \
    | grep -v '^crates/bench/src/bin/' \
    | grep -v '^crates/criterion/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    || true)
if [ -n "$violations" ]; then
    echo "found print statements in library code:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> process-global telemetry lint (one scoped sink per run)"
# A run hands its telemetry to the layers underneath only by entering its
# recorder (obskit::Recorder::enter), which records windowed writes as
# trace events; only a trace's fold builds a windowed store. The
# process-global recorder and store, and a store a recorder owns, must not
# come back.
violations=$(grep -rnE 'set_global|obskit::global\(|tsdb::install|tsdb::with\(|\bwith_tsdb\b' \
    crates src examples || true)
if [ -n "$violations" ]; then
    echo "found process-global telemetry in code:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> environment lint (a run is configured by its command line)"
# Library crates take their configuration from callers and the CLI from
# its flags. The one library reader left, as file:VARIABLE, is the worker
# count e2e-bench sets; the list may only shrink. The CLI binaries may
# read DAIL_THREADS only, to warn once when it does not parse.
allowed='crates/retrievekit/src/shard.rs:DAIL_THREADS'
violations=$(grep -rnoE --include='*.rs' 'env::var(_os)?\([[:space:]]*"DAIL_[A-Z0-9_]*' \
    src crates/*/src \
    | sed -E 's/^([^:]+):[0-9]+:.*"(DAIL_[A-Z0-9_]*)$/\1:\2/' \
    | grep -vxF "$allowed" \
    | grep -vxE 'crates/bench/src/bin/[^:]+:DAIL_THREADS' \
    || true)
if [ -n "$violations" ]; then
    echo "code reads DAIL_ variables outside the allow-list:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> telemetry overhead ceiling (1% head sampling, windowed writes on)"
# Tracing at a production-like 1% sample rate — with per-operator ANALYZE
# stats collection AND the windowed time-series writes recorded on top —
# must not meaningfully slow the serving layer. The bound is deliberately
# loose (2x + 1s slack): it catches pathological per-request overhead,
# not scheduler noise.
CLI="cargo run -q --offline -p bench --bin dail_sql_cli --"
t0=$(date +%s%N)
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 >/dev/null
t_off=$(( ($(date +%s%N) - t0) / 1000000 ))
t0=$(date +%s%N)
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 --digests --trace-sample 0.01 \
    --trace target/serve-sampled.jsonl >/dev/null 2>&1
t_on=$(( ($(date +%s%N) - t0) / 1000000 ))
ceiling=$(( t_off * 2 + 1000 ))
if [ "$t_on" -gt "$ceiling" ]; then
    echo "serve-bench with 1% trace sampling took ${t_on}ms vs ${t_off}ms untraced (ceiling ${ceiling}ms)" >&2
    exit 1
fi
echo "    untraced ${t_off}ms, 1%-sampled ${t_on}ms (ceiling ${ceiling}ms)"

echo "==> results/ gate (run_experiments regenerates every committed table)"
# The tables under results/ are exactly what run_experiments writes: a
# change that moves a paper number shows it in the results/ diff. The run
# writes into a temp dir, and every file must be byte-equal to results/,
# with none missing or extra.
root=$(pwd)
regen=$(mktemp -d)
trap 'rm -rf "$regen"' EXIT
(cd "$regen" && cargo run -q --offline --release --manifest-path "$root/Cargo.toml" \
    -p bench --bin run_experiments >/dev/null 2>&1)
if ! diff -r results "$regen/results" >&2; then
    echo "results/ differs from a fresh run_experiments; if the change is intended," >&2
    echo "regenerate with: cargo run --release -p bench --bin run_experiments" >&2
    exit 1
fi
echo "    $(ls results | wc -l) files byte-equal to a fresh run"

echo "==> select-bench perf floor (fast path >= 3x naive reference at 10k rows)"
# The retrievekit fast path (contiguous f32 matrix + bounded-heap top-k)
# must stay at least 3x the committed naive reference (per-row f64 cosine
# + full stable sort) on a 10k-example synthetic pool. Timing needs
# optimized code, hence the release profile. The run also hard-checks
# every selection against the full-sort oracle (exit 1 on mismatch) and
# emits the pool-size/throughput trajectory as target/BENCH_select.json.
CLI_REL="cargo run -q --offline --release -p bench --bin dail_sql_cli --"
$CLI_REL select-bench --pool 10000 --queries 50 --seed 2023 \
    --json target/BENCH_select_naive.json > target/select-bench-report.md 2>/dev/null
speedup=$(sed -n 's/.*"speedup_vs_naive":\([0-9.]*\).*/\1/p' target/BENCH_select_naive.json)
if [ -z "$speedup" ]; then
    echo "could not parse speedup_vs_naive from target/BENCH_select_naive.json" >&2
    exit 1
fi
if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 3.0) }'; then
    echo "selection fast path is only ${speedup}x the naive reference (floor: 3.0x)" >&2
    cat target/select-bench-report.md >&2
    exit 1
fi
echo "    speedup_vs_naive: ${speedup}x"

echo "==> ANN retrieval gate (1M rows: recall >= 0.99, ivf >= 5x exact)"
# The IVF path must hold recall@k >= 0.99 against the exact oracle at the
# default probe setting and clear a 5x throughput floor over the exact
# scan on a million-row pool. Numbers land in target/BENCH_select.json
# (one point per line: exact baseline, then ivf).
$CLI_REL select-bench --pool-rows 1000000 --queries 20 --seed 2023 \
    --json target/BENCH_select.json > target/select-ann-report.md 2>/dev/null
recall_ivf=$(sed -n 's/.*"mode":"ivf",.*"recall_at_k":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
speedup_ivf=$(sed -n 's/.*"mode":"ivf",.*"speedup_vs_exact":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
if [ -z "$recall_ivf" ] || [ -z "$speedup_ivf" ]; then
    echo "could not parse ANN metrics from target/BENCH_select.json" >&2
    cat target/BENCH_select.json >&2
    exit 1
fi
if ! awk -v a="$recall_ivf" 'BEGIN { exit !(a >= 0.99) }'; then
    echo "ANN recall below floor 0.99: ivf=${recall_ivf}" >&2
    cat target/select-ann-report.md >&2
    exit 1
fi
if ! awk -v a="$speedup_ivf" 'BEGIN { exit !(a >= 5.0) }'; then
    echo "ANN speedup below floor 5.0x: ivf=${speedup_ivf}x" >&2
    cat target/select-ann-report.md >&2
    exit 1
fi
echo "    1M-row ivf: recall@k ${recall_ivf}, speedup vs exact ${speedup_ivf}x"

echo "==> columnar executor: step-change perf gate"
# Trace the same fixed workload through both engines and require the
# INVERTED profile gate to flag the oracle run as a regression against the
# columnar baseline: if `profile --fail-on-regress 25` passes here, the
# rebuilt executor is no longer meaningfully faster than the interpreter
# it replaced. Engines must also agree on every workload row count. On a
# pass the gate prints both engines' storage.exec self-times.
$CLI_REL exec-bench --rows 50000 --trace target/exec-columnar.jsonl \
    > target/exec-bench-columnar.txt 2>/dev/null
$CLI_REL exec-bench --rows 50000 --engine oracle --trace target/exec-oracle.jsonl \
    > target/exec-bench-oracle.txt 2>/dev/null
if ! cmp -s <(tail -n +2 target/exec-bench-columnar.txt) \
    <(tail -n +2 target/exec-bench-oracle.txt); then
    echo "exec-bench row counts differ between engines:" >&2
    diff target/exec-bench-columnar.txt target/exec-bench-oracle.txt >&2 || true
    exit 1
fi
if exec_diff=$($CLI_REL profile target/exec-columnar.jsonl target/exec-oracle.jsonl \
    --fail-on-regress 25 2>/dev/null); then
    echo "columnar executor is not a step-change over the oracle interpreter" >&2
    echo "(storage.exec self-time vs --engine oracle is within 25%)" >&2
    exit 1
fi
printf '%s\n' "$exec_diff" | awk -F' *[|] *' '$2 == "storage.exec" {
    printf "    storage.exec self-time: columnar %s, oracle %s (%s%%)\n", $4, $5, $7 }'

echo "==> warm-start perf floor (snapshot load >= 10x cold pool build)"
# Loading the example pool from a binary snapshot must be at least 10x
# faster than re-embedding it from scratch, with the loaded selector
# producing identical selections under every strategy (the subcommand
# exits 1 on divergence). Numbers land in target/BENCH_persist.json.
$CLI_REL warm-start-bench --store target/warm-store \
    --json target/BENCH_persist.json >/dev/null
warm_speedup=$(sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p' target/BENCH_persist.json)
if [ -z "$warm_speedup" ]; then
    echo "could not parse speedup from target/BENCH_persist.json" >&2
    exit 1
fi
if ! awk -v s="$warm_speedup" 'BEGIN { exit !(s >= 10.0) }'; then
    echo "warm start is only ${warm_speedup}x the cold build (floor: 10.0x)" >&2
    exit 1
fi
echo "    warm-start speedup: ${warm_speedup}x"

echo "all checks passed"
