#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, and a print-statement
# lint for library code. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

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
# recorder (obskit::Recorder::enter), which owns the run's tsdb store too.
# The process-global recorder and store must not come back.
violations=$(grep -rnE 'set_global|obskit::global\(|tsdb::install|tsdb::with\(' \
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

echo "==> perf regression gate (baseline profile, profile diff + flamegraph)"
# The committed baseline/slowdown traces verify the gate machinery itself:
# the baseline's profile must match its golden byte for byte, an identical
# pair must pass, the injected-slowdown fixture must be flagged, and the
# flamegraph renderer must produce a non-empty SVG.
CLI="cargo run -q --offline -p bench --bin dail_sql_cli --"
$CLI profile tests/golden/baseline_trace.jsonl > target/baseline-profile.md
if ! cmp -s target/baseline-profile.md tests/golden/baseline_profile.md; then
    echo "profile drifted from tests/golden/baseline_profile.md:" >&2
    diff tests/golden/baseline_profile.md target/baseline-profile.md >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test --test golden" >&2
    exit 1
fi
$CLI profile tests/golden/baseline_trace.jsonl tests/golden/baseline_trace.jsonl \
    --fail-on-regress 10 >/dev/null
if $CLI profile tests/golden/baseline_trace.jsonl tests/golden/slowdown_trace.jsonl \
    --fail-on-regress 10 >/dev/null 2>&1; then
    echo "perf gate failed to flag the injected-slowdown fixture" >&2
    exit 1
fi
$CLI flame tests/golden/baseline_trace.jsonl --out target/flame-baseline.svg 2>/dev/null
[ -s target/flame-baseline.svg ] || {
    echo "flamegraph render produced no output" >&2
    exit 1
}

echo "==> serve-bench golden report (deterministic serving layer)"
# The serving layer must produce a byte-identical report for a fixed seed,
# independent of machine and worker count. Regenerate the golden after an
# intended change with:  DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 > target/serve-bench-report.md
if ! cmp -s target/serve-bench-report.md tests/golden/serve_bench_report.md; then
    echo "serve-bench report drifted from tests/golden/serve_bench_report.md:" >&2
    diff tests/golden/serve_bench_report.md target/serve-bench-report.md >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> metrics exposition golden (Prometheus text format)"
# The exposition of the committed baseline trace must stay byte-stable;
# regenerate after an intended change with:
#   DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
$CLI metrics tests/golden/baseline_trace.jsonl > target/metrics-expo.txt
if ! cmp -s target/metrics-expo.txt tests/golden/metrics_expo.txt; then
    echo "metrics exposition drifted from tests/golden/metrics_expo.txt:" >&2
    diff tests/golden/metrics_expo.txt target/metrics-expo.txt >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> slo-report golden (multi-window burn-rate alerting)"
# The SLO report for the serve-bench golden load must stay byte-stable
# and fire exactly one burn-rate alert at the tuned threshold.
$CLI slo-report --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 --burn-alert 4 > target/slo-report.md
if ! cmp -s target/slo-report.md tests/golden/slo_report.md; then
    echo "slo-report drifted from tests/golden/slo_report.md:" >&2
    diff tests/golden/slo_report.md target/slo-report.md >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi
alerts=$(grep -c '^- ALERT' target/slo-report.md || true)
if [ "$alerts" != "1" ]; then
    echo "slo-report golden must fire exactly one burn-rate alert, found ${alerts}" >&2
    exit 1
fi

echo "==> explain golden plan (canonical ANALYZE rendering)"
# The canonical (time-zeroed) ANALYZE plan for a fixed join+group query must
# stay byte-stable — cardinalities, operator order, and estimate display all
# included. Regenerate after an intended change with:
#   DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
$CLI explain concert_singer \
    "SELECT T1.country, count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.singer_id = T2.singer_id WHERE T2.year > 2015 GROUP BY T1.country ORDER BY count(*) DESC LIMIT 3" \
    --analyze --canonical --train 40 --dev 10 > target/explain-plan.txt
if ! cmp -s target/explain-plan.txt tests/golden/explain_plan.txt; then
    echo "explain plan drifted from tests/golden/explain_plan.txt:" >&2
    diff tests/golden/explain_plan.txt target/explain-plan.txt >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> table/column statistics JSONL round-trip"
# Collected statistics must survive serialize -> parse -> serialize
# byte-identically (the CLI exits 1 on any mismatch).
$CLI stats concert_singer --roundtrip --train 40 --dev 10 > target/db-stats.jsonl
[ -s target/db-stats.jsonl ] || {
    echo "stats subcommand produced no JSONL output" >&2
    exit 1
}

echo "==> ANALYZE passivity (report bytes unchanged with stats collection on)"
# --digests scores through the analyzed executor (per-operator stats
# collection on) and appends a digest rollup; the report before it must
# stay byte-identical to the committed golden: the observability layer is
# strictly passive.
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 --digests > target/serve-bench-analyzed.md
golden_bytes=$(wc -c < tests/golden/serve_bench_report.md)
if ! cmp -s -n "$golden_bytes" target/serve-bench-analyzed.md tests/golden/serve_bench_report.md; then
    echo "--digests changed the serve-bench report bytes:" >&2
    diff tests/golden/serve_bench_report.md \
        <(head -c "$golden_bytes" target/serve-bench-analyzed.md) >&2 || true
    exit 1
fi

echo "==> telemetry overhead ceiling (1% head sampling, tsdb on)"
# Tracing at a production-like 1% sample rate — with per-operator ANALYZE
# stats collection AND the windowed time-series store enabled on top —
# must not meaningfully slow the serving layer. The bound is deliberately
# loose (2x + 1s slack): it catches pathological per-request overhead,
# not scheduler noise.
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

echo "==> tsdb passivity gate (report bytes unchanged with tsdb sampled/on)"
# A traced run always owns a windowed time-series store; it must never
# change a reported number. serve-bench and slo-report must match their
# goldens (recorded untraced, with no store) byte-for-byte with requests
# head-sampled and fully sampled.
for rate in 0.01 1.0; do
    $CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
        --mean-gap-ms 15 --queue 16 --trace-sample "$rate" \
        --trace target/tsdb-passivity.jsonl > target/serve-bench-tsdb.md 2>/dev/null
    if ! cmp -s target/serve-bench-tsdb.md tests/golden/serve_bench_report.md; then
        echo "serve-bench report changed under --trace-sample ${rate}:" >&2
        diff tests/golden/serve_bench_report.md target/serve-bench-tsdb.md >&2 || true
        exit 1
    fi
    $CLI slo-report --seed 7 --train 60 --dev 24 --requests 120 \
        --mean-gap-ms 15 --queue 16 --burn-alert 4 --trace-sample "$rate" \
        --trace target/tsdb-passivity.jsonl > target/slo-report-tsdb.md 2>/dev/null
    if ! cmp -s target/slo-report-tsdb.md tests/golden/slo_report.md; then
        echo "slo-report changed under --trace-sample ${rate}:" >&2
        diff tests/golden/slo_report.md target/slo-report-tsdb.md >&2 || true
        exit 1
    fi
done

echo "==> dashboard golden (byte-stable across DAIL_THREADS 1 vs 4)"
# The dashboard reads only drain-time tsdb events on the virtual clock,
# so its bytes must not depend on thread count or worker scheduling.
# Regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
DAIL_THREADS=1 $CLI serve-bench --seed 7 --train 60 --dev 24 \
    --requests 120 --mean-gap-ms 15 --queue 16 --workers 1 --trace-sample 1.0 \
    --trace target/dash-t1.jsonl >/dev/null 2>&1
DAIL_THREADS=4 $CLI serve-bench --seed 7 --train 60 --dev 24 \
    --requests 120 --mean-gap-ms 15 --queue 16 --workers 6 --trace-sample 1.0 \
    --trace target/dash-t4.jsonl >/dev/null 2>&1
$CLI dashboard target/dash-t1.jsonl > target/dashboard-t1.md
$CLI dashboard target/dash-t4.jsonl > target/dashboard-t4.md
if ! cmp -s target/dashboard-t1.md target/dashboard-t4.md; then
    echo "dashboard differs between DAIL_THREADS=1 and =4:" >&2
    diff target/dashboard-t1.md target/dashboard-t4.md >&2 || true
    exit 1
fi
if ! cmp -s target/dashboard-t1.md tests/golden/dashboard.md; then
    echo "dashboard drifted from tests/golden/dashboard.md:" >&2
    diff tests/golden/dashboard.md target/dashboard-t1.md >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> tsdb cardinality-bound trip gate (overflow series + counter fire)"
# With the series bound squeezed to 2, excess label sets must reroute to
# the __overflow__ series and the overflow counter must fire — loudly
# visible in both the dashboard and the Prometheus exposition.
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 --mean-gap-ms 15 \
    --queue 16 --tsdb-max-series 2 --trace-sample 1.0 \
    --trace target/dash-overflow.jsonl >/dev/null 2>&1
$CLI dashboard target/dash-overflow.jsonl > target/dashboard-overflow.md
if ! grep -q '__overflow__' target/dashboard-overflow.md; then
    echo "cardinality trip left no __overflow__ series in the dashboard" >&2
    exit 1
fi
if grep -q '| overflow | 0 |' target/dashboard-overflow.md; then
    echo "cardinality trip did not raise the dashboard overflow count" >&2
    exit 1
fi
$CLI metrics target/dash-overflow.jsonl > target/metrics-overflow.txt
overflow_count=$(sed -n 's/^obskit_tsdb_overflow \([0-9]*\)$/\1/p' target/metrics-overflow.txt)
if [ -z "$overflow_count" ] || [ "$overflow_count" = "0" ]; then
    echo "obskit_tsdb_overflow counter missing or zero in the exposition" >&2
    exit 1
fi
echo "    overflow observations rerouted: ${overflow_count}"

echo "==> select-bench determinism gate (byte-identical across DAIL_THREADS)"
# Selection results must not depend on the worker count: the sharded scan
# carries global indices and the k-way merge uses the same
# score-then-index ranking as a single-threaded pass. A pool above the
# 4096-row parallel threshold makes DAIL_THREADS=4 actually shard.
DAIL_THREADS=1 $CLI select-bench --pool 6000 --queries 12 --seed 11 --no-timing \
    > target/select-bench-t1.md
DAIL_THREADS=4 $CLI select-bench --pool 6000 --queries 12 --seed 11 --no-timing \
    > target/select-bench-t4.md
if ! cmp -s target/select-bench-t1.md target/select-bench-t4.md; then
    echo "select-bench report differs between DAIL_THREADS=1 and =4:" >&2
    diff target/select-bench-t1.md target/select-bench-t4.md >&2 || true
    exit 1
fi

echo "==> exact-selection checksum pin (pre-IVF golden)"
# The select-bench report above scores the pool with the exact scan; its
# selection checksum must equal the golden recorded before ANN retrieval
# existed. (The report is the same for every DAIL_THREADS, as just shown.)
if ! grep -q '0x125a29265b97d94a' target/select-bench-t1.md; then
    echo "exact selection checksum drifted from the pre-IVF golden 0x125a29265b97d94a:" >&2
    grep -i checksum target/select-bench-t1.md >&2 || true
    exit 1
fi

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

echo "==> ANN sweep determinism gate (IVF training invariant across DAIL_THREADS)"
# k-means training parallelizes the assignment step above the 4096-row
# threshold; centroid accumulation stays sequential in row order, so the
# sweep report (recall, checksums) must be byte-identical across worker
# counts. 20k rows makes DAIL_THREADS=4 actually shard the training scan.
DAIL_THREADS=1 $CLI_REL select-bench --pool-rows 20000 --queries 12 --seed 11 \
    --no-timing > target/select-sweep-t1.md 2>/dev/null
DAIL_THREADS=4 $CLI_REL select-bench --pool-rows 20000 --queries 12 --seed 11 \
    --no-timing > target/select-sweep-t4.md 2>/dev/null
if ! cmp -s target/select-sweep-t1.md target/select-sweep-t4.md; then
    echo "ANN sweep report differs between DAIL_THREADS=1 and =4:" >&2
    diff target/select-sweep-t1.md target/select-sweep-t4.md >&2 || true
    exit 1
fi

echo "==> ANN retrieval gate (1M rows: recall >= 0.99, int8 scan >= 5x exact)"
# The IVF+int8 path must hold recall@k >= 0.99 against the exact oracle at
# the default probe setting and clear a 5x throughput floor over the exact
# scan on a million-row pool. Numbers land in target/BENCH_select.json
# (one point per line: exact baseline, then ivf and ivf-int8).
$CLI_REL select-bench --pool-rows 1000000 --queries 20 --seed 2023 \
    --json target/BENCH_select.json > target/select-ann-report.md 2>/dev/null
recall_ivf=$(sed -n 's/.*"mode":"ivf",.*"recall_at_k":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
recall_int8=$(sed -n 's/.*"mode":"ivf-int8",.*"recall_at_k":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
speedup_ivf=$(sed -n 's/.*"mode":"ivf",.*"speedup_vs_exact":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
speedup_int8=$(sed -n 's/.*"mode":"ivf-int8",.*"speedup_vs_exact":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
if [ -z "$recall_ivf" ] || [ -z "$recall_int8" ] \
    || [ -z "$speedup_ivf" ] || [ -z "$speedup_int8" ]; then
    echo "could not parse ANN metrics from target/BENCH_select.json" >&2
    cat target/BENCH_select.json >&2
    exit 1
fi
if ! awk -v a="$recall_ivf" -v b="$recall_int8" 'BEGIN { exit !(a >= 0.99 && b >= 0.99) }'; then
    echo "ANN recall below floor 0.99: ivf=${recall_ivf} ivf-int8=${recall_int8}" >&2
    cat target/select-ann-report.md >&2
    exit 1
fi
if ! awk -v a="$speedup_ivf" -v b="$speedup_int8" 'BEGIN { exit !(a >= 5.0 && b >= 5.0) }'; then
    echo "ANN speedup below floor 5.0x: ivf=${speedup_ivf}x ivf-int8=${speedup_int8}x" >&2
    cat target/select-ann-report.md >&2
    exit 1
fi
echo "    1M-row recall@k: ivf ${recall_ivf}, ivf-int8 ${recall_int8}"
echo "    1M-row speedup vs exact: ivf ${speedup_ivf}x, ivf-int8 ${speedup_int8}x"

echo "==> columnar executor: differential oracle gate"
# Every gold query must produce bit-identical results through the columnar
# engine and the reference interpreter, under both join strategies
# (exec-diff exits 1 on any divergence).
$CLI exec-diff --train 60 --dev 24 >/dev/null

echo "==> columnar executor: step-change perf gate"
# Trace the same fixed workload through both engines and require the
# INVERTED profile gate to flag the oracle run as a regression against the
# columnar baseline: if `profile --fail-on-regress 25` passes here, the
# rebuilt executor is no longer meaningfully faster than the interpreter
# it replaced. Engines must also agree on every workload row count.
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
if $CLI_REL profile target/exec-columnar.jsonl target/exec-oracle.jsonl \
    --fail-on-regress 25 >/dev/null 2>&1; then
    echo "columnar executor is not a step-change over the oracle interpreter" >&2
    echo "(storage.exec self-time vs --engine oracle is within 25%)" >&2
    exit 1
fi

echo "==> kill-and-recover determinism gate (crash-injected persist)"
# Persist the golden benchmark's databases to disk with a crash injected
# mid-commit (the process must die, not error out cleanly), recover the
# torn store, resume persistence, and serve the golden load from disk.
# The report must be byte-identical to the committed golden: a crash plus
# recovery may not change a single result bit.
rm -rf target/crash-store
# (the nested bash keeps its own "Aborted" job notice off our stderr; the
# trailing exit stops it exec-ing persist directly and dying by the signal)
rc=0
bash -c "$CLI_REL persist --seed 7 --train 60 --dev 24 --out target/crash-store \
    --crash-at mid-commit@2; exit \$?" >/dev/null 2>&1 || rc=$?
if [ "$rc" -le 128 ]; then
    echo "crash injector did not fire: persist exited ${rc}, not by a signal" >&2
    exit 1
fi
$CLI_REL recover target/crash-store >/dev/null
$CLI_REL persist --seed 7 --train 60 --dev 24 --out target/crash-store --resume >/dev/null
$CLI_REL recover target/crash-store --verify >/dev/null
$CLI_REL serve-bench --store target/crash-store --seed 7 --train 60 --dev 24 \
    --requests 120 --mean-gap-ms 15 --queue 16 > target/serve-bench-recovered.md
if ! cmp -s target/serve-bench-recovered.md tests/golden/serve_bench_report.md; then
    echo "serve-bench from a crash-recovered store drifted from the golden:" >&2
    diff tests/golden/serve_bench_report.md target/serve-bench-recovered.md >&2 || true
    exit 1
fi

echo "==> recover/exec-diff exit-code contract (2 = usage/missing input)"
# Missing or unreadable inputs are caller errors (exit 2), distinct from
# corruption findings (exit 1).
set +e
$CLI_REL recover target/definitely-not-a-store >/dev/null 2>&1
rc_recover=$?
$CLI_REL exec-diff --corpus target/definitely-not-a-corpus.sql >/dev/null 2>&1
rc_corpus=$?
set -e
if [ "$rc_recover" != "2" ] || [ "$rc_corpus" != "2" ]; then
    echo "expected exit 2 for missing inputs, got recover=${rc_recover} exec-diff=${rc_corpus}" >&2
    exit 1
fi

echo "==> exec-diff corpus replay (committed edge-case statements)"
# Every committed regression statement must execute bit-identically through
# the columnar engine and the oracle under both join strategies.
for corpus in tests/golden/exec_diff/*.sql; do
    $CLI exec-diff --corpus "$corpus" >/dev/null
done

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

echo "==> LIKE pathology timing guard"
# The iterative LIKE matcher must answer adversarial many-% patterns
# quickly; the old recursive matcher effectively hung here. 60s is a hard
# backstop (the tests assert tighter bounds internally).
timeout 60 cargo test -q --offline -p storage pathological >/dev/null || {
    echo "pathological LIKE patterns no longer complete in bounded time" >&2
    exit 1
}

echo "all checks passed"
