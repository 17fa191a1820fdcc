#!/usr/bin/env bash
# Sanitizer + optimized-build gate for the test suite.
#
# Builds three variants and runs the full ctest suite in each:
#   build-tsan    — ThreadSanitizer (data races in the sweep engine)
#   build-asan    — AddressSanitizer + UndefinedBehaviorSanitizer
#   build-release — Release (-O2 -DNDEBUG): the configuration the
#                   microbenchmarks measure, so the optimized build is
#                   also the one tests cover (and the allocation-
#                   counting tests run un-sanitized here)
#
# A trace-validation step follows: a small scenario is run with
# --trace-out/--metrics-out/--audit-out under the asan build and the
# produced files are checked structurally with trace-validate (valid
# JSON, monotone spans, resolvable flow ids, decision events present,
# audit records consistent with their summary, and the decision log
# cross-checked: per kind, decision instants == decision.<kind>_total
# counter). Then trace-diff
# replays the pinned golden Fig. 11 scenario and gates its latency and
# prediction numbers against tests/golden/fig11_trace.json.
#
# The sharded engine gets two dedicated legs: the TSan build drives a
# multi-group run through the worker pool (races in the drawn-ahead
# spray hand-off, mailbox drains and sync-window barriers), and the
# Release build writes every artifact at
# --shards 1 and --shards 8 and cmp's them byte-for-byte — the
# determinism contract from docs/PERFORMANCE.md. Both repeat with the
# cluster power arbiter on (docs/ARCHITECTURE.md), and a gated
# bench/fleet smoke demands the arbiter strictly beat the static
# equal split at the same global cap.
#
# Finally the Release build runs the micro_core benchmark suite and
# gates it against the checked-in BENCH_*.json perf trajectory
# (tools/bench_gate.py). The gate is enforced: any benchmark slower
# than the recorded numbers by more than PC_BENCH_TOLERANCE (default
# 1.15x) fails the build. On a machine unlike the one that recorded
# the baseline, set PC_BENCH_TOLERANCE higher or to a huge value to
# make the leg informational again.
#
# Usage: tools/check.sh [jobs]   (defaults to all hardware threads)
set -euo pipefail
cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run_variant() {
    local name="$1" type="$2" flags="$3"
    echo "=== ${name} (${type} ${flags}) ==="
    cmake -B "build-${name}" -S . \
        -DCMAKE_BUILD_TYPE="${type}" \
        -DCMAKE_CXX_FLAGS="${flags}" >/dev/null
    cmake --build "build-${name}" -j "${jobs}"
    ctest --test-dir "build-${name}" --output-on-failure -j "${jobs}"
}

run_variant tsan RelWithDebInfo "-fsanitize=thread -g"
run_variant asan RelWithDebInfo \
    "-fsanitize=address,undefined -fno-sanitize-recover=all -g"
run_variant release Release ""

echo "=== sharded engine under TSan ==="
# The mega scenario's workload through the real worker pool: spray
# chunks drawn on one worker and read on another, the bounded-skew
# waits and the merge paths all execute under ThreadSanitizer.
# Oversubscribed (4 groups, 4 workers on however few cores this
# machine has) on purpose — preemption points shake out ordering races
# that a matched worker count can hide. The duration is TSan-sized;
# bench/mega_scenario runs the full shape.
./build-tsan/tools/powerchief-cli \
    --workload=microservice --policy=powerchief --load=high \
    --duration=60 --seed=3 \
    --node-groups=4 --shards=4 --remote-fraction=0.2 >/dev/null
# Same shape with the cluster arbiter on: report/grant traffic rides
# the double-buffered mailboxes of the scheduled sync windows, so the
# arbiter's rebalance rounds and the nodes' cap retargets all execute
# under TSan too.
./build-tsan/tools/powerchief-cli \
    --workload=microservice --policy=powerchief --load=high \
    --duration=60 --seed=3 \
    --node-groups=4 --shards=4 --remote-fraction=0.2 \
    --cluster-policy=proportional --rebalance-interval=2 >/dev/null

echo "=== trace validation ==="
# Passing --trace and --metrics of one single-node run together also
# cross-checks the two views of the decision log, kind by kind.
tracedir="$(mktemp -d)"
trap 'rm -rf "${tracedir}"' EXIT
./build-asan/tools/powerchief-cli \
    --workload=sirius --policy=powerchief --load=high \
    --duration=300 --seed=3 \
    --trace-out="${tracedir}/run.json" \
    --metrics-out="${tracedir}/run.metrics.json" \
    --audit-out="${tracedir}/run.audit.json" >/dev/null
./build-asan/tools/trace-validate \
    --trace="${tracedir}/run.json" \
    --metrics="${tracedir}/run.metrics.json" \
    --audit="${tracedir}/run.audit.json" \
    --require-spans --require-decisions --require-audit-records

echo "=== sharded determinism (release, --shards 1 vs 8) ==="
# The determinism contract (docs/PERFORMANCE.md): every artifact a
# sharded run writes must be byte-identical at any worker count. The
# Release build — the one with real instruction reordering — writes
# the full artifact set at --shards 1 and --shards 8 and cmp's them,
# then trace-validate checks the sharded envelopes structurally.
for s in 1 8; do
    mkdir -p "${tracedir}/sh${s}"
    ./build-release/tools/powerchief-cli \
        --workload=sirius --policy=powerchief --load=high \
        --duration=120 --seed=3 --slo --alerts \
        --node-groups=4 --shards="${s}" --remote-fraction=0.2 \
        --trace-out="${tracedir}/sh${s}/run.trace.json" \
        --metrics-out="${tracedir}/sh${s}/run.metrics.json" \
        --audit-out="${tracedir}/sh${s}/run.audit.json" \
        --timeseries-out="${tracedir}/sh${s}/run.ts.json" \
        --critpath-out="${tracedir}/sh${s}/run.critpath.json" >/dev/null
done
diff -r "${tracedir}/sh1" "${tracedir}/sh8"
./build-release/tools/trace-validate \
    --trace="${tracedir}/sh1/run.trace.json" \
    --metrics="${tracedir}/sh1/run.metrics.json" \
    --audit="${tracedir}/sh1/run.audit.json" \
    --timeseries="${tracedir}/sh1/run.ts.json" \
    --require-spans
./build-release/tools/trace-validate \
    --critpath="${tracedir}/sh1/run.critpath.json"

echo "=== cluster determinism (release, --shards 1 vs 8) ==="
# The same contract with the budget tree live: the arbiter's grants
# must not depend on worker scheduling. The timeseries envelope now
# carries the "cluster" summary, which trace-validate checks —
# including that the assumed per-node bounds conserve the fleet cap.
for s in 1 8; do
    mkdir -p "${tracedir}/cl${s}"
    ./build-release/tools/powerchief-cli \
        --workload=microservice --policy=powerchief --load=high \
        --duration=120 --seed=3 --slo --alerts \
        --node-groups=4 --shards="${s}" --remote-fraction=0.2 \
        --cluster-policy=proportional --rebalance-interval=2 \
        --audit-out="${tracedir}/cl${s}/run.audit.json" \
        --timeseries-out="${tracedir}/cl${s}/run.ts.json" >/dev/null
done
diff -r "${tracedir}/cl1" "${tracedir}/cl8"
./build-release/tools/trace-validate \
    --audit="${tracedir}/cl1/run.audit.json" \
    --timeseries="${tracedir}/cl1/run.ts.json"
python3 tools/report_html.py --check "${tracedir}/cl1/run.ts.json"

echo "=== timeseries + dashboard validation ==="
# The same scenario with per-interval sampling, anomaly detection and
# SLO tracking on: trace-validate checks the delta-encoded dump and
# the obs.alert audit records; the OpenMetrics exposition goes through
# the linter; report_html renders the dump (self-test + real input).
./build-asan/tools/powerchief-cli \
    --workload=sirius --policy=powerchief --load=high \
    --duration=300 --seed=3 --slo --alerts \
    --timeseries-out="${tracedir}/run.ts.json" \
    --audit-out="${tracedir}/run.ts.audit.json" >/dev/null
./build-asan/tools/trace-validate \
    --timeseries="${tracedir}/run.ts.json" \
    --audit="${tracedir}/run.ts.audit.json"
./build-asan/tools/powerchief-cli \
    --workload=sirius --policy=powerchief --load=high \
    --duration=300 --seed=3 \
    --metrics-format=openmetrics \
    --timeseries-out="${tracedir}/run.om" >/dev/null
python3 tools/openmetrics_lint.py "${tracedir}/run.om"
python3 tools/report_html.py --check "${tracedir}/run.ts.json"
python3 tools/report_html.py "${tracedir}/run.ts.json" \
    --out="${tracedir}/dashboard.html" >/dev/null

echo "=== critical-path validation (jobs byte-identity) ==="
# The --critpath-out dump must be byte-identical at any --jobs value,
# clean and lossy (docs/OBSERVABILITY.md). A two-seed sweep forces the
# parallel path; the lossy variant adds message drops, a mid-run crash
# and flaky telemetry so wasted/re-dispatch segments are exercised.
cat > "${tracedir}/lossy.json" <<'EOF'
{
  "seed": 18,
  "bus": [{"drop": 0.03, "reorder": 0.1, "reorder_jitter_ms": 5}],
  "crashes": [{"stage": 1, "at_sec": 120, "recovery_sec": 20}],
  "telemetry": {"stale": 0.1, "truncate": 0.05, "perf_ctl_fail": 0.2}
}
EOF
for variant in clean lossy; do
    fault_flag=""
    if [[ "${variant}" == lossy ]]; then
        fault_flag="--faults=${tracedir}/lossy.json"
    fi
    for j in 1 3; do
        mkdir -p "${tracedir}/cp-${variant}-j${j}"
        ./build-asan/tools/powerchief-cli \
            --workload=sirius --policy=powerchief --load=high \
            --duration=300 --seeds=3,4 --jobs="${j}" \
            ${fault_flag} \
            --critpath-out="${tracedir}/cp-${variant}-j${j}/run.critpath.json" \
            >/dev/null
    done
    diff -r "${tracedir}/cp-${variant}-j1" "${tracedir}/cp-${variant}-j3"
    for f in "${tracedir}/cp-${variant}-j1"/*.json; do
        ./build-asan/tools/trace-validate --critpath="${f}"
    done
done
python3 tools/report_html.py --check \
    "${tracedir}/cp-lossy-j1"/*.json
python3 tools/report_html.py "${tracedir}/run.ts.json" \
    "${tracedir}/cp-lossy-j1" \
    --out="${tracedir}/dashboard-critpath.html" >/dev/null

echo "=== golden trace diff ==="
./build-asan/tools/trace-diff \
    --baseline=tests/golden/fig11_trace.json --fresh-fig11
./build-asan/tools/trace-diff \
    --baseline=tests/golden/fastcap_fig11_trace.json \
    --fresh-golden=fastcap
./build-asan/tools/trace-diff \
    --baseline=tests/golden/cuttlesys_fig11_trace.json \
    --fresh-golden=cuttlesys

echo "=== policy arena smoke (asan, --jobs 1 vs ${jobs}) ==="
# A one-cell matrix over the arena's policy roster, simulated twice, at
# --jobs 1 and at --jobs ${jobs}: the two reports must be byte-identical
# (docs/POLICIES.md).
for j in 1 "${jobs}"; do
    ./build-asan/bench/arena --jobs "${j}" \
        --workloads=sirius --loads=high --budgets=13.56 \
        --duration-sec=60 --out="${tracedir}/arena-j${j}.json" >/dev/null
done
cmp "${tracedir}/arena-j1.json" "${tracedir}/arena-j${jobs}.json"
python3 tools/arena_report.py --check "${tracedir}/arena-j1.json"

echo "=== fleet arena smoke (release, --jobs 1 vs ${jobs}, gated) ==="
# The cluster layer's acceptance bar (docs/ARCHITECTURE.md): at the
# same global cap, the demand-proportional arbiter must strictly beat
# the static cap/N split on fleet p99 AND SLO-violation-seconds in
# every fabric, clean and lossy. Simulated twice, at --jobs 1 and at
# --jobs ${jobs}: both passes are gated and their reports must be
# byte-identical.
for j in 1 "${jobs}"; do
    ./build-release/bench/fleet --jobs "${j}" \
        --duration-sec=60 --out="${tracedir}/fleet-j${j}.json" >/dev/null
done
cmp "${tracedir}/fleet-j1.json" "${tracedir}/fleet-j${jobs}.json"
# Every cluster policy must earn its row: no two may tie in a fabric
# unless tools/arena_report.py states why.
python3 tools/arena_report.py --check --distinct "${tracedir}/fleet-j1.json"

echo "=== chaos sweep (fault-matrix invariants, asan) ==="
# Drops, duplicates, reordering, crashes, stale/truncated telemetry,
# RAPL and PERF_CTL faults. The runner aborts on any query-conservation
# or budget-ledger violation; --audit re-runs sampled points
# single-threaded and fails on any divergence from the parallel pass.
./build-asan/bench/chaos_sweep --jobs "${jobs}" --audit

echo "=== perf gate (enforced, tolerance ${PC_BENCH_TOLERANCE:-1.15}x) ==="
latest_bench="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
if [[ -n "${latest_bench}" ]]; then
    ./build-release/bench/micro_core \
        --benchmark_filter='BM_Simulator|BM_EndToEnd' \
        --benchmark_format=json \
        --benchmark_out="${tracedir}/bench.json" >/dev/null
    python3 tools/bench_gate.py --run "${tracedir}/bench.json" \
        --baseline "${latest_bench}" \
        --max-regression "${PC_BENCH_TOLERANCE:-1.15}"
else
    echo "no BENCH_*.json checked in; skipping"
fi

echo "All sanitizer variants, the Release leg, the sharded TSan and"
echo "shards-1-vs-8 byte-identity legs (cluster arbiter included),"
echo "trace validation, the timeseries/dashboard checks, the"
echo "critical-path byte-identity legs, the golden trace diffs, the"
echo "policy-arena smoke, the gated fleet-arena smoke, the chaos"
echo "sweep and the enforced perf gate passed."
