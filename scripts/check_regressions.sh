#!/usr/bin/env bash
# Telemetry regression smoke: run bench_parallel_speedup,
# bench_fig02_downlink_gap, the bench_fig10 mission sweep,
# bench_ml_kernels, bench_dataplane, the bench_constellation smoke
# + golden long-horizon fixture (100 satellites x 30 days), and the
# bench_health degraded-fleet guard with the metrics snapshot + flight
# recorder + time series enabled, then feed the outputs to
# `kodan-report diff` against the committed baselines in
# bench/baselines/ (each call passes baseline/current pairs; the type of
# each pair — metrics, journal, time series, alerts, profile — comes
# from its document). Non-zero exit on
# regression (including any ML-kernel Blocked-vs-Naive bit mismatch, a
# constellation-engine thread-divergence under --verify, a miss of the
# constellation throughput floor under --assert-throughput, a
# staged-vs-batch report mismatch or steady-state heap allocation in
# bench_dataplane, and any health-plane alert divergence, missed
# detection, or overhead-budget breach, all of which fail the bench
# itself). bench_prof --verify guards the CPU profiling plane's
# determinism contract (byte-identical journal/series/metrics with
# profiling on vs off at 1/4/16 threads) and its overhead ceiling, and
# the bench_dataplane run also captures a profile whose span table —
# exact call counts per instrumented span — is diffed against
# bench/baselines/prof.spans.json (span costs get a huge tolerance;
# they measure this machine). Each deterministic export — the fig02 and
# constellation journals, the fig10/constellation/golden time series,
# and the health alerts — is also `cmp`-ed byte for byte against its
# baseline right after the bench that writes it: `kodan-report diff`
# compares parsed values, so a formatting change alone would pass it.
#
# Usage:
#   scripts/check_regressions.sh [--build-dir DIR] [--rebaseline]
#
# --rebaseline regenerates bench/baselines/ from the current build
# instead of diffing.
#
# Baseline caveat: the committed baselines are toolchain-pinned. Counters,
# gauges, journals, and time series are bit-deterministic for a given
# toolchain (gauge sums accumulate in 128-bit fixed point, so the bytes
# do not depend on thread count or merge order), but libm transcendentals
# may differ across platforms and shift readings. The diff therefore
# guards *behavior* (counters, gauges, journal event streams, sim-time
# series) bit-exactly, while timers get a huge tolerance (they measure
# this machine, not the baseline machine). After a legitimate behavior or
# toolchain change, rerun with --rebaseline and commit the result.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${KODAN_BUILD_DIR:-$REPO_ROOT/build}"
REBASELINE=0

while [[ $# -gt 0 ]]; do
    case "$1" in
      --build-dir)
        BUILD_DIR="$2"
        shift 2
        ;;
      --rebaseline)
        REBASELINE=1
        shift
        ;;
      *)
        echo "unknown argument: $1" >&2
        exit 2
        ;;
    esac
done

BASELINES="$REPO_ROOT/bench/baselines"
REPORT="$BUILD_DIR/tools/kodan-report"
SPEEDUP_BENCH="$BUILD_DIR/bench/bench_parallel_speedup"
FIG02_BENCH="$BUILD_DIR/bench/bench_fig02_downlink_gap"
FIG10_BENCH="$BUILD_DIR/bench/bench_fig10_dvd_vs_time"
MLKERN_BENCH="$BUILD_DIR/bench/bench_ml_kernels"
DATAPLANE_BENCH="$BUILD_DIR/bench/bench_dataplane"
CONSTEL_BENCH="$BUILD_DIR/bench/bench_constellation"
HEALTH_BENCH="$BUILD_DIR/bench/bench_health"
PROF_BENCH="$BUILD_DIR/bench/bench_prof"

for binary in "$REPORT" "$SPEEDUP_BENCH" "$FIG02_BENCH" "$FIG10_BENCH" \
              "$MLKERN_BENCH" "$DATAPLANE_BENCH" "$CONSTEL_BENCH" \
              "$HEALTH_BENCH" "$PROF_BENCH"; do
    if [[ ! -x "$binary" ]]; then
        echo "missing binary: $binary (build the repo first)" >&2
        exit 2
    fi
done

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

STATUS=0

# A bench that exits non-zero marks the run failed without ending it,
# so every later bench, diff, and cmp still runs and reports (a bench
# that wrote no output then fails its diff as well).
bench_failed() {
    echo "[check_regressions] $1 exited non-zero" >&2
    STATUS=1
}

# Byte-exact guard for one deterministic export (skipped under
# --rebaseline, which regenerates the baselines).
cmp_baseline() {
    local name="$1"
    if [[ "$REBASELINE" -eq 0 ]] &&
       ! cmp "$BASELINES/$name" "$WORKDIR/$name"; then
        echo "[check_regressions] $name is not byte-identical to" \
             "its baseline" >&2
        STATUS=1
    fi
}

echo "[check_regressions] running bench_fig02_downlink_gap ..."
(cd "$WORKDIR" && "$FIG02_BENCH" \
    --telemetry-out "$WORKDIR/fig02_downlink_gap.metrics.json" \
    --journal-out "$WORKDIR/fig02_downlink_gap.journal.jsonl" \
    > /dev/null) || bench_failed bench_fig02_downlink_gap
cmp_baseline fig02_downlink_gap.journal.jsonl

echo "[check_regressions] running bench_parallel_speedup ..."
(cd "$WORKDIR" && "$SPEEDUP_BENCH" \
    --telemetry-out "$WORKDIR/parallel_speedup.metrics.json" \
    > /dev/null) || bench_failed bench_parallel_speedup

echo "[check_regressions] running bench_fig10 mission sweep ..."
(cd "$WORKDIR" && "$FIG10_BENCH" --mission-only \
    --telemetry-out "$WORKDIR/fig10_mission.metrics.json" \
    > /dev/null) || bench_failed bench_fig10_dvd_vs_time
cmp_baseline fig10_mission.metrics.timeseries.json

# bench_ml_kernels exits non-zero on any Blocked-vs-Naive bit mismatch,
# so this run is the kernel-correctness smoke as well as the perf probe;
# no --assert-speedup here because the diff's timers already tolerate
# machine noise (only scripts/ci.sh's native pass asserts the floors).
echo "[check_regressions] running bench_ml_kernels ..."
(cd "$WORKDIR" && "$MLKERN_BENCH" \
    --telemetry-out "$WORKDIR/ml_kernels.metrics.json" \
    > /dev/null) || bench_failed bench_ml_kernels

# bench_dataplane exits non-zero if any staged configuration's report
# diverges from the batch path (bit-identity) or the steady-state
# allocation guard counts a heap allocation, so this run is the data
# plane's correctness smoke as well as the perf probe; no
# --assert-speedup here for the same reason as ml_kernels above.
# --profile-out arms the CPU profiling plane for this run; its span
# table (exact per-span call counts) is diffed against the committed
# prof.spans.json below. Safe inside the bench's steady-state
# allocation guard: span sites register (and allocate) on first hit,
# during warmup. The run goes through the int8 inference path
# (KODAN_QUANT=int8) so the committed span table covers
# ml.kernels.gemm_i8 and the staged-vs-batch bit-identity check
# exercises the quantized kernels; the int8 path is likewise
# allocation-free at steady state (scratch-arena workspaces, weights
# packed at construction).
echo "[check_regressions] running bench_dataplane (KODAN_QUANT=int8) ..."
(cd "$WORKDIR" && KODAN_QUANT=int8 "$DATAPLANE_BENCH" \
    --telemetry-out "$WORKDIR/dataplane.metrics.json" \
    --profile-out "$WORKDIR/dataplane.prof.json" \
    > /dev/null) || bench_failed bench_dataplane

# Constellation engine smoke: small scenario with the full recording
# stack (metrics + journal + time series) for the bit-exact baseline
# diff, plus --verify (reruns a scaled scenario at 1/4/16 threads and
# fails on any bit divergence).
echo "[check_regressions] running bench_constellation smoke ..."
(cd "$WORKDIR" && "$CONSTEL_BENCH" \
    --sats 8 --days 1 --planes 4 --stations landsat --scan-step 60 \
    --verify \
    --telemetry-out "$WORKDIR/constellation.metrics.json" \
    --journal-out "$WORKDIR/constellation.journal.jsonl" \
    > /dev/null) || bench_failed "bench_constellation smoke"
cmp_baseline constellation.journal.jsonl
cmp_baseline constellation.metrics.timeseries.json

# Golden long-horizon fixture: 100 satellites over 30 simulated days
# (the memory-flat streaming path: 30 one-day chunks). The committed
# per-bin series pin the mission-scale totals — frames, downlinked
# bits, DVD, contact utilization — against drift; the throughput floor
# guards the engine's sat-days-per-second rate at mission scale.
echo "[check_regressions] running bench_constellation golden (100 sats x 30 days) ..."
(cd "$WORKDIR" && "$CONSTEL_BENCH" \
    --sats 100 --days 30 --planes 5 --stations landsat --bin-hours 6 \
    --assert-throughput 150 \
    --telemetry-out "$WORKDIR/constellation_golden.metrics.json" \
    > /dev/null) || bench_failed "bench_constellation golden"
cmp_baseline constellation_golden.metrics.timeseries.json

# Fleet health plane guard: --verify byte-compares the degraded
# scenario's alert JSONL at 1/4/16 threads, checks the injected fault
# fires exactly the expected alerts, and asserts the health fold's
# self-timed overhead budget — any of which fails the bench itself.
# The exported alerts are then diffed bit-exactly against the committed
# baseline below.
echo "[check_regressions] running bench_health ..."
(cd "$WORKDIR" && "$HEALTH_BENCH" --verify \
    --telemetry-out "$WORKDIR/health.metrics.json" \
    --alerts-out "$WORKDIR/health.alerts.jsonl" \
    > /dev/null) || bench_failed bench_health
cmp_baseline health.alerts.jsonl

# CPU profiling plane guard: byte-identical journal/series/metrics with
# profiling on vs off at 1/4/16 threads, plus the sampling overhead
# ceiling — bench_prof exits non-zero on any violation.
echo "[check_regressions] running bench_prof --verify ..."
(cd "$WORKDIR" && "$PROF_BENCH" --verify > /dev/null) ||
    bench_failed bench_prof

if [[ "$REBASELINE" -eq 1 ]]; then
    if [[ "$STATUS" -ne 0 ]]; then
        echo "[check_regressions] a bench failed; baselines left as" \
             "they are" >&2
        exit 1
    fi
    mkdir -p "$BASELINES"
    cp "$WORKDIR/fig02_downlink_gap.metrics.json" \
       "$WORKDIR/fig02_downlink_gap.journal.jsonl" \
       "$WORKDIR/parallel_speedup.metrics.json" \
       "$WORKDIR/fig10_mission.metrics.json" \
       "$WORKDIR/fig10_mission.metrics.timeseries.json" \
       "$WORKDIR/ml_kernels.metrics.json" \
       "$WORKDIR/dataplane.metrics.json" \
       "$WORKDIR/constellation.metrics.json" \
       "$WORKDIR/constellation.metrics.timeseries.json" \
       "$WORKDIR/constellation.journal.jsonl" \
       "$WORKDIR/constellation_golden.metrics.json" \
       "$WORKDIR/constellation_golden.metrics.timeseries.json" \
       "$WORKDIR/health.metrics.json" \
       "$WORKDIR/health.metrics.timeseries.json" \
       "$WORKDIR/health.alerts.jsonl" \
       "$BASELINES/"
    # Despite the name, this is a full profile document; only its span
    # table is asserted by the diff below (frames are machine-shaped).
    cp "$WORKDIR/dataplane.prof.json" "$BASELINES/prof.spans.json"
    echo "[check_regressions] baselines rebaselined in $BASELINES"
    exit 0
fi

# Timers measure this machine, not the baseline machine: tolerate 100x.
# Everything else — counters, gauges, the journal event stream, and the
# sim-time series — is bit-deterministic (gauge and histogram sums
# accumulate in 128-bit fixed point), so values diff exactly.
echo "[check_regressions] diffing fig02_downlink_gap against baseline ..."
"$REPORT" diff \
    "$BASELINES/fig02_downlink_gap.metrics.json" \
    "$WORKDIR/fig02_downlink_gap.metrics.json" \
    "$BASELINES/fig02_downlink_gap.journal.jsonl" \
    "$WORKDIR/fig02_downlink_gap.journal.jsonl" \
    --tol-timer 100 || STATUS=1

echo "[check_regressions] diffing parallel_speedup against baseline ..."
"$REPORT" diff \
    "$BASELINES/parallel_speedup.metrics.json" \
    "$WORKDIR/parallel_speedup.metrics.json" \
    --tol-timer 100 || STATUS=1

# Ratio gauges (speedup, GFLOP/s) measure this machine and vary with
# load, so they are not diffed; the deterministic counters/histograms and the bench's own bit-identity
# exit code are the correctness guard.
echo "[check_regressions] diffing ml_kernels against baseline ..."
"$REPORT" diff \
    "$BASELINES/ml_kernels.metrics.json" \
    "$WORKDIR/ml_kernels.metrics.json" \
    --ignore bench.ml_kernels.ratio \
    --tol-timer 100 || STATUS=1

echo "[check_regressions] diffing dataplane against baseline ..."
"$REPORT" diff \
    "$BASELINES/dataplane.metrics.json" \
    "$WORKDIR/dataplane.metrics.json" \
    --ignore bench.dataplane.ratio \
    --tol-timer 100 || STATUS=1

echo "[check_regressions] diffing fig10 mission series against baseline ..."
"$REPORT" diff \
    "$BASELINES/fig10_mission.metrics.json" \
    "$WORKDIR/fig10_mission.metrics.json" \
    "$BASELINES/fig10_mission.metrics.timeseries.json" \
    "$WORKDIR/fig10_mission.metrics.timeseries.json" \
    --tol-timer 100 || STATUS=1

echo "[check_regressions] diffing constellation smoke against baseline ..."
"$REPORT" diff \
    "$BASELINES/constellation.metrics.json" \
    "$WORKDIR/constellation.metrics.json" \
    "$BASELINES/constellation.journal.jsonl" \
    "$WORKDIR/constellation.journal.jsonl" \
    "$BASELINES/constellation.metrics.timeseries.json" \
    "$WORKDIR/constellation.metrics.timeseries.json" \
    --tol-timer 100 || STATUS=1

echo "[check_regressions] diffing constellation golden against baseline ..."
"$REPORT" diff \
    "$BASELINES/constellation_golden.metrics.json" \
    "$WORKDIR/constellation_golden.metrics.json" \
    "$BASELINES/constellation_golden.metrics.timeseries.json" \
    "$WORKDIR/constellation_golden.metrics.timeseries.json" \
    --tol-timer 100 || STATUS=1

# Span call counts are deterministic and diff exactly (--tol-value 0
# default); span task-clock measures this machine, so like the timers
# above it tolerates 100x (--tol-timer covers both).
echo "[check_regressions] diffing dataplane profile spans against baseline ..."
"$REPORT" diff \
    "$BASELINES/prof.spans.json" \
    "$WORKDIR/dataplane.prof.json" \
    --tol-timer 100 > /dev/null || STATUS=1

echo "[check_regressions] diffing health metrics + alerts against baseline ..."
"$REPORT" diff \
    "$BASELINES/health.metrics.json" \
    "$WORKDIR/health.metrics.json" \
    "$BASELINES/health.metrics.timeseries.json" \
    "$WORKDIR/health.metrics.timeseries.json" \
    --tol-timer 100 || STATUS=1
"$REPORT" diff \
    "$BASELINES/health.alerts.jsonl" \
    "$WORKDIR/health.alerts.jsonl" > /dev/null || STATUS=1

if [[ "$STATUS" -ne 0 ]]; then
    echo "[check_regressions] REGRESSION detected (see report above);" \
         "if intended, rerun with --rebaseline and commit." >&2
else
    echo "[check_regressions] no regressions against committed baselines."
fi
exit "$STATUS"
