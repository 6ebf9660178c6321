#!/usr/bin/env bash
# Full CI sweep: tier-1 build + complete ctest run, then the
# concurrency/observability-labeled suites again under ThreadSanitizer
# and AddressSanitizer builds. Mirrors what the regression driver runs,
# so a green ci.sh locally means the PR gates should pass.
#
# Usage:
#   scripts/ci.sh [--jobs N] [--skip-sanitizers]
#
# Build trees:
#   build/           default flags (tier-1)
#   build-tsan/      -DKODAN_SANITIZE=thread   (bench/examples off)
#   build-asan/      -DKODAN_SANITIZE=address  (bench/examples off)
#   build-ubsan/     -DKODAN_SANITIZE=undefined (bench/examples off)
#   build-native/    -DKODAN_NATIVE=ON         (mlkernels suite only)
#   build-portable/  -U__SSE2__                (data and core suites only)
#
# The sanitizer passes rerun only the labeled suites — determinism,
# telemetry, journal, report, time-series, and data-plane tests —
# because those are the ones that exercise cross-thread merges, the
# data plane's concurrent lanes, and the recorder hot paths. The
# `loader` label (test_failures) rides along for AddressSanitizer: its
# death tests feed the on-disk loaders malformed input, and ASan
# reports any out-of-bounds access that input provokes before the
# loader dies. Its forked death tests run clean under ThreadSanitizer
# too, so both passes run it. The `data` label (test_data) holds the
# tiler's bit-identity oracles, whose frame reads ASan checks.
#
# The UndefinedBehaviorSanitizer pass (with float-cast-overflow) reruns
# the frame path — tiler (`data`), runtime and core (`core`), data plane
# (`dataplane`) — the loaders (`loader`), the mission engine with the
# scheduler oracle and its scenario death tests (`constellation`), and
# the kodan-report reader, diff and CLIs (`report`), in fp64 and under
# KODAN_QUANT=int8.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_SANITIZERS=0

while [[ $# -gt 0 ]]; do
    case "$1" in
      --jobs)
        JOBS="$2"
        shift 2
        ;;
      --skip-sanitizers)
        SKIP_SANITIZERS=1
        shift
        ;;
      *)
        echo "unknown argument: $1" >&2
        exit 2
        ;;
    esac
done

# ctest ANDs repeated -L flags, so the label filter must be one regex.
LABELS='parallel|telemetry|journal|report|timeseries|mlkernels|constellation|dataplane|health|prof|loader|data'
UBSAN_LABELS='data|dataplane|core|loader|constellation|report'

echo "[ci] tier-1: configure + build + full ctest (jobs=$JOBS)"
cmake -B "$REPO_ROOT/build" -S "$REPO_ROOT"
cmake --build "$REPO_ROOT/build" -j "$JOBS"
(cd "$REPO_ROOT/build" && ctest --output-on-failure -j "$JOBS")

if [[ "$SKIP_SANITIZERS" -eq 1 ]]; then
    echo "[ci] sanitizers skipped (--skip-sanitizers)"
    echo "[ci] OK"
    exit 0
fi

# Suites whose dispatch changes under the int8 precision knob: the
# kernel equivalence grid itself plus the runtime/data-plane paths that
# route inference through the quantized siblings, and the core suite,
# whose runtime cost accounting follows the active precision. Rerun under
# KODAN_QUANT=int8 so the integer kernels' concurrency (scratch arenas,
# packed-weight sharing, concurrent data-plane lanes) gets the same
# sanitizer coverage as the fp64 path.
QUANT_LABELS='mlkernels|dataplane|parallel|core'

sanitized_pass() {
    local kind="$1" dir="$2" labels="$3" quant_labels="$4"
    echo "[ci] ${kind}-sanitizer: configure + build + labeled ctest"
    cmake -B "$dir" -S "$REPO_ROOT" \
        -DKODAN_SANITIZE="$kind" \
        -DKODAN_BUILD_BENCH=OFF \
        -DKODAN_BUILD_EXAMPLES=OFF
    cmake --build "$dir" -j "$JOBS"
    (cd "$dir" && ctest --output-on-failure -j "$JOBS" -L "$labels")
    echo "[ci] ${kind}-sanitizer: quant grid (KODAN_QUANT=int8)"
    (cd "$dir" && KODAN_QUANT=int8 ctest --output-on-failure -j "$JOBS" \
        -L "$quant_labels")
}

sanitized_pass thread "$REPO_ROOT/build-tsan" "$LABELS" "$QUANT_LABELS"
sanitized_pass address "$REPO_ROOT/build-asan" "$LABELS" "$QUANT_LABELS"
sanitized_pass undefined "$REPO_ROOT/build-ubsan" "$UBSAN_LABELS" \
    'dataplane|core'

# One build with __SSE2__ undefined: the tiler's tile statistics have an
# SSE2 body and a scalar loop for targets without SSE2, which no other
# build compiles. The tiler and runtime oracles check it bit for bit.
echo "[ci] portable: configure + build + data/core ctest (-U__SSE2__)"
cmake -B "$REPO_ROOT/build-portable" -S "$REPO_ROOT" \
    -DCMAKE_CXX_FLAGS=-U__SSE2__ \
    -DKODAN_BUILD_BENCH=OFF \
    -DKODAN_BUILD_EXAMPLES=OFF
cmake --build "$REPO_ROOT/build-portable" -j "$JOBS"
(cd "$REPO_ROOT/build-portable" && ctest --output-on-failure -j "$JOBS" \
    -L '^data$|^core$')

# One -march=native kernel build: proves the ML kernel layer's
# bit-identity contract holds with the host's full vector width
# (-ffp-contract=off pins rounding; see DESIGN.md "ML kernel layer").
echo "[ci] KODAN_NATIVE: configure + build + mlkernels ctest"
cmake -B "$REPO_ROOT/build-native" -S "$REPO_ROOT" \
    -DKODAN_NATIVE=ON \
    -DKODAN_BUILD_EXAMPLES=OFF
cmake --build "$REPO_ROOT/build-native" -j "$JOBS"
(cd "$REPO_ROOT/build-native" && ctest --output-on-failure -j "$JOBS" \
    -L mlkernels)
(cd "$REPO_ROOT/build-native" && KODAN_QUANT=int8 ctest \
    --output-on-failure -j "$JOBS" -L mlkernels)

# The int8 speedup floors are pinned to this native config (see
# EXPERIMENTS.md "Int8 quantized inference"): assert them here, where
# the SIMD requantizing epilogue is compiled at the host's full vector
# width. The bench also byte-compares every Blocked result against the
# Naive oracle, so this run doubles as the native bit-identity smoke.
echo "[ci] KODAN_NATIVE: bench_ml_kernels --assert-speedup"
(cd "$REPO_ROOT/build-native" && ./bench/bench_ml_kernels \
    --assert-speedup > /dev/null)

echo "[ci] OK — tier-1, TSan, ASan, UBSan, portable and native-kernel passes all green"
