/**
 * @file
 * ML kernel layer: batched kernels vs the scalar test oracles
 * (tests/ml/ml_oracle.hpp), at KODAN_THREADS=1 so the numbers isolate
 * the per-core algorithmic win (cache blocking, unrolling,
 * allocation-free scratch) from outer parallelism. Four workloads:
 *
 *   gemm            raw kernel GFLOP/s on an MLP-shaped product
 *   mlp_forward     batched surrogate inference (tier-7 network)
 *   mlp_forward_i8  QuantizedMlp batched inference (tier-7 network)
 *   gemm_i8         int8 GEMM chain over the tier-7 layer shapes
 *
 * For the fp64 workloads the naive column times the oracle loops. For
 * the *_i8 workloads it instead holds the batched FP64 reference — the
 * speedup an operator buys by flipping the precision knob, which is the
 * number the floors gate. gemm_i8's chain, the packed kernels
 * mlp_forward_i8 runs, is checked untimed against the oracle's scalar
 * int8 loops.
 *
 * A result that diverges from its oracle, bit for bit, exits 1 — a
 * speedup that changed the numbers would be a bug, not a win.
 *
 * Results go to stdout and to BENCH_ml_kernels.run.json (in
 * KODAN_BENCH_CSV_DIR when set, else the bench cache directory).
 *
 * --assert-speedup enforces the floors (>= 3x mlp_forward, >= 2.5x
 * gemm_i8 and >= 1.5x mlp_forward_i8 over batched fp64); left off in
 * the timer-tolerant regression smoke where wall-clock is too noisy to
 * gate on.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/ml/ml_oracle.hpp"
#include "common.hpp"
#include "data/tiler.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/quant.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace kodan;

double
timeSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Paired timing round for the floored *_i8 ratios. */
struct PairedTime
{
    double ref_seconds = 0.0;
    double test_seconds = 0.0;
    double speedup = 0.0;
};

/**
 * Time @p ref and @p test back to back for @p rounds rounds (after one
 * untimed warmup of each) and keep the round with the MEDIAN ref/test
 * ratio. Adjacent measurement keeps both sides under the same machine
 * state (frequency, steal time), and the median round makes the
 * asserted floors a stable statistic on a shared CI box where either
 * side alone can wobble 20-40% between processes.
 */
PairedTime
pairedMedian(int rounds, const std::function<void()> &ref,
             const std::function<void()> &test)
{
    ref();
    test();
    std::vector<PairedTime> samples(rounds);
    for (auto &s : samples) {
        s.ref_seconds = timeSeconds(ref);
        s.test_seconds = timeSeconds(test);
        s.speedup = s.test_seconds > 0.0
                        ? s.ref_seconds / s.test_seconds
                        : 0.0;
    }
    std::sort(samples.begin(), samples.end(),
              [](const PairedTime &a, const PairedTime &b) {
                  return a.speedup < b.speedup;
              });
    return samples[samples.size() / 2];
}

struct Measurement
{
    std::string workload;
    double naive_seconds = 0.0;
    double blocked_seconds = 0.0;
    double speedup = 0.0;
    double gflops = 0.0; // Blocked-path throughput where meaningful
};

ml::Matrix
randomMatrix(std::size_t rows, std::size_t cols, util::Rng &rng)
{
    ml::Matrix m(rows, cols);
    for (double &v : m.data()) {
        v = rng.uniform(-1.0, 1.0);
    }
    return m;
}

bool
sameBits(const ml::Matrix &a, const ml::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(double)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    bool assert_speedup = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--assert-speedup") {
            assert_speedup = true;
        }
    }
    bench::banner("ML kernel layer: batched vs naive oracle",
                  "the kernel layer of DESIGN.md; no paper figure");

    // Per-core comparison: the kernels themselves are serial; outer
    // parallelism belongs to bench_parallel_speedup.
    util::setGlobalThreads(1);
    std::vector<Measurement> measurements;

    // ---- Workload 1: raw GEMM, MLP-shaped (batch x fan_in x fan_out).
    {
        const std::size_t m = 4096, k = 64, n = 64;
        const int reps = 40;
        util::Rng rng(7);
        const ml::Matrix a = randomMatrix(m, k, rng);
        const ml::Matrix b = randomMatrix(k, n, rng);
        Measurement mm;
        mm.workload = "gemm_4096x64x64";
        ml::Matrix naive, blocked;
        mm.naive_seconds = timeSeconds([&] {
            for (int r = 0; r < reps; ++r) {
                naive = ml::oracle::multiplyNaive(a, b);
            }
        });
        mm.blocked_seconds = timeSeconds([&] {
            for (int r = 0; r < reps; ++r) {
                blocked = ml::Matrix::multiply(a, b);
            }
        });
        if (!sameBits(naive, blocked)) {
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: gemm "
                         "diverges from the oracle\n";
            return 1;
        }
        const double flops = 2.0 * static_cast<double>(m * k * n) * reps;
        mm.gflops = mm.blocked_seconds > 0.0
                        ? flops / mm.blocked_seconds / 1e9
                        : 0.0;
        measurements.push_back(mm);
    }

    // ---- Workload 2: batched tier-7 surrogate inference (the heaviest
    // deployed architecture — the computational bottleneck the paper
    // targets).
    {
        const std::size_t rows = std::size_t{256} * data::kBlocksPerTile;
        const int reps = 30;
        util::Rng rng(11);
        ml::Mlp net(core::Application{7}.surrogateConfig(), rng);
        const ml::Matrix x =
            randomMatrix(rows, data::kBlockInputDim, rng);
        Measurement mm;
        mm.workload = "mlp_forward_tier7";
        const ml::oracle::NaiveMlp oracle_net(net);
        ml::Matrix naive(rows, 1), blocked;
        mm.naive_seconds = timeSeconds([&] {
            for (int r = 0; r < reps; ++r) {
                for (std::size_t i = 0; i < rows; ++i) {
                    oracle_net.forward(x.row(i), naive.row(i));
                }
            }
        });
        mm.blocked_seconds = timeSeconds([&] {
            for (int r = 0; r < reps; ++r) {
                net.forwardBatch(x, blocked);
            }
        });
        if (!sameBits(naive, blocked)) {
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: "
                         "mlp_forward diverges from the oracle\n";
            return 1;
        }
        const double flops =
            2.0 * static_cast<double>(net.parameterCount()) *
            static_cast<double>(rows) * reps;
        mm.gflops = mm.blocked_seconds > 0.0
                        ? flops / mm.blocked_seconds / 1e9
                        : 0.0;
        measurements.push_back(mm);

        // Int8 sibling on the identical batch: calibrated from the same
        // input it will run on (the offline-calibration story in
        // miniature). The reference is a freshly timed batched fp64
        // pass, so both sides of the floored ratio get the same noise
        // treatment.
        const ml::QuantizedMlp qnet = ml::QuantizedMlp::fromCalibration(
            net, x.data().data(), x.rows());
        Measurement qm;
        qm.workload = "mlp_forward_i8_tier7";
        const int chunk_reps = 6;
        ml::Matrix q_blocked;
        const PairedTime qt = pairedMedian(
            7,
            [&] {
                for (int r = 0; r < chunk_reps; ++r) {
                    net.forwardBatch(x, blocked);
                }
            },
            [&] {
                for (int r = 0; r < chunk_reps; ++r) {
                    qnet.forwardBatch(x, q_blocked);
                }
            });
        qm.naive_seconds = qt.ref_seconds;
        qm.blocked_seconds = qt.test_seconds;
        const double qflops =
            2.0 * static_cast<double>(net.parameterCount()) *
            static_cast<double>(rows) * chunk_reps;
        qm.gflops = qm.blocked_seconds > 0.0
                        ? qflops / qm.blocked_seconds / 1e9
                        : 0.0;
        measurements.push_back(qm);
    }

    // ---- Workload: raw int8 GEMM chain over the tier-7 hidden-layer
    // shapes ((18->64), (64->32), (32->16), each a fused
    // requantize-store GEMM) — the kernel sequence
    // QuantizedMlp::forwardBatch issues for the hidden stack, floored
    // at >= 2.5x over the blocked double GEMM on the same shapes. The
    // (16->1) head is not in the chain; it is covered by
    // mlp_forward_i8_tier7.
    {
        const std::size_t m = std::size_t{256} * data::kBlocksPerTile;
        const int reps = 8;
        util::Rng rng(13);
        const ml::MlpConfig config =
            core::Application{7}.surrogateConfig();
        std::vector<std::size_t> dims;
        dims.push_back(static_cast<std::size_t>(config.input_dim));
        for (const int h : config.hidden) {
            dims.push_back(static_cast<std::size_t>(h));
        }
        const std::size_t layer_count = dims.size() - 1;

        // Synthetic int8 operands with per-channel requant scales in a
        // realistic range; the head layer keeps int32 accumulators.
        std::vector<std::vector<std::int8_t>> weights(layer_count);
        std::vector<std::vector<std::int32_t>> biases(layer_count);
        std::vector<std::vector<ml::kernels::Requant>> rqs(layer_count);
        std::vector<ml::kernels::PackedI8> packed(layer_count);
        for (std::size_t l = 0; l < layer_count; ++l) {
            const std::size_t k = dims[l], n = dims[l + 1];
            weights[l].resize(n * k);
            for (auto &w : weights[l]) {
                w = static_cast<std::int8_t>(
                    std::lround(rng.uniform(-127.0, 127.0)));
            }
            biases[l].resize(n);
            for (auto &b : biases[l]) {
                b = static_cast<std::int32_t>(
                    std::lround(rng.uniform(-1000.0, 1000.0)));
            }
            rqs[l].resize(n);
            for (auto &rq : rqs[l]) {
                rq = ml::kernels::requantScale(
                    rng.uniform(1.0 / 256.0, 1.0 / 16.0));
            }
            packed[l] = ml::kernels::PackedI8(n, k, weights[l].data(),
                                              biases[l].data());
        }
        std::vector<std::int8_t> a0(m * dims[0]);
        for (auto &v : a0) {
            v = static_cast<std::int8_t>(
                std::lround(rng.uniform(-127.0, 127.0)));
        }
        std::vector<std::vector<std::int8_t>> act(layer_count);
        for (std::size_t l = 0; l < layer_count; ++l) {
            act[l].resize(m * dims[l + 1]);
        }
        // Issue the layers in 512-row strips exactly as
        // QuantizedMlp::forwardBatch does: the strip's activations stay
        // cache-resident across layers instead of spilling a full
        // m-row matrix between every pair.
        constexpr std::size_t kStrip = 512;
        const auto runChain = [&] {
            for (std::size_t r0 = 0; r0 < m; r0 += kStrip) {
                const std::size_t rows =
                    r0 + kStrip <= m ? kStrip : m - r0;
                const std::int8_t *in = a0.data() + r0 * dims[0];
                for (std::size_t l = 0; l < layer_count; ++l) {
                    std::int8_t *dst = act[l].data() + r0 * dims[l + 1];
                    ml::kernels::gemmI8Requant(rows, packed[l], in,
                                               rqs[l].data(), true, dst);
                    in = dst;
                }
            }
        };

        // Batched fp64 reference: the same shape chain through
        // Matrix::multiply (what the fp64 surrogate pays per layer).
        // Both sides paired-timed — this ratio carries the asserted
        // 2.5x floor.
        const ml::Matrix f0 = randomMatrix(m, dims[0], rng);
        std::vector<ml::Matrix> fw;
        for (std::size_t l = 0; l < layer_count; ++l) {
            fw.push_back(randomMatrix(dims[l], dims[l + 1], rng));
        }
        Measurement mm;
        mm.workload = "gemm_i8";
        const PairedTime gt = pairedMedian(
            7,
            [&] {
                for (int r = 0; r < reps; ++r) {
                    ml::Matrix cur = ml::Matrix::multiply(f0, fw[0]);
                    for (std::size_t l = 1; l < layer_count; ++l) {
                        cur = ml::Matrix::multiply(cur, fw[l]);
                    }
                }
            },
            [&] {
                for (int r = 0; r < reps; ++r) {
                    runChain();
                }
            });
        mm.naive_seconds = gt.ref_seconds;
        mm.blocked_seconds = gt.test_seconds;

        // Untimed scalar oracle chain for the bit-identity check.
        bool identical = true;
        const std::int8_t *in = a0.data();
        std::vector<std::int8_t> expected;
        for (std::size_t l = 0; l < layer_count; ++l) {
            expected.resize(m * dims[l + 1]);
            ml::oracle::gemmI8RequantNaive(
                m, dims[l], dims[l + 1], in, weights[l].data(),
                biases[l].data(), rqs[l].data(), true, expected.data());
            identical = identical &&
                        std::memcmp(act[l].data(), expected.data(),
                                    expected.size()) == 0;
            in = act[l].data();
        }
        if (!identical) {
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: gemm_i8 "
                         "packed path diverges from the naive oracle\n";
            return 1;
        }
        double ops = 0.0;
        for (std::size_t l = 0; l < layer_count; ++l) {
            ops += 2.0 * static_cast<double>(m * dims[l] * dims[l + 1]);
        }
        ops *= reps;
        mm.gflops = mm.blocked_seconds > 0.0
                        ? ops / mm.blocked_seconds / 1e9
                        : 0.0;
        measurements.push_back(mm);
    }

    util::setGlobalThreads(0);

    for (auto &m : measurements) {
        m.speedup = m.blocked_seconds > 0.0
                        ? m.naive_seconds / m.blocked_seconds
                        : 0.0;
    }

    // Feed the measurements into the telemetry snapshot so the
    // check_regressions.sh baseline diff sees them: wall-clock as timers
    // (diffed with the machine-noise tolerance), derived ratios under
    // bench.ml_kernels.ratio.* (excluded from the diff).
    if (telemetry::enabled()) {
        auto &reg = telemetry::registry();
        for (const auto &m : measurements) {
            reg.timer("bench.ml_kernels.time." + m.workload + ".naive")
                .record(m.naive_seconds);
            reg.timer("bench.ml_kernels.time." + m.workload + ".blocked")
                .record(m.blocked_seconds);
            reg.gauge("bench.ml_kernels.ratio." + m.workload + ".speedup")
                .set(m.speedup);
            if (m.gflops > 0.0) {
                reg.gauge("bench.ml_kernels.ratio." + m.workload +
                          ".gflops")
                    .set(m.gflops);
            }
        }
    }

    util::TablePrinter table({"workload", "naive (s)", "blocked (s)",
                              "speedup", "GFLOP/s"});
    for (const auto &m : measurements) {
        table.addRow({m.workload,
                      util::TablePrinter::fmt(m.naive_seconds, 3),
                      util::TablePrinter::fmt(m.blocked_seconds, 3),
                      util::TablePrinter::fmt(m.speedup, 2),
                      m.gflops > 0.0 ? util::TablePrinter::fmt(m.gflops, 2)
                                     : std::string("-")});
    }
    table.print(std::cout);
    std::cout << "\nAll workloads at KODAN_THREADS=1; every result "
                 "verified bit-identical to its oracle.\n"
                 "For *_i8 rows the naive column holds the batched fp64 "
                 "reference,\nso speedup is int8-over-fp64 at the same "
                 "blocking.\n";
    bench::emitCsv("bench_ml_kernels", table);

    // JSON run record.
    const std::string path = bench::runRecordPath("ml_kernels");
    std::ofstream json(path);
    if (json) {
        json << "{\n  \"measurements\": [\n";
        for (std::size_t i = 0; i < measurements.size(); ++i) {
            const auto &m = measurements[i];
            json << "    {\"workload\": \"" << m.workload
                 << "\", \"naive_seconds\": " << m.naive_seconds
                 << ", \"blocked_seconds\": " << m.blocked_seconds
                 << ", \"speedup\": " << m.speedup
                 << ", \"gflops\": " << m.gflops << "}"
                 << (i + 1 < measurements.size() ? "," : "") << "\n";
        }
        json << "  ]\n}\n";
        std::cerr << "[kodan-bench] wrote " << path << "\n";
    }

    if (assert_speedup) {
        int status = 0;
        for (const auto &m : measurements) {
            double floor = 0.0;
            if (m.workload == "mlp_forward_tier7") {
                floor = 3.0;
            } else if (m.workload == "gemm_i8") {
                // Int8 GEMM >= 2.5x the batched double GEMM on the
                // tier-7 MLP workload.
                floor = 2.5;
            } else if (m.workload == "mlp_forward_i8_tier7") {
                // End-to-end QuantizedMlp (input quantization + double
                // head included) over batched fp64; conservative floor
                // for the SSE2 baseline build (see EXPERIMENTS.md).
                floor = 1.5;
            }
            if (floor > 0.0 && m.speedup < floor) {
                std::cerr << "[kodan-bench] SPEEDUP FLOOR MISSED: "
                          << m.workload << " " << m.speedup << "x < "
                          << floor << "x\n";
                status = 1;
            }
        }
        if (status != 0) {
            return status;
        }
        std::cout << "Speedup floors met (mlp_forward >= 3x, "
                     "gemm_i8 >= 2.5x, mlp_forward_i8 >= 1.5x).\n";
    }
    return 0;
}
