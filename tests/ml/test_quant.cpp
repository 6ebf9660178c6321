/**
 * @file
 * Property suite for the int8 quantized inference path: the Scratch
 * byte allocator it builds on, the fixed-point requantization scheme
 * (rounding, ties, saturation, degenerate shifts), the packed int8
 * GEMM kernels' bit identity with the scalar oracle loops — including
 * the fused requantizing epilogue in both its ReLU and plain clamp
 * modes, odd shapes that exercise packing padding and scalar tails,
 * and channels whose shift falls outside the SIMD fast path — and the
 * QuantizedMlp determinism contract: identical bytes at any thread
 * count and any batch split. Integer results are compared with exact
 * equality; that is the contract, not a tolerance choice.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "hw/target.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/quant.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "ml_oracle.hpp"

namespace kodan::ml {
namespace {

/** Thread counts exercised for the bit-identity grid. */
const std::vector<int> kThreadCounts = {1, 4, 16};

/** Restores the global thread default when a test exits. */
class ThreadGuard
{
  public:
    ~ThreadGuard() { util::setGlobalThreads(0); }
};

std::vector<std::int8_t>
randomI8(std::size_t count, util::Rng &rng)
{
    std::vector<std::int8_t> v(count);
    for (auto &x : v) {
        x = static_cast<std::int8_t>(
            std::lround(rng.uniform(-127.0, 127.0)));
    }
    return v;
}

std::vector<std::int32_t>
randomBias(std::size_t count, util::Rng &rng)
{
    std::vector<std::int32_t> v(count);
    for (auto &x : v) {
        x = static_cast<std::int32_t>(
            std::lround(rng.uniform(-50000.0, 50000.0)));
    }
    return v;
}

std::vector<kernels::Requant>
randomRequant(std::size_t count, util::Rng &rng)
{
    std::vector<kernels::Requant> v(count);
    for (auto &x : v) {
        x = kernels::requantScale(rng.uniform(1.0 / 4096.0, 1.0 / 4.0));
    }
    return v;
}

Matrix
randomMatrix(std::size_t rows, std::size_t cols, util::Rng &rng)
{
    Matrix m(rows, cols);
    for (double &v : m.data()) {
        v = rng.uniform(-2.0, 2.0);
    }
    return m;
}

/** Exact byte comparison of two equally-sized buffers. */
template <typename T>
void
expectSameBytes(const std::vector<T> &a, const std::vector<T> &b,
                const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)))
        << what;
}

// ---------------------------------------------------------------------
// Scratch::allocBytes — the raw allocator under the int8 workspaces.

TEST(ScratchBytes, RespectsAlignment)
{
    kernels::Scratch arena;
    kernels::Scratch::Frame frame(arena);
    for (std::size_t align : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8},
                              std::size_t{16}, std::size_t{32},
                              std::size_t{64}}) {
        // Odd sizes knock the cursor off alignment between calls.
        for (std::size_t bytes : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{129}}) {
            void *p = arena.allocBytes(bytes, align);
            ASSERT_NE(p, nullptr);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
                << "align " << align << " bytes " << bytes;
            // The region is writable end to end.
            std::memset(p, 0xAB, bytes);
        }
    }
}

TEST(ScratchBytes, FrameRestoresBytePosition)
{
    kernels::Scratch arena;
    void *first = nullptr;
    {
        kernels::Scratch::Frame frame(arena);
        first = arena.allocBytes(1000, 32);
    }
    kernels::Scratch::Frame frame(arena);
    void *second = arena.allocBytes(1000, 32);
    EXPECT_EQ(first, second);
}

TEST(ScratchBytes, SharesArenaWithDoubleAlloc)
{
    kernels::Scratch arena;
    kernels::Scratch::Frame frame(arena);
    double *d = arena.alloc(16);
    auto *b = arena.allocArray<std::int8_t>(33);
    double *d2 = arena.alloc(16);
    // Distinct, non-overlapping regions from the same arena.
    ASSERT_NE(reinterpret_cast<void *>(d), reinterpret_cast<void *>(b));
    ASSERT_NE(reinterpret_cast<void *>(d2), reinterpret_cast<void *>(b));
    d[15] = 1.0;
    b[32] = 42;
    d2[0] = 2.0;
    EXPECT_EQ(b[32], 42);
    EXPECT_EQ(d[15], 1.0);
}

TEST(ScratchBytes, GrowsBeyondOneChunk)
{
    kernels::Scratch arena;
    kernels::Scratch::Frame frame(arena);
    // Larger than the minimum chunk (1 << 14 doubles = 128 KiB).
    const std::size_t big = (std::size_t{1} << 18) + 13;
    auto *p = arena.allocArray<std::int8_t>(big, 64);
    ASSERT_NE(p, nullptr);
    p[0] = 1;
    p[big - 1] = 2;
    EXPECT_EQ(p[0], 1);
    EXPECT_EQ(p[big - 1], 2);
    EXPECT_GE(arena.chunkCount(), 1u);
}

TEST(ScratchBytes, AllocArrayCountsElements)
{
    kernels::Scratch arena;
    kernels::Scratch::Frame frame(arena);
    auto *acc = arena.allocArray<std::int32_t>(100);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(acc) %
                  alignof(std::int32_t),
              0u);
    for (int i = 0; i < 100; ++i) {
        acc[i] = i;
    }
    auto *next = arena.allocArray<std::int32_t>(1);
    // 100 int32s were actually reserved: the next allocation lands at
    // or after their end.
    EXPECT_GE(next, acc + 100);
}

// ---------------------------------------------------------------------
// requantScale / requantize — the fixed-point scheme itself.

TEST(RequantScale, EncodesMantissaTimesPowerOfTwo)
{
    util::Rng rng(2024);
    for (int i = 0; i < 2000; ++i) {
        const double scale = std::exp(rng.uniform(-20.0, 4.0));
        const kernels::Requant rq = kernels::requantScale(scale);
        ASSERT_GE(rq.multiplier, std::int32_t{1} << 30);
        ASSERT_LT(static_cast<std::int64_t>(rq.multiplier),
                  std::int64_t{1} << 31);
        const double decoded =
            static_cast<double>(rq.multiplier) *
            std::ldexp(1.0, -rq.shift);
        // frexp is exact up to the Q31 truncation of the mantissa.
        EXPECT_NEAR(decoded / scale, 1.0, 1e-9) << "scale " << scale;
    }
}

TEST(Requantize, MatchesRoundHalfAwayReference)
{
    util::Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        const auto acc = static_cast<std::int32_t>(std::lround(
            rng.uniform(-2.147e9, 2.147e9)));
        const kernels::Requant rq =
            kernels::requantScale(std::exp(rng.uniform(-12.0, 0.0)));
        // Independent reference: exact integer magnitude arithmetic.
        const std::int64_t prod =
            static_cast<std::int64_t>(acc) * rq.multiplier;
        ASSERT_GT(rq.shift, 0);
        ASSERT_LE(rq.shift, 62);
        const std::uint64_t mag =
            prod < 0 ? static_cast<std::uint64_t>(-prod)
                     : static_cast<std::uint64_t>(prod);
        const std::uint64_t half = std::uint64_t{1} << (rq.shift - 1);
        const auto rounded =
            static_cast<std::int64_t>((mag + half) >> rq.shift);
        const std::int64_t expected = prod < 0 ? -rounded : rounded;
        ASSERT_LE(expected, std::numeric_limits<std::int32_t>::max());
        ASSERT_GE(expected, std::numeric_limits<std::int32_t>::min());
        EXPECT_EQ(kernels::requantize(acc, rq),
                  static_cast<std::int32_t>(expected))
            << "acc " << acc << " mult " << rq.multiplier << " shift "
            << rq.shift;
    }
}

TEST(Requantize, TiesRoundAwayFromZero)
{
    // multiplier 2^30, shift 31 encodes scale 0.5 exactly: the product
    // acc * 2^30 lands exactly on a half step for every odd acc.
    const kernels::Requant rq{std::int32_t{1} << 30, 31};
    EXPECT_EQ(kernels::requantize(0, rq), 0);
    EXPECT_EQ(kernels::requantize(1, rq), 1);   // 0.5 -> 1, not 0
    EXPECT_EQ(kernels::requantize(-1, rq), -1); // -0.5 -> -1, not 0
    EXPECT_EQ(kernels::requantize(2, rq), 1);
    EXPECT_EQ(kernels::requantize(-2, rq), -1);
    EXPECT_EQ(kernels::requantize(3, rq), 2);   // 1.5 -> 2
    EXPECT_EQ(kernels::requantize(-3, rq), -2); // -1.5 -> -2
    EXPECT_EQ(kernels::requantize(101, rq), 51);
    EXPECT_EQ(kernels::requantize(-101, rq), -51);
}

TEST(Requantize, DegenerateShiftsSaturateOrVanish)
{
    // Shift beyond 62: any product rounds to zero.
    const kernels::Requant tiny{std::int32_t{1} << 30, 70};
    EXPECT_EQ(kernels::requantize(std::numeric_limits<std::int32_t>::max(),
                                  tiny),
              0);
    EXPECT_EQ(kernels::requantize(std::numeric_limits<std::int32_t>::min(),
                                  tiny),
              0);
    // Non-positive shift: left shift with int32 saturation.
    const kernels::Requant huge{std::int32_t{1} << 30, -4};
    EXPECT_EQ(kernels::requantize(1 << 10, huge),
              std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(kernels::requantize(-(1 << 10), huge),
              std::numeric_limits<std::int32_t>::min());
    // Small accumulators still fit: 2 * 2^30 * 2^4 = 2^35 saturates,
    // but 1 * 2^30 << 0 with shift 0 is 2^30, in range.
    const kernels::Requant unit{std::int32_t{1} << 30, 0};
    EXPECT_EQ(kernels::requantize(1, unit), std::int32_t{1} << 30);
    EXPECT_EQ(kernels::requantize(-1, unit), -(std::int32_t{1} << 30));
    EXPECT_EQ(kernels::requantize(4, unit),
              std::numeric_limits<std::int32_t>::max());
}

TEST(SaturateI8, ClampEdges)
{
    EXPECT_EQ(kernels::saturateI8(0, -127), 0);
    EXPECT_EQ(kernels::saturateI8(127, -127), 127);
    EXPECT_EQ(kernels::saturateI8(128, -127), 127);
    EXPECT_EQ(kernels::saturateI8(std::numeric_limits<std::int32_t>::max(),
                                  -127),
              127);
    EXPECT_EQ(kernels::saturateI8(-127, -127), -127);
    // -128 is never produced: the range stays symmetric.
    EXPECT_EQ(kernels::saturateI8(-128, -127), -127);
    EXPECT_EQ(kernels::saturateI8(std::numeric_limits<std::int32_t>::min(),
                                  -127),
              -127);
    // The fused-ReLU clamp zeroes every negative value.
    EXPECT_EQ(kernels::saturateI8(-1, 0), 0);
    EXPECT_EQ(kernels::saturateI8(std::numeric_limits<std::int32_t>::min(),
                                  0),
              0);
    EXPECT_EQ(kernels::saturateI8(5, 0), 5);
    EXPECT_EQ(kernels::saturateI8(200, 0), 127);
}

// ---------------------------------------------------------------------
// Input quantization: the vector quantizeRows against the scalar rule.

TEST(QuantizeValue, PinsSpecialsIncludingNaN)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(kernels::quantizeValue(0.0, 1.0), 0);
    EXPECT_EQ(kernels::quantizeValue(-0.0, 1.0), 0);
    // Ties round away from zero.
    EXPECT_EQ(kernels::quantizeValue(0.5, 1.0), 1);
    EXPECT_EQ(kernels::quantizeValue(-0.5, 1.0), -1);
    EXPECT_EQ(kernels::quantizeValue(1.5, 1.0), 2);
    EXPECT_EQ(kernels::quantizeValue(-1.5, 1.0), -2);
    EXPECT_EQ(kernels::quantizeValue(126.5, 1.0), 127);
    EXPECT_EQ(kernels::quantizeValue(-126.5, 1.0), -127);
    // The clamp keeps the range symmetric: -128 is never produced.
    EXPECT_EQ(kernels::quantizeValue(127.5, 1.0), 127);
    EXPECT_EQ(kernels::quantizeValue(-127.5, 1.0), -127);
    EXPECT_EQ(kernels::quantizeValue(inf, 1.0), 127);
    EXPECT_EQ(kernels::quantizeValue(-inf, 1.0), -127);
    EXPECT_EQ(kernels::quantizeValue(std::numeric_limits<double>::max(),
                                     1.0),
              127);
    EXPECT_EQ(kernels::quantizeValue(-std::numeric_limits<double>::max(),
                                     1.0),
              -127);
    EXPECT_EQ(kernels::quantizeValue(nan, 1.0), 0);
    EXPECT_EQ(kernels::quantizeValue(-nan, 1.0), 0);
    EXPECT_EQ(kernels::quantizeValue(1.0, nan), 0);
}

/** quantizeRows over consecutive slices of @p x of every length 1-40
 *  in turn, so every vector body and scalar tail runs, each slice
 *  compared with the scalar rule element by element. */
void
expectRowsMatchScalar(const std::vector<double> &x, double inv_scale)
{
    std::vector<std::int8_t> out(x.size());
    for (std::size_t len = 1; len <= 40; ++len) {
        for (std::size_t start = 0; start + len <= x.size();
             start += len) {
            kernels::quantizeRows(x.data() + start, len, inv_scale,
                                  out.data() + start);
            for (std::size_t i = start; i < start + len; ++i) {
                ASSERT_EQ(out[i], kernels::quantizeValue(x[i], inv_scale))
                    << "x=" << x[i] << " inv_scale=" << inv_scale
                    << " len=" << len << " i=" << i - start;
                ASSERT_NE(out[i], -128);
            }
        }
    }
}

TEST(QuantizeRows, MatchesScalarRuleOnSpecials)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> specials = {
        0.0,
        -0.0,
        0.5,
        -0.5,
        1.5,
        -1.5,
        126.5,
        -126.5,
        127.5,
        -127.5,
        inf,
        -inf,
        nan,
        -nan,
        std::numeric_limits<double>::min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
    };
    // Repeat the specials at a stride coprime to every vector width,
    // so each one lands in every lane of the body and of the tail.
    std::vector<double> x;
    for (int rep = 0; rep < 41; ++rep) {
        for (std::size_t i = 0; i < specials.size(); ++i) {
            x.push_back(specials[(i * 7 + static_cast<std::size_t>(rep)) %
                                 specials.size()]);
        }
        x.push_back(static_cast<double>(rep) - 20.0);
    }
    expectRowsMatchScalar(x, 1.0);
    expectRowsMatchScalar(x, 0.37);
}

TEST(QuantizeRows, MatchesScalarRuleOnSeededFiniteValues)
{
    util::Rng rng(4747);
    std::vector<double> x(100000);
    for (double &v : x) {
        // Standardized-feature magnitudes, with enough spread to hit
        // the clamp at the calibration scales below.
        v = rng.normal() * 4.0;
    }
    expectRowsMatchScalar(x, 127.0 / 3.0);
    expectRowsMatchScalar(x, 127.0 / 17.5);
}

// ---------------------------------------------------------------------
// Quantization round trip: symmetric per-channel int8.

TEST(QuantRoundTrip, ErrorBoundedByHalfStep)
{
    util::Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 64;
        std::vector<double> w(n);
        double absmax = 0.0;
        for (double &v : w) {
            v = rng.uniform(-3.0, 3.0);
            absmax = std::max(absmax, std::fabs(v));
        }
        ASSERT_GT(absmax, 0.0);
        const double scale = absmax / 127.0;
        for (const double v : w) {
            const auto q = static_cast<std::int32_t>(
                std::lround(v / scale));
            ASSERT_GE(q, -127);
            ASSERT_LE(q, 127);
            // Round-half-away quantization: the reconstruction error
            // never exceeds half a quantization step.
            EXPECT_LE(std::fabs(v - static_cast<double>(q) * scale),
                      scale * 0.5 + 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Packed int8 GEMM vs the scalar oracle loops, including the epilogue
// modes and shapes the benches never touch.

struct I8Shape
{
    std::size_t m;
    std::size_t k;
    std::size_t n;
};

/**
 * Odd/even k (packing pairs), n off the channel-tile grid (tails), the
 * deployed tier-1 layers (18 -> 4 and 4 -> 1) at odd and even m, the
 * channel-tile boundaries n in {4, 5, 8, 9, 16, 17}, and the vector
 * A-row packing boundaries k in {15, 16, 17, 32, 33}. The m values run
 * every microkernel's multi-row body and its one-row tail.
 */
const std::vector<I8Shape> kShapes = {
    {1, 1, 1},   {3, 5, 7},    {17, 18, 64}, {33, 64, 32},
    {64, 7, 16}, {13, 31, 33}, {129, 19, 1}, {40, 64, 100},
    // Tier-1 hidden layer and head.
    {1, 18, 4},  {2, 18, 4},   {9, 18, 4},   {64, 18, 4},
    {1, 4, 1},   {8, 4, 1},    {13, 4, 1},   {64, 4, 1},
    // Channel-tile boundaries.
    {11, 17, 4}, {11, 17, 5},  {11, 17, 8},  {11, 17, 9},
    {11, 17, 16}, {11, 17, 17},
    // A-row packing boundaries.
    {6, 15, 5},  {6, 16, 5},   {6, 17, 5},   {6, 32, 5},
    {6, 33, 5},
};

void
runGemmI8Grid(bool relu, bool degenerate_channels)
{
    util::Rng rng(relu ? 9001 : 9002);
    for (const I8Shape &s : kShapes) {
        const auto a = randomI8(s.m * s.k, rng);
        const auto w = randomI8(s.n * s.k, rng);
        const auto bias = randomBias(s.n, rng);
        auto rq = randomRequant(s.n, rng);
        if (degenerate_channels) {
            // Push some channels outside the SIMD fast path's [1, 62]
            // shift window: the whole call must fall back to the
            // scalar reference without changing any in-range channel.
            rq[0] = kernels::Requant{std::int32_t{1} << 30, 70};
            if (s.n > 2) {
                rq[s.n / 2] = kernels::Requant{std::int32_t{1} << 30, -2};
            }
        }

        std::vector<std::int8_t> naive(s.m * s.n);
        std::vector<std::int8_t> packed(s.m * s.n);
        oracle::gemmI8RequantNaive(s.m, s.k, s.n, a.data(), w.data(),
                                   bias.data(), rq.data(), relu,
                                   naive.data());
        const kernels::PackedI8 pw(s.n, s.k, w.data(), bias.data());
        kernels::gemmI8Requant(s.m, pw, a.data(), rq.data(), relu,
                               packed.data());
        expectSameBytes(naive, packed, "packed vs naive");

        // Independent signed-accumulator loop over the raw operands.
        const std::int32_t lo = relu ? 0 : -127;
        for (std::size_t i = 0; i < s.m; ++i) {
            for (std::size_t j = 0; j < s.n; ++j) {
                std::int32_t acc = bias[j];
                for (std::size_t p = 0; p < s.k; ++p) {
                    acc += static_cast<std::int32_t>(a[i * s.k + p]) *
                           static_cast<std::int32_t>(w[j * s.k + p]);
                }
                const std::int8_t expected = kernels::saturateI8(
                    kernels::requantize(acc, rq[j]), lo);
                ASSERT_EQ(naive[i * s.n + j], expected)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n
                    << " i=" << i << " j=" << j;
            }
        }
    }
}

TEST(GemmI8Requant, ReluGridMatchesOracle) { runGemmI8Grid(true, false); }

TEST(GemmI8Requant, PlainClampGridMatchesOracle)
{
    runGemmI8Grid(false, false);
}

TEST(GemmI8Requant, DegenerateShiftFallback)
{
    runGemmI8Grid(true, true);
    runGemmI8Grid(false, true);
}

TEST(GemmI8, AccumulatorGridMatchesOracle)
{
    util::Rng rng(4242);
    for (const I8Shape &s : kShapes) {
        const auto a = randomI8(s.m * s.k, rng);
        const auto w = randomI8(s.n * s.k, rng);
        const auto bias = randomBias(s.n, rng);
        std::vector<std::int32_t> naive(s.m * s.n);
        std::vector<std::int32_t> packed(s.m * s.n);
        std::vector<std::int32_t> no_bias(s.m * s.n);
        oracle::gemmI8Naive(s.m, s.k, s.n, a.data(), w.data(), bias.data(),
                            naive.data());
        const kernels::PackedI8 pw(s.n, s.k, w.data(), bias.data());
        kernels::gemmI8(s.m, pw, a.data(), packed.data());
        const kernels::PackedI8 pw_no_bias(s.n, s.k, w.data(), nullptr);
        kernels::gemmI8(s.m, pw_no_bias, a.data(), no_bias.data());
        expectSameBytes(naive, packed, "gemmI8 packed vs naive");
        for (std::size_t i = 0; i < s.m; ++i) {
            for (std::size_t j = 0; j < s.n; ++j) {
                std::int32_t acc = bias[j];
                for (std::size_t p = 0; p < s.k; ++p) {
                    acc += static_cast<std::int32_t>(a[i * s.k + p]) *
                           static_cast<std::int32_t>(w[j * s.k + p]);
                }
                ASSERT_EQ(naive[i * s.n + j], acc);
                ASSERT_EQ(no_bias[i * s.n + j], acc - bias[j]);
            }
        }
    }
}

TEST(GemmI8, WorstCaseOperandsStayInHeadroom)
{
    // The documented precondition: 127*127*k + 2^30 < 2^31 for every
    // shape in the codebase (k <= 64). Drive the extreme corner — all
    // operands at +/-127, bias at the 2^30 headroom limit — and check
    // the exact accumulator of the packed kernel and the oracle.
    const std::size_t m = 4;
    const std::size_t k = 64;
    const std::size_t n = 8;
    std::vector<std::int8_t> a(m * k, 127);
    std::vector<std::int8_t> w(n * k);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t p = 0; p < k; ++p) {
            w[j * k + p] = (j % 2 == 0) ? std::int8_t{127}
                                        : std::int8_t{-127};
        }
    }
    std::vector<std::int32_t> bias(n);
    const std::int32_t headroom = std::int32_t{1} << 30;
    for (std::size_t j = 0; j < n; ++j) {
        bias[j] = (j % 2 == 0) ? headroom : -headroom;
    }
    const auto magnitude =
        static_cast<std::int32_t>(127 * 127 * static_cast<int>(k));
    std::vector<std::int32_t> naive(m * n);
    std::vector<std::int32_t> packed(m * n);
    oracle::gemmI8Naive(m, k, n, a.data(), w.data(), bias.data(),
                        naive.data());
    kernels::gemmI8(m, kernels::PackedI8(n, k, w.data(), bias.data()),
                    a.data(), packed.data());
    expectSameBytes(naive, packed, "worst case packed vs naive");
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::int32_t expected =
                (j % 2 == 0) ? headroom + magnitude
                             : -headroom - magnitude;
            ASSERT_EQ(naive[i * n + j], expected) << i << "," << j;
        }
    }
}

// ---------------------------------------------------------------------
// QuantizedMlp: the determinism contract end to end.

Mlp
makeTrainedNet(const MlpConfig &config, util::Rng &rng)
{
    // He initialization alone gives realistic weight magnitudes; no
    // training needed for bit-identity properties.
    return Mlp(config, rng);
}

TEST(QuantizedMlp, ThreadAndBlockingBitIdentityGrid)
{
    const ThreadGuard cleanup;
    // Every tier's architecture: tier 1-2 layers take the narrow
    // channel tiles, tier 7 the wide ones.
    for (int tier = 1; tier <= hw::kAppCount; ++tier) {
        SCOPED_TRACE("tier " + std::to_string(tier));
        MlpConfig config;
        config.input_dim = 18;
        config.hidden = hw::CostModel::tierHidden(tier);
        config.output_dim = 1;
        util::Rng rng(7000 + static_cast<std::uint64_t>(tier));
        const Mlp net = makeTrainedNet(config, rng);
        const std::size_t rows = 700; // spans two 512-row strips
        const Matrix x = randomMatrix(rows, 18, rng);
        const QuantizedMlp qnet =
            QuantizedMlp::fromCalibration(net, x.data().data(), rows);

        // Reference: single-threaded, whole batch at once. The packed
        // GEMMs under it match the scalar oracle (runGemmI8Grid).
        std::vector<double> reference(rows);
        util::setGlobalThreads(1);
        qnet.forwardBatch(x.data().data(), rows, reference.data());

        for (const int threads : kThreadCounts) {
            util::setGlobalThreads(threads);
            // Shard the batch across the pool the way the runtime shards
            // frames; every shard split must reproduce the reference
            // bytes exactly.
            for (const std::size_t shard :
                 {std::size_t{1}, std::size_t{64}, std::size_t{257}}) {
                std::vector<double> out(rows);
                const std::size_t shards = (rows + shard - 1) / shard;
                util::parallelFor(shards, [&](std::size_t sidx) {
                    const std::size_t r0 = sidx * shard;
                    const std::size_t count = std::min(shard, rows - r0);
                    qnet.forwardBatch(x.data().data() + r0 * 18, count,
                                      out.data() + r0);
                });
                expectSameBytes(reference, out, "thread/shard grid");
            }
        }
    }
}

TEST(QuantizedMlp, MatrixOverloadMatchesForwardBatch)
{
    MlpConfig config;
    config.input_dim = 11;
    config.hidden = {24, 12};
    config.output_dim = 1;
    util::Rng rng(7002);
    const Mlp net = makeTrainedNet(config, rng);
    const std::size_t rows = 37;
    const Matrix x = randomMatrix(rows, 11, rng);
    const QuantizedMlp qnet =
        QuantizedMlp::fromCalibration(net, x.data().data(), rows);

    std::vector<double> batch(rows);
    qnet.forwardBatch(x.data().data(), rows, batch.data());

    Matrix out;
    qnet.forwardBatch(x, out);
    ASSERT_EQ(out.rows(), rows);
    ASSERT_EQ(out.cols(), 1u);
    for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(out.data()[r], batch[r]);
    }
}

TEST(QuantizedMlp, SoftmaxHeadBatchSplitInvariance)
{
    MlpConfig config;
    config.input_dim = 9;
    config.hidden = {16};
    config.output_dim = 5;
    config.output = OutputKind::Softmax;
    util::Rng rng(7003);
    const Mlp net = makeTrainedNet(config, rng);
    const std::size_t rows = 53;
    const Matrix x = randomMatrix(rows, 9, rng);
    const QuantizedMlp qnet =
        QuantizedMlp::fromCalibration(net, x.data().data(), rows);

    std::vector<double> whole(rows * 5);
    qnet.forwardBatch(x.data().data(), rows, whole.data());
    std::vector<double> split(rows * 5);
    for (std::size_t r0 = 0; r0 < rows; r0 += 7) {
        const std::size_t count = std::min<std::size_t>(7, rows - r0);
        qnet.forwardBatch(x.data().data() + r0 * 9, count,
                          split.data() + r0 * 5);
    }
    expectSameBytes(whole, split, "softmax batch split");
    for (std::size_t r = 0; r < rows; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 5; ++c) {
            sum += whole[r * 5 + c];
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(QuantizedMlp, ScaleReconstructionRoundTrips)
{
    // The serialization contract: the on-disk payload is the fp64 net
    // plus the activation scales; the int8 weights are rebuilt from
    // them. A sibling constructed that way must be bit-identical to
    // the original fromCalibration sibling.
    MlpConfig config;
    config.input_dim = 18;
    config.hidden = {40, 20};
    config.output_dim = 1;
    util::Rng rng(7004);
    const Mlp net = makeTrainedNet(config, rng);
    const std::size_t rows = 300;
    const Matrix x = randomMatrix(rows, 18, rng);
    const QuantizedMlp original =
        QuantizedMlp::fromCalibration(net, x.data().data(), rows);

    const QuantizedMlp rebuilt(net, original.actScales());
    ASSERT_EQ(rebuilt.actScales().size(), original.actScales().size());
    for (std::size_t i = 0; i < original.actScales().size(); ++i) {
        EXPECT_EQ(rebuilt.actScales()[i], original.actScales()[i]);
    }

    const Matrix probe = randomMatrix(97, 18, rng);
    std::vector<double> a(97);
    std::vector<double> b(97);
    original.forwardBatch(probe.data().data(), 97, a.data());
    rebuilt.forwardBatch(probe.data().data(), 97, b.data());
    expectSameBytes(a, b, "reconstructed sibling");
}

TEST(QuantizedMlp, CalibrationIsDeterministic)
{
    MlpConfig config;
    config.input_dim = 6;
    config.hidden = {10, 6};
    config.output_dim = 1;
    util::Rng rng(7005);
    const Mlp net = makeTrainedNet(config, rng);
    const Matrix x = randomMatrix(640, 6, rng);
    const auto s1 = QuantizedMlp::calibrate(net, x.data().data(), 640);
    const auto s2 = QuantizedMlp::calibrate(net, x.data().data(), 640);
    ASSERT_EQ(s1.size(), s2.size());
    // One scale per linear layer (hidden layers + head).
    EXPECT_EQ(s1.size(), config.hidden.size() + 1);
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1[i], s2[i]);
        EXPECT_GT(s1[i], 0.0);
    }
}

TEST(QuantizedMlp, TracksFp64WithinQuantizationTolerance)
{
    // Accuracy property (the sweep's tolerance gate enforces this on
    // real models): on in-calibration-range inputs the int8 sigmoid
    // output stays close to the fp64 one. Loose bound on purpose —
    // this guards against sign/scale bugs, not rounding noise.
    MlpConfig config;
    config.input_dim = 18;
    config.hidden = {64, 32, 16};
    config.output_dim = 1;
    util::Rng rng(7006);
    const Mlp net = makeTrainedNet(config, rng);
    const std::size_t rows = 512;
    const Matrix x = randomMatrix(rows, 18, rng);
    const QuantizedMlp qnet =
        QuantizedMlp::fromCalibration(net, x.data().data(), rows);

    Matrix fp;
    net.forwardBatch(x, fp);
    std::vector<double> q(rows);
    qnet.forwardBatch(x.data().data(), rows, q.data());
    double worst = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
        worst = std::max(worst, std::fabs(fp.data()[r] - q[r]));
    }
    EXPECT_LT(worst, 0.15);
}

} // namespace
} // namespace kodan::ml
