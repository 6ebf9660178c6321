/**
 * @file
 * Equivalence suite for the ML kernel layer: every batched path must
 * produce BIT-IDENTICAL results to the scalar oracle it replaced
 * (ml_oracle.hpp), at any KODAN_THREADS and for any batch composition.
 * Doubles are compared with exact equality on purpose — the kernels'
 * fixed summation order makes that a hard guarantee, and anything
 * weaker would let a silent reassociation invalidate the committed
 * telemetry baselines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/kmeans.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/transforms.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "ml_oracle.hpp"

namespace kodan::ml {
namespace {

/** Thread counts exercised for every oracle comparison. */
const std::vector<int> kThreadCounts = {1, 4, 16};

/** Restores the global thread default when a test exits. */
class ThreadGuard
{
  public:
    ~ThreadGuard() { util::setGlobalThreads(0); }
};

Matrix
randomMatrix(std::size_t rows, std::size_t cols, util::Rng &rng)
{
    Matrix m(rows, cols);
    for (double &v : m.data()) {
        v = rng.uniform(-2.0, 2.0);
    }
    return m;
}

void
expectSameMatrix(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
    }
}

// ---------------------------------------------------------------------
// Scratch arena semantics.

TEST(Scratch, FrameRestoresPosition)
{
    kernels::Scratch arena;
    double *first = nullptr;
    {
        kernels::Scratch::Frame frame(arena);
        first = arena.alloc(100);
        first[0] = 1.0;
        first[99] = 2.0;
    }
    // After the frame unwinds, the same storage is handed out again.
    kernels::Scratch::Frame frame(arena);
    double *second = arena.alloc(100);
    EXPECT_EQ(first, second);
}

TEST(Scratch, FramesNest)
{
    kernels::Scratch arena;
    kernels::Scratch::Frame outer(arena);
    double *a = arena.alloc(10);
    {
        kernels::Scratch::Frame inner(arena);
        double *b = arena.alloc(10);
        EXPECT_NE(a, b);
        b[0] = 7.0;
    }
    double *c = arena.alloc(10);
    // The inner frame's allocation was released; the outer one was not.
    EXPECT_NE(a, c);
    kernels::Scratch::Frame probe(arena);
    (void)probe;
}

TEST(Scratch, GrowsBeyondOneChunkAndZeroes)
{
    kernels::Scratch arena;
    kernels::Scratch::Frame frame(arena);
    // Larger than the minimum chunk (1 << 14 doubles) forces growth.
    const std::size_t big = (std::size_t{1} << 15) + 3;
    double *buf = arena.allocZeroed(big);
    for (std::size_t i = 0; i < big; ++i) {
        ASSERT_EQ(buf[i], 0.0);
    }
    double *more = arena.alloc(std::size_t{1} << 14);
    EXPECT_NE(buf, more);
    EXPECT_GE(arena.chunkCount(), 1U);
}

TEST(Scratch, ZeroCountAllocationIsSafe)
{
    kernels::Scratch arena;
    kernels::Scratch::Frame frame(arena);
    (void)arena.alloc(0);
    (void)arena.allocZeroed(0);
}

// ---------------------------------------------------------------------
// Raw kernels vs scalar reference loops.

TEST(Kernels, GemmMatchesScalarReference)
{
    util::Rng rng(41);
    // Shapes straddle the blocking factors (kBlockK = 64, kBlockJ = 512)
    // and the 4x unroll remainder.
    const struct
    {
        std::size_t m, k, n;
    } shapes[] = {{1, 1, 1},   {3, 5, 7},    {4, 64, 12},
                  {5, 65, 9},  {2, 130, 70}, {7, 67, 513},
                  {16, 96, 33}};
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        std::vector<double> bias(s.n);
        for (double &v : bias) {
            v = rng.uniform(-1.0, 1.0);
        }
        for (int with_bias = 0; with_bias < 2; ++with_bias) {
            Matrix c(s.m, s.n);
            kernels::gemm(s.m, s.k, s.n, a.data().data(), b.data().data(),
                          c.data().data(),
                          with_bias ? bias.data() : nullptr);
            for (std::size_t i = 0; i < s.m; ++i) {
                for (std::size_t j = 0; j < s.n; ++j) {
                    double z = with_bias ? bias[j] : 0.0;
                    for (std::size_t p = 0; p < s.k; ++p) {
                        z += a.at(i, p) * b.at(p, j);
                    }
                    ASSERT_EQ(c.at(i, j), z)
                        << s.m << "x" << s.k << "x" << s.n << " at ("
                        << i << "," << j << ") bias=" << with_bias;
                }
            }
        }
    }
}

TEST(Kernels, GemmReluEpilogueMatchesSeparatePass)
{
    util::Rng rng(47);
    // k values cover the fused path (k % 4 == 0, incl. k == 4 where the
    // seed step is also the last), the unfused fallback (k % 4 != 0),
    // the scalar p-remainder seeding (k < 4), and the degenerate k == 0
    // bias-broadcast; odd m exercises the single-row remainder.
    const struct
    {
        std::size_t m, k, n;
    } shapes[] = {{6, 0, 5},  {5, 1, 9},   {4, 3, 7},  {3, 4, 6},
                  {7, 20, 64}, {5, 65, 33}, {2, 128, 8}};
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        std::vector<double> bias(s.n);
        for (double &v : bias) {
            v = rng.uniform(-1.0, 1.0);
        }
        for (int with_bias = 0; with_bias < 2; ++with_bias) {
            const double *bias_ptr = with_bias ? bias.data() : nullptr;
            Matrix plain(s.m, s.n);
            kernels::gemm(s.m, s.k, s.n, a.data().data(),
                          b.data().data(), plain.data().data(), bias_ptr);
            for (double &v : plain.data()) {
                v = std::max(0.0, v);
            }
            Matrix fused(s.m, s.n);
            kernels::gemm(s.m, s.k, s.n, a.data().data(),
                          b.data().data(), fused.data().data(), bias_ptr,
                          kernels::Epilogue::Relu);
            expectSameMatrix(plain, fused);
        }
    }
}

TEST(Kernels, TransposeRoundTrips)
{
    util::Rng rng(43);
    const Matrix a = randomMatrix(5, 9, rng);
    std::vector<double> t(9 * 5), back(5 * 9);
    kernels::transpose(5, 9, a.data().data(), t.data());
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 9; ++j) {
            EXPECT_EQ(t[j * 5 + i], a.at(i, j));
        }
    }
    kernels::transpose(9, 5, t.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i], a.data()[i]);
    }
}

TEST(Kernels, RowSquaredNormsMatchesScalarReference)
{
    util::Rng rng(44);
    const Matrix x = randomMatrix(7, 13, rng);
    std::vector<double> norms(7);
    kernels::rowSquaredNorms(7, 13, x.data().data(), norms.data());
    for (std::size_t i = 0; i < 7; ++i) {
        double z = 0.0;
        for (std::size_t d = 0; d < 13; ++d) {
            z += x.at(i, d) * x.at(i, d);
        }
        EXPECT_EQ(norms[i], z);
    }
}

// ---------------------------------------------------------------------
// Matrix::multiply vs the oracle, including degenerate shapes (edge
// shapes around the inner-dimension contract).

TEST(Kernels, MatrixMultiplyMatchesOracle)
{
    util::Rng rng(45);
    const struct
    {
        std::size_t m, k, n;
    } shapes[] = {{1, 1, 1}, {6, 70, 5}, {3, 64, 512}, {10, 3, 130}};
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        expectSameMatrix(oracle::multiplyNaive(a, b), Matrix::multiply(a, b));
    }
}

TEST(Kernels, MatrixMultiplyZeroSkipIsBitNeutral)
{
    // The oracle skips a[i][k] == 0.0 terms; the blocked GEMM adds them.
    // Adding 0.0 * b = +/-0.0 to a finite accumulator is a bitwise no-op
    // (an accumulator seeded +0.0 can never become -0.0), so a
    // zero-heavy matrix must still agree exactly.
    util::Rng rng(46);
    Matrix a = randomMatrix(8, 40, rng);
    for (std::size_t i = 0; i < a.data().size(); i += 3) {
        a.data()[i] = 0.0;
    }
    const Matrix b = randomMatrix(40, 17, rng);
    expectSameMatrix(oracle::multiplyNaive(a, b), Matrix::multiply(a, b));
}

TEST(Kernels, MatrixMultiplyDegenerateShapes)
{
    util::Rng rng(47);
    {
        // 0-row left operand: empty result with the right shape.
        const Matrix a(0, 4);
        const Matrix b = randomMatrix(4, 3, rng);
        const Matrix c = Matrix::multiply(a, b);
        EXPECT_EQ(c.rows(), 0U);
        EXPECT_EQ(c.cols(), 3U);
        expectSameMatrix(oracle::multiplyNaive(a, b), c);
    }
    {
        // 0-col right operand: rows of zero width.
        const Matrix a = randomMatrix(3, 4, rng);
        const Matrix b(4, 0);
        const Matrix c = Matrix::multiply(a, b);
        EXPECT_EQ(c.rows(), 3U);
        EXPECT_EQ(c.cols(), 0U);
        expectSameMatrix(oracle::multiplyNaive(a, b), c);
    }
    {
        // 0-length inner dimension: all-zero result.
        const Matrix a(3, 0);
        const Matrix b(0, 5);
        const Matrix c = Matrix::multiply(a, b);
        ASSERT_EQ(c.rows(), 3U);
        ASSERT_EQ(c.cols(), 5U);
        for (double v : c.data()) {
            EXPECT_EQ(v, 0.0);
        }
        expectSameMatrix(oracle::multiplyNaive(a, b), c);
    }
}

#ifndef NDEBUG
TEST(KernelsDeathTest, MatrixMultiplyInnerDimensionMismatchAsserts)
{
    const Matrix a(2, 3);
    const Matrix b(4, 2);
    EXPECT_DEATH((void)Matrix::multiply(a, b),
                 "inner dimensions must match");
}
#endif

// ---------------------------------------------------------------------
// MLP inference: batched forward vs the per-sample oracle.

MlpConfig
sigmoidConfig()
{
    MlpConfig config;
    config.input_dim = 12;
    config.hidden = {16, 8};
    config.output_dim = 1;
    config.output = OutputKind::Sigmoid;
    return config;
}

MlpConfig
softmaxConfig()
{
    MlpConfig config;
    config.input_dim = 10;
    config.hidden = {14};
    config.output_dim = 5;
    config.output = OutputKind::Softmax;
    return config;
}

void
expectForwardBatchMatchesOracle(const MlpConfig &config)
{
    util::Rng init_rng(48);
    const Mlp net(config, init_rng);
    util::Rng data_rng(49);
    const Matrix x = randomMatrix(
        37, static_cast<std::size_t>(config.input_dim), data_rng);

    // Oracle: per-sample scalar forward.
    Matrix expected(x.rows(),
                    static_cast<std::size_t>(config.output_dim));
    const oracle::NaiveMlp naive(net);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        naive.forward(x.row(i), expected.row(i));
    }

    ThreadGuard thread_guard;
    for (int threads : kThreadCounts) {
        util::setGlobalThreads(threads);
        // Whole-batch forward agrees.
        Matrix batched;
        net.forwardBatch(x, batched);
        expectSameMatrix(expected, batched);
        // Batch composition is irrelevant: splitting the batch at an
        // arbitrary point yields the same bits.
        for (std::size_t split : {std::size_t{1}, std::size_t{13}}) {
            Matrix pieces(x.rows(), batched.cols());
            net.forwardBatch(x.row(0), split, pieces.row(0));
            net.forwardBatch(x.row(split), x.rows() - split,
                             pieces.row(split));
            expectSameMatrix(expected, pieces);
        }
    }
}

TEST(MlpKernels, ForwardBatchSigmoidMatchesOracle)
{
    expectForwardBatchMatchesOracle(sigmoidConfig());
}

TEST(MlpKernels, ForwardBatchSoftmaxMatchesOracle)
{
    expectForwardBatchMatchesOracle(softmaxConfig());
}

TEST(MlpKernels, ForwardBatchZeroSamplesIsSafe)
{
    util::Rng rng(52);
    const Mlp net(sigmoidConfig(), rng);
    net.forwardBatch(nullptr, 0, nullptr);
    const Matrix empty(0, 12);
    Matrix out;
    net.forwardBatch(empty, out);
    EXPECT_EQ(out.rows(), 0U);
    EXPECT_EQ(out.cols(), 1U);
}

// ---------------------------------------------------------------------
// MLP training: GEMM-batched backprop vs the per-sample oracle. Every
// weight and bias must be bit-identical after identical training runs.

std::string
serialize(const Mlp &net)
{
    std::ostringstream os;
    net.save(os);
    return os.str();
}

void
expectTrainingMatchesOracle(const MlpConfig &config, bool soft_targets)
{
    util::Rng data_rng(53);
    const Matrix x = randomMatrix(
        150, static_cast<std::size_t>(config.input_dim), data_rng);
    std::vector<double> y(x.rows());
    for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = soft_targets
                   ? data_rng.uniform()
                   : static_cast<double>(data_rng.uniformInt(
                         0, config.output_dim - 1));
    }
    TrainOptions options;
    options.epochs = 3;
    options.batch_size = 32; // 150 % 32 != 0: exercises the tail batch

    util::Rng oracle_init(54), oracle_train(55);
    oracle::NaiveMlp naive{Mlp(config, oracle_init)};
    const double loss_naive = naive.train(x, y, options, oracle_train);

    ThreadGuard thread_guard;
    for (int threads : kThreadCounts) {
        util::setGlobalThreads(threads);
        util::Rng init_rng(54), train_rng(55);
        Mlp net(config, init_rng);
        const double loss = net.train(x, y, options, train_rng);
        EXPECT_EQ(loss_naive, loss) << "threads=" << threads;
        for (std::size_t l = 0; l < net.layerCount(); ++l) {
            expectSameMatrix(naive.weights(l), net.layerWeights(l));
            EXPECT_EQ(naive.bias(l), net.layerBias(l))
                << "layer " << l << " threads=" << threads;
        }
    }
}

TEST(MlpKernels, TrainSigmoidMatchesOracle)
{
    expectTrainingMatchesOracle(sigmoidConfig(), true);
}

TEST(MlpKernels, TrainSoftmaxMatchesOracle)
{
    expectTrainingMatchesOracle(softmaxConfig(), false);
}

TEST(MlpKernels, SaveLoadRoundTripsBitExactly)
{
    util::Rng init_rng(56), data_rng(57);
    Mlp net(sigmoidConfig(), init_rng);
    const Matrix x = randomMatrix(40, 12, data_rng);
    std::vector<double> y(x.rows(), 0.5);
    util::Rng train_rng(58);
    net.train(x, y, TrainOptions{}, train_rng);

    std::istringstream is(serialize(net));
    const Mlp loaded = Mlp::load(is);
    // The loaded network must serve the batched path (weights_t rebuilt
    // on load) with the same bits as the original.
    const Matrix probe = randomMatrix(9, 12, data_rng);
    Matrix a, b;
    net.forwardBatch(probe, a);
    loaded.forwardBatch(probe, b);
    expectSameMatrix(a, b);
}

// ---------------------------------------------------------------------
// K-means: norm-expansion Lloyd vs the per-point oracle, all metrics.

Matrix
clusteredData(util::Rng &rng, std::size_t per_cluster = 40,
              std::size_t dim = 16)
{
    // Three loose blobs plus uniform noise — enough structure for k-means
    // to be meaningful, enough overlap to exercise tie-ish distances.
    Matrix x(3 * per_cluster, dim);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const double center = static_cast<double>(i / per_cluster) - 1.0;
        for (std::size_t d = 0; d < dim; ++d) {
            x.at(i, d) = center + rng.normal(0.0, 0.45);
        }
    }
    return x;
}

void
expectKMeansMatchesOracle(Distance metric)
{
    util::Rng data_rng(59);
    const Matrix x = clusteredData(data_rng);
    util::Rng oracle_rng(60);
    const KMeansResult naive =
        oracle::kmeansNaive(x, 3, metric, 32, 2, oracle_rng);

    const KMeans km(3, metric, 32, 2);
    ThreadGuard thread_guard;
    for (int threads : kThreadCounts) {
        util::setGlobalThreads(threads);
        util::Rng rng(60);
        const KMeansResult fitted = km.fit(x, rng);
        EXPECT_EQ(naive.assignment, fitted.assignment)
            << distanceName(metric) << " threads=" << threads;
        EXPECT_EQ(naive.inertia, fitted.inertia)
            << distanceName(metric) << " threads=" << threads;
        expectSameMatrix(naive.centroids, fitted.centroids);
        // nearest() agrees with the fit's own assignment of every point.
        for (std::size_t i = 0; i < x.rows(); ++i) {
            ASSERT_EQ(fitted.nearest(x.row(i)), naive.assignment[i])
                << distanceName(metric) << " point " << i;
        }
    }
}

TEST(KMeansKernels, EuclideanMatchesOracle)
{
    expectKMeansMatchesOracle(Distance::Euclidean);
}

TEST(KMeansKernels, HammingMatchesOracle)
{
    expectKMeansMatchesOracle(Distance::Hamming);
}

TEST(KMeansKernels, CosineMatchesOracle)
{
    expectKMeansMatchesOracle(Distance::Cosine);
}

TEST(KMeansKernels, NearestSquaredDistanceSkipsSqrt)
{
    // satellite 1: the squared-distance argmin must pick the same
    // centroid (first-of-ties) as the sqrt'd distance comparison.
    util::Rng rng(61);
    KMeansResult result;
    result.k = 4;
    result.metric = Distance::Euclidean;
    result.centroids = randomMatrix(4, 8, rng);
    for (int probe = 0; probe < 200; ++probe) {
        std::vector<double> x(8);
        for (double &v : x) {
            v = rng.uniform(-2.0, 2.0);
        }
        int best = 0;
        double best_d = 0.0;
        for (int c = 0; c < 4; ++c) {
            const double d =
                KMeans::distance(x.data(), result.centroids.row(c), 8,
                                 Distance::Euclidean);
            if (c == 0 || d < best_d) {
                best_d = d;
                best = c;
            }
        }
        ASSERT_EQ(result.nearest(x.data()), best) << "probe " << probe;
    }
}

// ---------------------------------------------------------------------
// Transforms: batched standardize/project vs per-row oracle loops.

TEST(TransformKernels, StandardizerMatchesOracle)
{
    util::Rng rng(62);
    const Matrix train = randomMatrix(60, 14, rng);
    Standardizer scaler;
    scaler.fit(train);
    const Matrix probe = randomMatrix(25, 14, rng);
    const Matrix naive = oracle::standardizeNaive(scaler, probe);
    expectSameMatrix(naive, scaler.transform(probe));
    // Both agree with the in-place row transform.
    for (std::size_t i = 0; i < probe.rows(); ++i) {
        std::vector<double> row(probe.row(i), probe.row(i) + 14);
        scaler.transformRow(row.data());
        for (std::size_t d = 0; d < 14; ++d) {
            EXPECT_EQ(row[d], naive.at(i, d));
        }
    }
}

TEST(TransformKernels, PcaMatchesOracle)
{
    util::Rng rng(63);
    const Matrix train = randomMatrix(80, 12, rng);
    Pca pca;
    pca.fit(train, 5);
    const Matrix probe = randomMatrix(30, 12, rng);
    expectSameMatrix(oracle::pcaNaive(pca, probe), pca.transform(probe));
}

} // namespace
} // namespace kodan::ml
