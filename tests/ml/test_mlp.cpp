/** @file Unit tests for the MLP and its trainer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ml/mlp.hpp"

namespace kodan::ml {
namespace {

MlpConfig
binaryConfig(std::vector<int> hidden, int input_dim = 2)
{
    MlpConfig config;
    config.input_dim = input_dim;
    config.hidden = std::move(hidden);
    config.output_dim = 1;
    config.output = OutputKind::Sigmoid;
    return config;
}

TEST(Mlp, ParameterCountMatchesArchitecture)
{
    util::Rng rng(1);
    const Mlp net(binaryConfig({4, 3}), rng);
    // (2*4+4) + (4*3+3) + (3*1+1) = 12 + 15 + 4 = 31.
    EXPECT_EQ(net.parameterCount(), 31U);
}

TEST(Mlp, OutputIsProbability)
{
    util::Rng rng(2);
    const Mlp net(binaryConfig({8}), rng);
    Matrix inputs(12, 2);
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
        inputs.at(i, 0) = -3.0 + 0.5 * static_cast<double>(i);
        inputs.at(i, 1) = -inputs.at(i, 0);
    }
    Matrix probs;
    net.forwardBatch(inputs, probs);
    for (double p : probs.data()) {
        ASSERT_GE(p, 0.0);
        ASSERT_LE(p, 1.0);
    }
}

TEST(Mlp, LearnsLinearlySeparableProblem)
{
    util::Rng rng(3);
    Mlp net(binaryConfig({8}), rng);
    const int n = 400;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        x.at(i, 0) = rng.uniform(-1.0, 1.0);
        x.at(i, 1) = rng.uniform(-1.0, 1.0);
        y[i] = (x.at(i, 0) + x.at(i, 1) > 0.0) ? 1.0 : 0.0;
    }
    TrainOptions options;
    options.epochs = 40;
    const double loss = net.train(x, y, options, rng);
    EXPECT_LT(loss, 0.25);

    Matrix probs;
    net.forwardBatch(x, probs);
    int correct = 0;
    for (int i = 0; i < n; ++i) {
        if ((probs.at(i, 0) > 0.5) == (y[i] > 0.5)) {
            ++correct;
        }
    }
    EXPECT_GT(correct, 360);
}

TEST(Mlp, LearnsXorWithHiddenLayer)
{
    util::Rng rng(4);
    Mlp net(binaryConfig({16, 8}), rng);
    const int n = 600;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        x.at(i, 0) = rng.uniform(-1.0, 1.0);
        x.at(i, 1) = rng.uniform(-1.0, 1.0);
        y[i] = (x.at(i, 0) * x.at(i, 1) > 0.0) ? 1.0 : 0.0;
    }
    TrainOptions options;
    options.epochs = 120;
    options.learning_rate = 5e-3;
    net.train(x, y, options, rng);
    Matrix probs;
    net.forwardBatch(x, probs);
    int correct = 0;
    for (int i = 0; i < n; ++i) {
        if ((probs.at(i, 0) > 0.5) == (y[i] > 0.5)) {
            ++correct;
        }
    }
    EXPECT_GT(correct, 540); // 90%
}

TEST(Mlp, SoftLabelsSupported)
{
    util::Rng rng(5);
    Mlp net(binaryConfig({4}, 1), rng);
    const int n = 300;
    Matrix x(n, 1);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        x.at(i, 0) = rng.uniform(0.0, 1.0);
        y[i] = x.at(i, 0); // soft target = input
    }
    TrainOptions options;
    options.epochs = 80;
    net.train(x, y, options, rng);
    const double inputs[2] = {0.1, 0.9};
    double probs[2];
    net.forwardBatch(inputs, 2, probs);
    EXPECT_LT(probs[0], probs[1]);
}

TEST(Mlp, SoftmaxLearnsBlobs)
{
    util::Rng rng(6);
    MlpConfig config;
    config.input_dim = 2;
    config.hidden = {16};
    config.output_dim = 3;
    config.output = OutputKind::Softmax;
    Mlp net(config, rng);

    const double centers[3][2] = {{-2.0, 0.0}, {2.0, 0.0}, {0.0, 2.5}};
    const int n = 600;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        const int cls = i % 3;
        x.at(i, 0) = centers[cls][0] + rng.normal(0.0, 0.4);
        x.at(i, 1) = centers[cls][1] + rng.normal(0.0, 0.4);
        y[i] = cls;
    }
    TrainOptions options;
    options.epochs = 60;
    net.train(x, y, options, rng);

    Matrix probs;
    net.forwardBatch(x, probs);
    int correct = 0;
    for (int i = 0; i < n; ++i) {
        const double *row = probs.row(i);
        if (std::max_element(row, row + 3) - row ==
            static_cast<int>(y[i])) {
            ++correct;
        }
    }
    EXPECT_GT(correct, 570); // 95%
}

TEST(Mlp, SoftmaxOutputsSumToOne)
{
    util::Rng rng(7);
    MlpConfig config;
    config.input_dim = 3;
    config.hidden = {5};
    config.output_dim = 4;
    config.output = OutputKind::Softmax;
    const Mlp net(config, rng);
    const double input[3] = {0.2, -1.0, 0.5};
    double out[4];
    net.forwardBatch(input, 1, out);
    double sum = 0.0;
    for (double p : out) {
        ASSERT_GE(p, 0.0);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, SaveLoadRoundTrip)
{
    util::Rng rng(8);
    Mlp net(binaryConfig({6, 4}), rng);
    std::stringstream stream;
    net.save(stream);
    const Mlp loaded = Mlp::load(stream);
    EXPECT_EQ(loaded.parameterCount(), net.parameterCount());
    Matrix inputs(14, 2);
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
        inputs.at(i, 0) = -2.0 + 0.3 * static_cast<double>(i);
        inputs.at(i, 1) = inputs.at(i, 0) * 0.5;
    }
    Matrix expected, got;
    net.forwardBatch(inputs, expected);
    loaded.forwardBatch(inputs, got);
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
        EXPECT_NEAR(got.at(i, 0), expected.at(i, 0), 1e-12);
    }
}

TEST(Mlp, TrainingIsDeterministic)
{
    auto make_trained = [] {
        util::Rng rng(9);
        Mlp net(binaryConfig({6}), rng);
        Matrix x(50, 2);
        std::vector<double> y(50);
        util::Rng data_rng(10);
        for (int i = 0; i < 50; ++i) {
            x.at(i, 0) = data_rng.uniform(-1.0, 1.0);
            x.at(i, 1) = data_rng.uniform(-1.0, 1.0);
            y[i] = x.at(i, 0) > 0.0 ? 1.0 : 0.0;
        }
        TrainOptions options;
        options.epochs = 5;
        net.train(x, y, options, rng);
        return net;
    };
    const Mlp a = make_trained();
    const Mlp b = make_trained();
    const double input[2] = {0.3, -0.8};
    double pa = 0.0;
    double pb = 0.0;
    a.forwardBatch(input, 1, &pa);
    b.forwardBatch(input, 1, &pb);
    EXPECT_DOUBLE_EQ(pa, pb);
}

TEST(Mlp, DeeperModelsHaveMoreParameters)
{
    util::Rng rng(11);
    std::size_t prev = 0;
    for (const auto &hidden :
         {std::vector<int>{8}, std::vector<int>{16, 8},
          std::vector<int>{64, 32, 16}}) {
        const Mlp net(binaryConfig(hidden, 30), rng);
        EXPECT_GT(net.parameterCount(), prev);
        prev = net.parameterCount();
    }
}

} // namespace
} // namespace kodan::ml
