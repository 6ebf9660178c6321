/** @file Unit tests for model specialization. */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "core/specialize.hpp"
#include "fixture.hpp"

namespace kodan::core {
namespace {

using kodan::testing::SharedPipeline;

TEST(SpecializedZoo, ReferenceIsGlobalAndTopTier)
{
    const auto &zoo = SharedPipeline::instance().app4.zoo;
    ASSERT_FALSE(zoo.entries.empty());
    const auto &ref = zoo.entries[zoo.reference];
    EXPECT_EQ(ref.context, -1);
    EXPECT_EQ(ref.tier, 4);
}

TEST(SpecializedZoo, SpecializedTiersNeverExceedApplication)
{
    const auto &zoo = SharedPipeline::instance().app4.zoo;
    for (const auto &entry : zoo.entries) {
        EXPECT_GE(entry.tier, 1);
        EXPECT_LE(entry.tier, 4);
    }
}

TEST(SpecializedZoo, EveryLiveContextHasCandidates)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto &zoo = pipeline.app4.zoo;
    int contexts_with_models = 0;
    for (int c = 0; c < pipeline.shared.partition.context_count; ++c) {
        const auto candidates = zoo.candidatesFor(c);
        // Always at least the reference.
        EXPECT_GE(candidates.size(), 1U);
        if (candidates.size() > 1) {
            ++contexts_with_models;
        }
    }
    EXPECT_GE(contexts_with_models, 2);
}

TEST(SpecializedZoo, CandidatesForIncludesReference)
{
    const auto &zoo = SharedPipeline::instance().app4.zoo;
    for (int c = 0; c < 4; ++c) {
        const auto candidates = zoo.candidatesFor(c);
        bool has_reference = false;
        for (int entry : candidates) {
            if (zoo.entries[entry].context == -1) {
                has_reference = true;
            }
            // Candidates must be global or for this context.
            EXPECT_TRUE(zoo.entries[entry].context == -1 ||
                        zoo.entries[entry].context == c);
        }
        EXPECT_TRUE(has_reference);
    }
}

TEST(SpecializedZoo, PredictRowsIsProbability)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto &zoo = pipeline.app4.zoo;
    const data::Tiler tiler(4);
    const auto tiles = tiler.tile(pipeline.shared.val.front());
    constexpr auto kBlocks = static_cast<std::size_t>(data::kBlocksPerTile);
    std::vector<double> rows(kBlocks * data::kBlockInputDim);
    zoo.tileInputs(tiles[0], rows.data());
    std::vector<double> probs(kBlocks);
    for (std::size_t e = 0; e < zoo.entries.size(); ++e) {
        zoo.predictRows(static_cast<int>(e), rows.data(), kBlocks,
                        probs.data());
        for (const double p : probs) {
            ASSERT_GE(p, 0.0);
            ASSERT_LE(p, 1.0);
        }
    }
}

TEST(SpecializedZoo, TileInputsMatchPerBlockTransform)
{
    // tileInputs standardizes the tile-mean channels once per tile and
    // the visual channels in pairs; the oracle is blockInput() plus
    // transformRow() per block. Real tiles at three tilings, and one
    // tile carrying -0.0, +-inf, NaN, a subnormal and a huge value.
    const auto &pipeline = SharedPipeline::instance();
    const SpecializedZoo &zoo = pipeline.app4.zoo;
    std::vector<data::TileData> tiles;
    for (const int t_count : {11, 6, 3}) {
        const auto tiled =
            data::Tiler(t_count).tile(pipeline.shared.val[1]);
        tiles.insert(tiles.end(), tiled.begin(), tiled.end());
    }
    data::TileData special = tiles.back();
    const float values[] = {-0.0F,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            3.0e38F};
    for (std::size_t i = 0; i < special.block_features.size(); ++i) {
        if (i % 3 == 0) {
            special.block_features[i] = values[(i / 3) % std::size(values)];
        }
    }
    special.feature_mean[2] = -0.0;
    special.feature_mean[5] = std::numeric_limits<double>::infinity();
    tiles.push_back(special);

    constexpr std::size_t kRowDim = data::kBlockInputDim;
    std::vector<double> got(data::kBlocksPerTile * kRowDim);
    std::vector<double> want(data::kBlocksPerTile * kRowDim);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        zoo.tileInputs(tiles[t], got.data());
        for (int b = 0; b < data::kBlocksPerTile; ++b) {
            double *row = want.data() + static_cast<std::size_t>(b) * kRowDim;
            tiles[t].blockInput(b, row);
            zoo.scaler.transformRow(row);
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "tile " << t;
    }
}

TEST(SpecializedZoo, ReferenceModelBeatsChance)
{
    // The reference model's block predictions must correlate with truth:
    // measure cell accuracy through the evaluator on validation tiles.
    const auto &pipeline = SharedPipeline::instance();
    const DeploymentEvaluator evaluator(&pipeline.app4.zoo,
                                        pipeline.shared.engine.get());
    const auto table = evaluator.measureDirectTable(pipeline.shared.val, 4);
    EXPECT_GT(table.stats[0][0].cell_accuracy, 0.7);
}

TEST(ModelSpecializer, TruthLabelAblationTrains)
{
    const auto &pipeline = SharedPipeline::instance();
    SpecializeOptions options;
    options.labels_from_reference = false;
    options.max_train_blocks = 4000;
    options.train.epochs = 2;
    const ModelSpecializer specializer(Application{2}, options);
    util::Rng rng(5);
    const auto zoo = specializer.trainZoo(
        pipeline.shared.train_tiles, pipeline.shared.train_contexts,
        pipeline.shared.partition.context_count, rng);
    EXPECT_GE(zoo.entries.size(), 3U);
    EXPECT_EQ(zoo.entries[zoo.reference].tier, 2);
}

TEST(ModelSpecializer, SmallerAppHasFewerCandidateTiers)
{
    const auto &pipeline = SharedPipeline::instance();
    SpecializeOptions options;
    options.max_train_blocks = 4000;
    options.train.epochs = 2;
    const ModelSpecializer specializer(Application{1}, options);
    util::Rng rng(6);
    const auto zoo = specializer.trainZoo(
        pipeline.shared.train_tiles, pipeline.shared.train_contexts,
        pipeline.shared.partition.context_count, rng);
    // App 1 candidates collapse to tier {1}: one per live context + ref.
    for (const auto &entry : zoo.entries) {
        EXPECT_EQ(entry.tier, 1);
    }
}

} // namespace
} // namespace kodan::core
