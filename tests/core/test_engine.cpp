/** @file Unit tests for the context engine. */

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "fixture.hpp"

namespace kodan::core {
namespace {

using kodan::testing::SharedPipeline;

TEST(ContextEngine, MatchesPartitionContextCount)
{
    const auto &pipeline = SharedPipeline::instance();
    EXPECT_EQ(pipeline.shared.engine->contextCount(),
              pipeline.shared.partition.context_count);
}

TEST(ContextEngine, HighAgreementWithPartition)
{
    const auto &pipeline = SharedPipeline::instance();
    // The engine imitates the truth-label clustering from features; the
    // paper relies on this being accurate and fast.
    EXPECT_GT(pipeline.shared.engine_agreement, 0.75);
}

TEST(ContextEngine, ClassifiesIntoValidRange)
{
    const auto &pipeline = SharedPipeline::instance();
    const data::Tiler tiler(4);
    std::vector<int> contexts;
    for (const auto &frame : pipeline.shared.val) {
        pipeline.shared.engine->classifyBatch(tiler.tile(frame), contexts);
        for (const int c : contexts) {
            ASSERT_GE(c, 0);
            ASSERT_LT(c, pipeline.shared.engine->contextCount());
        }
    }
}

TEST(ContextEngine, ClassificationIgnoresBatchComposition)
{
    // A tile's context is the same classified alone, again, or in a
    // batch with the rest of its frame.
    const auto &pipeline = SharedPipeline::instance();
    const data::Tiler tiler(4);
    const auto tiles = tiler.tile(pipeline.shared.val.front());
    std::vector<int> batch;
    pipeline.shared.engine->classifyBatch(tiles, batch);
    ASSERT_EQ(batch.size(), tiles.size());
    std::vector<int> alone;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        for (int pass = 0; pass < 2; ++pass) {
            pipeline.shared.engine->classifyBatch({tiles[t]}, alone);
            EXPECT_EQ(alone.at(0), batch[t]) << "tile " << t;
        }
    }
}

TEST(ContextEngine, AllContextsReachable)
{
    // Over the validation frames, every context should receive at least
    // one tile at the reference tiling (no dead contexts).
    const auto &pipeline = SharedPipeline::instance();
    std::vector<int> counts(pipeline.shared.engine->contextCount(), 0);
    const data::Tiler tiler(6);
    std::vector<int> contexts;
    for (const auto &frame : pipeline.shared.val) {
        pipeline.shared.engine->classifyBatch(tiler.tile(frame), contexts);
        for (const int c : contexts) {
            ++counts[c];
        }
    }
    int live = 0;
    for (int count : counts) {
        if (count > 0) {
            ++live;
        }
    }
    EXPECT_GE(live, pipeline.shared.engine->contextCount() - 1);
}

} // namespace
} // namespace kodan::core
