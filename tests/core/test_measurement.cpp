/** @file Invariants of measured action tables (DeploymentEvaluator). */

#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "fixture.hpp"

namespace kodan::core {
namespace {

using kodan::testing::SharedPipeline;

TEST(MeasuredTables, SharesSumToOneAtEveryTiling)
{
    const auto &artifacts = SharedPipeline::instance().app4;
    for (const auto &table : artifacts.tables) {
        double total = 0.0;
        for (const auto &info : table.contexts) {
            EXPECT_GE(info.tile_share, 0.0);
            total += info.tile_share;
        }
        EXPECT_NEAR(total, 1.0, 1e-9)
            << "tiling " << table.tiles_per_side;
    }
}

TEST(MeasuredTables, EveryContextOffersElisionActions)
{
    const auto &artifacts = SharedPipeline::instance().app4;
    for (const auto &table : artifacts.tables) {
        for (int c = 0; c < table.contextCount(); ++c) {
            EXPECT_GE(table.findAction(c, {ActionKind::Discard, -1}), 0);
            EXPECT_GE(table.findAction(c, {ActionKind::Downlink, -1}), 0);
        }
    }
}

TEST(MeasuredTables, StatsAreWellFormed)
{
    const auto &artifacts = SharedPipeline::instance().app4;
    for (const auto &table : artifacts.tables) {
        for (int c = 0; c < table.contextCount(); ++c) {
            if (table.contexts[c].tile_share <= 0.0) {
                continue;
            }
            for (std::size_t a = 0; a < table.stats[c].size(); ++a) {
                const auto &stats = table.stats[c][a];
                EXPECT_GE(stats.bits_fraction, 0.0);
                EXPECT_LE(stats.bits_fraction, 1.0 + 1e-9);
                EXPECT_GE(stats.high_fraction, 0.0);
                EXPECT_LE(stats.high_fraction,
                          stats.bits_fraction + 1e-9);
                EXPECT_GE(stats.cell_accuracy, 0.0);
                EXPECT_LE(stats.cell_accuracy, 1.0 + 1e-9);
                EXPECT_LE(stats.density(), 1.0 + 1e-9);
            }
        }
    }
}

TEST(MeasuredTables, DiscardKeepsNothingDownlinkKeepsEverything)
{
    const auto &artifacts = SharedPipeline::instance().app4;
    for (const auto &table : artifacts.tables) {
        for (int c = 0; c < table.contextCount(); ++c) {
            if (table.contexts[c].tile_share <= 0.0) {
                continue;
            }
            const int discard =
                table.findAction(c, {ActionKind::Discard, -1});
            const int downlink =
                table.findAction(c, {ActionKind::Downlink, -1});
            EXPECT_DOUBLE_EQ(table.stats[c][discard].bits_fraction, 0.0);
            EXPECT_NEAR(table.stats[c][downlink].bits_fraction, 1.0,
                        1e-9);
            // Downlinking raw yields the context's prevalence as its
            // high-value fraction.
            EXPECT_NEAR(table.stats[c][downlink].high_fraction,
                        table.contexts[c].prevalence, 1e-9);
            // Discard accuracy + downlink accuracy = 1 (complementary
            // all-negative / all-positive labelings).
            EXPECT_NEAR(table.stats[c][discard].cell_accuracy +
                            table.stats[c][downlink].cell_accuracy,
                        1.0, 1e-9);
        }
    }
}

TEST(MeasuredTables, ModelParamsMatchZooTier)
{
    const auto &artifacts = SharedPipeline::instance().app4;
    for (const auto &table : artifacts.tables) {
        for (int c = 0; c < table.contextCount(); ++c) {
            for (std::size_t a = 0; a < table.actions[c].size(); ++a) {
                const auto &action = table.actions[c][a];
                if (action.kind != ActionKind::RunModel) {
                    EXPECT_EQ(table.stats[c][a].model_params, 0U);
                    continue;
                }
                EXPECT_EQ(table.stats[c][a].model_params,
                          hw::CostModel::tierParamCount(
                              artifacts.zoo.entries[action.model].tier));
            }
        }
    }
}

TEST(MeasuredTables, MeasureModelOnTilesMatchesTableForWholeContext)
{
    // Measuring the reference model over all validation tiles by hand
    // must agree with the direct table at the same tiling.
    const auto &pipeline = SharedPipeline::instance();
    const auto &artifacts = pipeline.app4;
    const DeploymentEvaluator evaluator(&artifacts.zoo,
                                        pipeline.shared.engine.get());
    const data::Tiler tiler(4);
    std::vector<std::vector<data::TileData>> frame_tiles;
    std::vector<const data::TileData *> all;
    for (const auto &frame : pipeline.shared.val) {
        frame_tiles.push_back(tiler.tile(frame));
        for (const auto &tile : frame_tiles.back()) {
            all.push_back(&tile);
        }
    }
    const auto stats = evaluator.measureModelOnTiles(
        artifacts.zoo.reference, all, ml::precision());
    const auto table =
        evaluator.measureDirectTable(pipeline.shared.val, 4);
    EXPECT_NEAR(stats.bits_fraction, table.stats[0][0].bits_fraction,
                1e-9);
    EXPECT_NEAR(stats.cell_accuracy, table.stats[0][0].cell_accuracy,
                1e-9);
}

TEST(MeasuredTables, FinerTilingRaisesReferenceAccuracy)
{
    // With the decimation data path, the reference model's accuracy at
    // 121 tiles/frame is at least its accuracy at 9 tiles/frame.
    const auto &artifacts = SharedPipeline::instance().app4;
    double acc_121 = -1.0;
    double acc_9 = -1.0;
    for (const auto &table : artifacts.direct_tables) {
        const int tiles = table.tiles_per_side * table.tiles_per_side;
        if (tiles == 121) {
            acc_121 = table.stats[0][0].cell_accuracy;
        }
        if (tiles == 9) {
            acc_9 = table.stats[0][0].cell_accuracy;
        }
    }
    ASSERT_GE(acc_121, 0.0);
    ASSERT_GE(acc_9, 0.0);
    EXPECT_GT(acc_121, acc_9);
}

} // namespace
} // namespace kodan::core
