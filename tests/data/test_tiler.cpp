/** @file Unit tests for frame tiling and decimation. */

#include <gtest/gtest.h>

#include <cmath>

#include "data/generator.hpp"
#include "data/tiler.hpp"

namespace kodan::data {
namespace {

FrameSample
testFrame(int grid = 44)
{
    DatasetParams params;
    params.grid = grid;
    params.seed = 5;
    DatasetGenerator gen(GeoModel{}, params);
    return gen.makeFrame(0.4, 1.2, 0.0);
}

TEST(Tiler, ProducesTilesPerFrame)
{
    const FrameSample frame = testFrame();
    for (int t : {1, 2, 3, 4, 6, 11}) {
        const Tiler tiler(t);
        EXPECT_EQ(tiler.tile(frame).size(),
                  static_cast<std::size_t>(t) * t);
        EXPECT_EQ(tiler.tilesPerFrame(), t * t);
    }
}

TEST(Tiler, TilesPartitionTheFrameExactly)
{
    const FrameSample frame = testFrame(44);
    const Tiler tiler(3); // 44 not divisible by 3: uneven tiles
    const auto tiles = tiler.tile(frame);
    int covered = 0;
    for (const auto &tile : tiles) {
        covered += tile.cellCount();
        EXPECT_GE(tile.cell_rows, 14);
        EXPECT_LE(tile.cell_rows, 15);
    }
    EXPECT_EQ(covered, 44 * 44);
}

TEST(Tiler, TileStatsMatchDirectComputation)
{
    const FrameSample frame = testFrame(24);
    const Tiler tiler(2);
    const auto tiles = tiler.tile(frame);
    const auto &tile = tiles[0];
    double sum = 0.0;
    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            sum += frame.featureAt(tile.cell_row0 + r, tile.cell_col0 + c,
                                   0);
        }
    }
    EXPECT_NEAR(tile.feature_mean[0], sum / tile.cellCount(), 1e-9);
}

TEST(Tiler, HighValueFractionMatchesTruth)
{
    const FrameSample frame = testFrame(24);
    const Tiler tiler(2);
    const auto tiles = tiler.tile(frame);
    double weighted = 0.0;
    for (const auto &tile : tiles) {
        weighted += tile.high_value_fraction * tile.cellCount();
    }
    EXPECT_NEAR(weighted / frame.cellCount(), frame.highValueFraction(),
                1e-9);
}

TEST(Tiler, LabelVectorIsNormalized)
{
    const FrameSample frame = testFrame();
    const Tiler tiler(4);
    for (const auto &tile : tiler.tile(frame)) {
        double terrain_sum = 0.0;
        for (int k = 0; k < kTerrainCount; ++k) {
            ASSERT_GE(tile.label_vector[k], 0.0);
            terrain_sum += tile.label_vector[k];
        }
        EXPECT_NEAR(terrain_sum, 1.0, 1e-9);
        EXPECT_NEAR(tile.label_vector[kTerrainCount],
                    1.0 - tile.high_value_fraction, 1e-9);
    }
}

TEST(Tiler, BlockCloudFractionAveragesTruth)
{
    const FrameSample frame = testFrame(32);
    const Tiler tiler(2); // 16 cells per tile side -> 2x2 cells per block
    const auto tiles = tiler.tile(frame);
    const auto &tile = tiles[0];
    // Recompute block 0's cloud fraction by hand.
    double cloudy = 0.0;
    int count = 0;
    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            if (tile.blockOfCell(r, c) == 0) {
                cloudy += tile.cloudyLocal(r, c) ? 1.0 : 0.0;
                ++count;
            }
        }
    }
    ASSERT_GT(count, 0);
    EXPECT_NEAR(tile.block_cloud_fraction[0], cloudy / count, 1e-6);
}

TEST(Tiler, DecimationAveragesFeatures)
{
    const FrameSample frame = testFrame(32);
    const Tiler tiler(2);
    const auto tiles = tiler.tile(frame);
    const auto &tile = tiles[0];
    double sum = 0.0;
    int count = 0;
    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            if (tile.blockOfCell(r, c) == 0) {
                sum += frame.featureAt(tile.cell_row0 + r,
                                       tile.cell_col0 + c, 3);
                ++count;
            }
        }
    }
    EXPECT_NEAR(tile.block_features[3], sum / count, 1e-4);
}

TEST(Tiler, LazyStatsAndDecimateMatchEagerTilingBitExactly)
{
    const FrameSample frame = testFrame(44);
    const Tiler tiler(3); // uneven tiles exercise the geometry paths
    const auto eager = tiler.tile(frame);

    // Warm the lazy vector with an eager pass first so statsInto must
    // overwrite recycled state (populated block arrays, truth fields),
    // as recycled FrameWorks do in the data plane.
    std::vector<TileData> lazy = tiler.tile(frame);
    tiler.statsInto(frame, lazy);

    ASSERT_EQ(lazy.size(), eager.size());
    for (std::size_t i = 0; i < lazy.size(); ++i) {
        TileData &tile = lazy[i];
        // Stats are bit-identical; block arrays are the
        // not-yet-decimated sentinel; truth fields are zeroed.
        for (int ch = 0; ch < kFeatureDim; ++ch) {
            EXPECT_EQ(tile.feature_mean[ch], eager[i].feature_mean[ch]);
            EXPECT_EQ(tile.feature_std[ch], eager[i].feature_std[ch]);
        }
        EXPECT_TRUE(tile.block_features.empty());
        EXPECT_TRUE(tile.block_cloud_fraction.empty());
        EXPECT_EQ(tile.high_value_fraction, 0.0);
        for (double v : tile.label_vector) {
            EXPECT_EQ(v, 0.0);
        }
        // On-demand decimation reproduces the eager block arrays
        // bit-exactly, and is idempotent.
        for (int pass = 0; pass < 2; ++pass) {
            Tiler::decimate(tile);
            ASSERT_EQ(tile.block_features.size(),
                      eager[i].block_features.size());
            for (std::size_t b = 0; b < tile.block_features.size(); ++b) {
                EXPECT_EQ(tile.block_features[b],
                          eager[i].block_features[b]);
            }
            ASSERT_EQ(tile.block_cloud_fraction.size(),
                      eager[i].block_cloud_fraction.size());
            for (std::size_t b = 0; b < tile.block_cloud_fraction.size();
                 ++b) {
                EXPECT_EQ(tile.block_cloud_fraction[b],
                          eager[i].block_cloud_fraction[b]);
            }
        }
    }
}

TEST(Tiler, UpsamplingWhenTileSmallerThanBlockGrid)
{
    // 16-cell frame at T=4 -> 4 cells per tile side < 8 blocks per side.
    const FrameSample frame = testFrame(16);
    const Tiler tiler(4);
    const auto tiles = tiler.tile(frame);
    for (const auto &tile : tiles) {
        EXPECT_EQ(tile.cell_rows, 4);
        for (int b = 0; b < kBlocksPerTile; ++b) {
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                ASSERT_TRUE(std::isfinite(
                    tile.block_features[b * kFeatureDim + ch]));
            }
            ASSERT_GE(tile.block_cloud_fraction[b], 0.0);
            ASSERT_LE(tile.block_cloud_fraction[b], 1.0);
        }
    }
}

TEST(Tiler, BlockInputLayout)
{
    const FrameSample frame = testFrame(32);
    const Tiler tiler(2);
    const auto tiles = tiler.tile(frame);
    const auto &tile = tiles[1];
    double input[kBlockInputDim];
    tile.blockInput(5, input);
    // Visual channels 0-6, then the edge channel 9, then tile means.
    for (int ch = 0; ch < 7; ++ch) {
        EXPECT_DOUBLE_EQ(input[ch],
                         tile.block_features[5 * kFeatureDim + ch]);
    }
    EXPECT_DOUBLE_EQ(input[7], tile.block_features[5 * kFeatureDim + 9]);
    for (int ch = 0; ch < kFeatureDim; ++ch) {
        EXPECT_DOUBLE_EQ(input[kVisualDim + ch], tile.feature_mean[ch]);
    }
}

TEST(Tiler, PaperTileCounts)
{
    const auto &counts = Tiler::paperTileCounts();
    EXPECT_EQ(counts.size(), 4U);
    EXPECT_EQ(counts[0], 121);
    EXPECT_EQ(counts[3], 9);
    for (int count : counts) {
        const int side = static_cast<int>(std::lround(std::sqrt(count)));
        EXPECT_EQ(side * side, count) << "paper counts are squares";
    }
}

/** Property sweep: every tiling covers every cell exactly once. */
class TilerPartition : public ::testing::TestWithParam<int>
{
};

TEST_P(TilerPartition, EveryCellInExactlyOneTile)
{
    const FrameSample frame = testFrame(44);
    const Tiler tiler(GetParam());
    std::vector<int> covered(frame.cellCount(), 0);
    for (const auto &tile : tiler.tile(frame)) {
        for (int r = 0; r < tile.cell_rows; ++r) {
            for (int c = 0; c < tile.cell_cols; ++c) {
                ++covered[(tile.cell_row0 + r) * frame.grid +
                          (tile.cell_col0 + c)];
            }
        }
    }
    for (int count : covered) {
        ASSERT_EQ(count, 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Tilings, TilerPartition,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 11));

} // namespace
} // namespace kodan::data
