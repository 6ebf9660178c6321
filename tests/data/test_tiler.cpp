/** @file Unit tests for frame tiling and decimation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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

// More tiles per side than the frame has cells would leave tiles with
// no cells and NaN means: both tiling paths die through util::fatal,
// naming the tiling and the grid, before the first tile.
TEST(TilerDeathTest, MoreTilesPerSideThanGridCellsDies)
{
    const FrameSample frame = testFrame(4);
    const Tiler tiler(5);
    EXPECT_EXIT(tiler.tile(frame), ::testing::ExitedWithCode(1),
                "5 tiles per side need a frame grid of at least 5 cells "
                "per side, got 4");
    std::vector<TileData> tiles;
    EXPECT_EXIT(tiler.statsInto(frame, tiles),
                ::testing::ExitedWithCode(1),
                "5 tiles per side need a frame grid of at least 5 cells "
                "per side, got 4");
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

/**
 * The scalar tile statistics and decimation loops the tiler ran before
 * its per-cell rewrite, kept as the oracle: per-channel sums over the
 * tile's cells in row-major order, and per-block float sums located by
 * blockOfCell(), scaled by the reciprocal cell count.
 */
struct OracleTile
{
    std::array<double, kFeatureDim> mean{};
    std::array<double, kFeatureDim> stddev{};
    std::vector<float> block_features;
    std::vector<float> block_cloud_fraction;
};

OracleTile
oracleTile(const TileData &tile)
{
    const FrameSample &frame = *tile.frame;
    OracleTile out;
    std::array<double, kFeatureDim> sum{};
    std::array<double, kFeatureDim> sum_sq{};
    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            const int fr = tile.cell_row0 + r;
            const int fc = tile.cell_col0 + c;
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                const double v = frame.featureAt(fr, fc, ch);
                sum[ch] += v;
                sum_sq[ch] += v * v;
            }
        }
    }
    const double n = tile.cellCount();
    for (int ch = 0; ch < kFeatureDim; ++ch) {
        out.mean[ch] = sum[ch] / n;
        const double var = sum_sq[ch] / n - out.mean[ch] * out.mean[ch];
        out.stddev[ch] = std::sqrt(std::max(0.0, var));
    }

    out.block_features.assign(
        static_cast<std::size_t>(kBlocksPerTile) * kFeatureDim, 0.0F);
    out.block_cloud_fraction.assign(kBlocksPerTile, 0.0F);
    std::array<int, kBlocksPerTile> block_cells{};
    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            const int block = tile.blockOfCell(r, c);
            const int fr = tile.cell_row0 + r;
            const int fc = tile.cell_col0 + c;
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                out.block_features[static_cast<std::size_t>(block) *
                                       kFeatureDim +
                                   ch] +=
                    static_cast<float>(frame.featureAt(fr, fc, ch));
            }
            if (frame.cloudyAt(fr, fc)) {
                out.block_cloud_fraction[block] += 1.0F;
            }
            ++block_cells[block];
        }
    }
    for (int b = 0; b < kBlocksPerTile; ++b) {
        float *block =
            &out.block_features[static_cast<std::size_t>(b) * kFeatureDim];
        if (block_cells[b] == 0) {
            const int r = b / kBlocksPerSide * tile.cell_rows /
                          kBlocksPerSide;
            const int c = b % kBlocksPerSide * tile.cell_cols /
                          kBlocksPerSide;
            const int fr = tile.cell_row0 + r;
            const int fc = tile.cell_col0 + c;
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                block[ch] = static_cast<float>(frame.featureAt(fr, fc, ch));
            }
            out.block_cloud_fraction[b] = frame.cloudyAt(fr, fc) ? 1.0F
                                                                 : 0.0F;
            continue;
        }
        const float inv = 1.0F / static_cast<float>(block_cells[b]);
        for (int ch = 0; ch < kFeatureDim; ++ch) {
            block[ch] *= inv;
        }
        out.block_cloud_fraction[b] *= inv;
    }
    return out;
}

template <typename T>
bool
sameBits(const T *a, const T *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(T)) == 0;
}

/**
 * Overwrite some cells' channels with values the arithmetic must carry
 * through unchanged: -0.0, +-inf, NaN, subnormals and huge magnitudes.
 * Each special value i sits on its own channel i in a different frame
 * row band, so no tile or block sums two non-finite values of one
 * channel (whose NaN sign would then follow operand order, not the
 * algorithm). Finite specials are also sprinkled over every 7th cell.
 */
void
injectSpecialValues(FrameSample &frame)
{
    const float specials[] = {-0.0F,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::denorm_min(),
                              -1.0e-40F,
                              3.0e38F,
                              -3.0e38F};
    constexpr int kCount = static_cast<int>(std::size(specials));
    const auto set = [&](int r, int c, int ch, float v) {
        frame.features[(static_cast<std::size_t>(r) * frame.grid + c) *
                           kFeatureDim +
                       ch] = v;
    };
    for (int i = 0; i < kCount; ++i) {
        set(i * frame.grid / kCount, (5 * i + 3) % frame.grid, i,
            specials[i]);
    }
    const float finite[] = {-0.0F, 1.0e-40F, -1.0e-42F, 3.0e38F, -2.5e38F};
    for (int cell = 1; cell < frame.grid * frame.grid; cell += 7) {
        set(cell / frame.grid, cell % frame.grid, kCount + cell % 2,
            finite[cell % std::size(finite)]);
    }
    // A 2 x 2 cell patch of -0.0 on channel 3: blocks of one or more
    // cells average it to +0.0; an empty block copies -0.0.
    for (int r = 10; r < 12; ++r) {
        for (int c = 20; c < 22; ++c) {
            set(r, c, 3, -0.0F);
        }
    }
}

TEST(Tiler, LazyStatsAndDecimateMatchEagerTilingBitExactly)
{
    // Uneven tiles (T = 3 on 44), one cell per block (T = 11 on 88,
    // the deployed shape) and fewer cells than blocks per side (T = 13
    // on 37: empty blocks copy their containing cell).
    for (const auto &[grid, t_count] :
         {std::pair{44, 3}, std::pair{88, 11}, std::pair{37, 13}}) {
        SCOPED_TRACE("grid " + std::to_string(grid) + ", T " +
                     std::to_string(t_count));
        FrameSample frame = testFrame(grid);
        injectSpecialValues(frame);
        const Tiler tiler(t_count);
        const auto eager = tiler.tile(frame);

        // Warm the lazy vector with an eager pass first so statsInto
        // must overwrite recycled state (populated block arrays, truth
        // fields), as recycled FrameWorks do in the data plane.
        std::vector<TileData> lazy = tiler.tile(frame);
        tiler.statsInto(frame, lazy);

        ASSERT_EQ(lazy.size(), eager.size());
        for (std::size_t i = 0; i < lazy.size(); ++i) {
            SCOPED_TRACE("tile " + std::to_string(i));
            TileData &tile = lazy[i];
            const OracleTile want = oracleTile(eager[i]);
            // Stats are bit-identical to the oracle in both forms;
            // block arrays are the not-yet-decimated sentinel; truth
            // fields are zeroed.
            for (const TileData *got :
                 std::array<const TileData *, 2>{&eager[i], &tile}) {
                EXPECT_TRUE(sameBits(got->feature_mean.data(),
                                     want.mean.data(), kFeatureDim));
                EXPECT_TRUE(sameBits(got->feature_std.data(),
                                     want.stddev.data(), kFeatureDim));
            }
            EXPECT_TRUE(tile.block_features.empty());
            EXPECT_TRUE(tile.block_cloud_fraction.empty());
            EXPECT_EQ(tile.high_value_fraction, 0.0);
            for (double v : tile.label_vector) {
                EXPECT_EQ(v, 0.0);
            }
            // Eager and on-demand decimation reproduce the oracle's
            // block arrays bit-exactly, and decimate() is idempotent.
            const auto check_blocks = [&](const TileData &got) {
                ASSERT_EQ(got.block_features.size(),
                          want.block_features.size());
                EXPECT_TRUE(sameBits(got.block_features.data(),
                                     want.block_features.data(),
                                     want.block_features.size()));
                ASSERT_EQ(got.block_cloud_fraction.size(),
                          want.block_cloud_fraction.size());
                EXPECT_TRUE(sameBits(got.block_cloud_fraction.data(),
                                     want.block_cloud_fraction.data(),
                                     want.block_cloud_fraction.size()));
            };
            check_blocks(eager[i]);
            for (int pass = 0; pass < 2; ++pass) {
                Tiler::decimate(tile);
                check_blocks(tile);
            }
        }
        // The specials reached the statistics: channels 1-3 carry
        // +inf, -inf and NaN means in some tile.
        const auto some_mean = [&](int ch, auto pred) {
            return std::any_of(eager.begin(), eager.end(),
                               [&](const TileData &t) {
                                   return pred(t.feature_mean[ch]);
                               });
        };
        EXPECT_TRUE(some_mean(1, [](double m) { return m > 1e308; }));
        EXPECT_TRUE(some_mean(2, [](double m) { return m < -1e308; }));
        EXPECT_TRUE(some_mean(3, [](double m) { return std::isnan(m); }));
    }
}

TEST(Tiler, BlockTruthCountsTheCellsOfEachBlock)
{
    for (const auto &[grid, t_count] :
         {std::pair{44, 3}, std::pair{88, 11}, std::pair{37, 13}}) {
        const FrameSample frame = testFrame(grid);
        for (const TileData &tile : Tiler(t_count).tile(frame)) {
            std::array<int, kBlocksPerTile> want_high{};
            std::array<int, kBlocksPerTile> want_cells{};
            for (int r = 0; r < tile.cell_rows; ++r) {
                for (int c = 0; c < tile.cell_cols; ++c) {
                    const int block = tile.blockOfCell(r, c);
                    ++want_cells[block];
                    want_high[block] += tile.cloudyLocal(r, c) ? 0 : 1;
                }
            }
            std::array<int, kBlocksPerTile> high{};
            std::array<int, kBlocksPerTile> cells{};
            tile.blockTruth(high, cells);
            EXPECT_EQ(high, want_high);
            EXPECT_EQ(cells, want_cells);
            int tile_high = 0;
            for (int h : want_high) {
                tile_high += h;
            }
            EXPECT_EQ(tile.highCells(), tile_high);
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
