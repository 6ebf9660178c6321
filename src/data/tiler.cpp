#include "data/tiler.hpp"

#include <cassert>
#include <cmath>

namespace kodan::data {

int
TileData::blockOfCell(int local_r, int local_c) const
{
    assert(local_r >= 0 && local_r < cell_rows);
    assert(local_c >= 0 && local_c < cell_cols);
    const int br = local_r * kBlocksPerSide / cell_rows;
    const int bc = local_c * kBlocksPerSide / cell_cols;
    return br * kBlocksPerSide + bc;
}

void
TileData::blockInput(int block, double *out) const
{
    assert(block >= 0 && block < kBlocksPerTile);
    // Visual channels of the block: 0-6 plus the edge channel 9.
    const float *features =
        &block_features[static_cast<std::size_t>(block) * kFeatureDim];
    for (int ch = 0; ch < 7; ++ch) {
        out[ch] = features[ch];
    }
    out[7] = features[9];
    // Tile-level context: means of every channel (including the
    // ancillary map priors).
    for (int ch = 0; ch < kFeatureDim; ++ch) {
        out[kVisualDim + ch] = feature_mean[ch];
    }
}

Tiler::Tiler(int tiles_per_side)
    : tiles_per_side_(tiles_per_side)
{
    assert(tiles_per_side >= 1);
}

const std::array<int, 4> &
Tiler::paperTileCounts()
{
    static const std::array<int, 4> counts = {121, 36, 16, 9};
    return counts;
}

namespace {

/** Bind @p tile to its frame region: coordinates and cell extent. */
void
initTile(const FrameSample &frame, int t_count, int tr, int tc,
         TileData &tile)
{
    const int grid = frame.grid;
    tile.frame = &frame;
    tile.tiles_per_side = t_count;
    tile.tile_row = tr;
    tile.tile_col = tc;
    tile.cell_row0 = tr * grid / t_count;
    tile.cell_col0 = tc * grid / t_count;
    tile.cell_rows = (tr + 1) * grid / t_count - tile.cell_row0;
    tile.cell_cols = (tc + 1) * grid / t_count - tile.cell_col0;
    assert(tile.cell_rows >= 1 && tile.cell_cols >= 1);
}

/** Tile-wide statistics: feature mean/stddev, truth fractions, and
 *  the label vector (everything except the block arrays). */
void
tileStats(TileData &tile)
{
    const FrameSample &frame = *tile.frame;
    std::array<double, kFeatureDim> sum{};
    std::array<double, kFeatureDim> sum_sq{};
    int clear_cells = 0;
    std::array<int, kTerrainCount> terrain_count{};
    double brightness_sum = 0.0;
    double texture_sum = 0.0;

    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            const int fr = tile.cell_row0 + r;
            const int fc = tile.cell_col0 + c;
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                const double v = frame.featureAt(fr, fc, ch);
                sum[ch] += v;
                sum_sq[ch] += v * v;
            }
            if (!frame.cloudyAt(fr, fc)) {
                ++clear_cells;
            }
            ++terrain_count[static_cast<int>(frame.terrainAt(fr, fc))];
            brightness_sum += (frame.featureAt(fr, fc, 0) +
                               frame.featureAt(fr, fc, 1) +
                               frame.featureAt(fr, fc, 2)) /
                              3.0;
            texture_sum += frame.featureAt(fr, fc, 4);
        }
    }
    const double n = tile.cellCount();
    for (int ch = 0; ch < kFeatureDim; ++ch) {
        tile.feature_mean[ch] = sum[ch] / n;
        const double var = sum_sq[ch] / n -
                           tile.feature_mean[ch] * tile.feature_mean[ch];
        tile.feature_std[ch] = std::sqrt(std::max(0.0, var));
    }
    tile.high_value_fraction = clear_cells / n;

    // Truth-derived label vector (terrain mix, cloudiness, photo
    // statistics), mirroring the catalogue's classification vectors.
    for (int k = 0; k < kTerrainCount; ++k) {
        tile.label_vector[k] = terrain_count[k] / n;
    }
    tile.label_vector[kTerrainCount] = 1.0 - tile.high_value_fraction;
    tile.label_vector[kTerrainCount + 1] = brightness_sum / n;
    tile.label_vector[kTerrainCount + 2] = texture_sum / n;
}

/**
 * The runtime slice of tileStats(): feature mean/stddev only, with the
 * identical per-cell accumulation order (so the values are
 * bit-identical), skipping the truth-derived training bookkeeping
 * (terrain mix, cloud count, brightness/texture sums). Those fields
 * are zeroed, never left stale, because tiles recycle through the
 * data plane's FrameWorks.
 */
void
tileRuntimeStats(TileData &tile)
{
    const FrameSample &frame = *tile.frame;
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
        tile.feature_mean[ch] = sum[ch] / n;
        const double var = sum_sq[ch] / n -
                           tile.feature_mean[ch] * tile.feature_mean[ch];
        tile.feature_std[ch] = std::sqrt(std::max(0.0, var));
    }
    tile.high_value_fraction = 0.0;
    tile.label_vector.fill(0.0);
}

} // namespace

void
Tiler::decimate(TileData &tile)
{
    const FrameSample &frame = *tile.frame;
    // Decimate: box-average cells into the fixed block grid. assign()
    // reuses the arrays' capacity, so recycled tiles stay heap-free.
    tile.block_features.assign(
        static_cast<std::size_t>(kBlocksPerTile) * kFeatureDim, 0.0F);
    tile.block_cloud_fraction.assign(kBlocksPerTile, 0.0F);
    std::array<int, kBlocksPerTile> block_cells{};
    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            const int block = tile.blockOfCell(r, c);
            const int fr = tile.cell_row0 + r;
            const int fc = tile.cell_col0 + c;
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                tile.block_features[static_cast<std::size_t>(block) *
                                        kFeatureDim +
                                    ch] +=
                    static_cast<float>(frame.featureAt(fr, fc, ch));
            }
            if (frame.cloudyAt(fr, fc)) {
                tile.block_cloud_fraction[block] += 1.0F;
            }
            ++block_cells[block];
        }
    }
    for (int b = 0; b < kBlocksPerTile; ++b) {
        // Blocks can be empty when a tile has fewer cells per side
        // than the block grid (upsampling); copy the containing
        // cell's values instead.
        if (block_cells[b] == 0) {
            const int br = b / kBlocksPerSide;
            const int bc = b % kBlocksPerSide;
            const int r = br * tile.cell_rows / kBlocksPerSide;
            const int c = bc * tile.cell_cols / kBlocksPerSide;
            const int fr = tile.cell_row0 + r;
            const int fc = tile.cell_col0 + c;
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                tile.block_features[static_cast<std::size_t>(b) *
                                        kFeatureDim +
                                    ch] =
                    static_cast<float>(frame.featureAt(fr, fc, ch));
            }
            tile.block_cloud_fraction[b] =
                frame.cloudyAt(fr, fc) ? 1.0F : 0.0F;
            continue;
        }
        const float inv = 1.0F / static_cast<float>(block_cells[b]);
        for (int ch = 0; ch < kFeatureDim; ++ch) {
            tile.block_features[static_cast<std::size_t>(b) *
                                    kFeatureDim +
                                ch] *= inv;
        }
        tile.block_cloud_fraction[b] *= inv;
    }
}

std::vector<TileData>
Tiler::tile(const FrameSample &frame) const
{
    const int t_count = tiles_per_side_;
    assert(frame.grid >= 1);

    std::vector<TileData> tiles(static_cast<std::size_t>(t_count) *
                                t_count);
    for (int tr = 0; tr < t_count; ++tr) {
        for (int tc = 0; tc < t_count; ++tc) {
            TileData &tile =
                tiles[static_cast<std::size_t>(tr) * t_count + tc];
            initTile(frame, t_count, tr, tc, tile);
            tileStats(tile);
            decimate(tile);
        }
    }
    return tiles;
}

void
Tiler::statsInto(const FrameSample &frame,
                 std::vector<TileData> &tiles) const
{
    const int t_count = tiles_per_side_;
    assert(frame.grid >= 1);

    // resize() keeps each surviving element's heap buffers, so a warmed
    // vector is refilled without allocation; every field below is
    // overwritten, so recycled tiles carry no stale state.
    tiles.resize(static_cast<std::size_t>(t_count) * t_count);

    for (int tr = 0; tr < t_count; ++tr) {
        for (int tc = 0; tc < t_count; ++tc) {
            TileData &tile =
                tiles[static_cast<std::size_t>(tr) * t_count + tc];
            initTile(frame, t_count, tr, tc, tile);
            tileRuntimeStats(tile);
            // Recycled tiles may carry a previous frame's block grid;
            // clear() (capacity kept) marks them not-yet-decimated.
            tile.block_features.clear();
            tile.block_cloud_fraction.clear();
        }
    }
}

} // namespace kodan::data
