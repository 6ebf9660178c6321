#include "data/tiler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/log.hpp"

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

/**
 * Block boundaries along one tile side: block b covers the tile-local
 * cells [edges[b], edges[b + 1]) of that side, exactly the cells
 * TileData::blockOfCell() maps to it. A block is empty when the side
 * has fewer cells than blocks.
 */
using BlockEdges = std::array<int, kBlocksPerSide + 1>;

/** The block boundaries of a tile side of @p cells cells. */
BlockEdges
blockEdges(int cells)
{
    // Cell i lies in block i * kBlocksPerSide / cells, so block b
    // starts at the first i with i * kBlocksPerSide >= b * cells.
    BlockEdges edges{};
    for (int b = 0; b <= kBlocksPerSide; ++b) {
        edges[b] = (b * cells + kBlocksPerSide - 1) / kBlocksPerSide;
    }
    return edges;
}

/**
 * Every tile needs at least one cell per side, or its statistics are
 * means over nothing: a frame grid coarser than the tiling dies through
 * util::fatal. Checked once per frame, so initTile() may assume it.
 */
void
requireCellsPerTile(const FrameSample &frame, int t_count)
{
    if (frame.grid < t_count) {
        util::fatal("Tiler: " + std::to_string(t_count) +
                    " tiles per side need a frame grid of at least " +
                    std::to_string(t_count) + " cells per side, got " +
                    std::to_string(frame.grid));
    }
}

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

/** The truth-derived training fields of a tile: high-value fraction
 *  and the label vector. */
void
tileTruthStats(TileData &tile)
{
    const FrameSample &frame = *tile.frame;
    int clear_cells = 0;
    std::array<int, kTerrainCount> terrain_count{};
    double brightness_sum = 0.0;
    double texture_sum = 0.0;

    for (int r = 0; r < tile.cell_rows; ++r) {
        for (int c = 0; c < tile.cell_cols; ++c) {
            const int fr = tile.cell_row0 + r;
            const int fc = tile.cell_col0 + c;
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

static_assert(kFeatureDim == 10,
              "the stats hold a cell's channels as 5 pairs of doubles");

#if defined(__SSE2__)
/** The two floats at @p p in the low lanes, zeros above. */
inline __m128
loadPair(const float *p)
{
    return _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
}

/** sum += v and sum_sq += v * v for the channel pair at @p p. */
inline void
addPair(__m128d &sum, __m128d &sum_sq, const float *p)
{
    const __m128d v = _mm_cvtps_pd(loadPair(p));
    sum = _mm_add_pd(sum, v);
    sum_sq = _mm_add_pd(sum_sq, _mm_mul_pd(v, v));
}
#endif

/**
 * Feature mean/stddev of @p tile, bound by initTile: per channel, the
 * cells' sum and sum of squares in double, in row-major cell order
 * (`sum += v; sum_sq += v * v`), vectorized across channels only.
 * The SSE2 body keeps all 20 accumulators in 10 registers; GCC's
 * vectorized form of the scalar loop spills two of them, which cost
 * ~4% of `frames_fp64` throughput. Targets without SSE2 build the
 * scalar loop, which scripts/ci.sh tests with __SSE2__ undefined.
 */
void
tileFeatureStats(TileData &tile)
{
    const FrameSample &frame = *tile.frame;
    const std::size_t stride =
        static_cast<std::size_t>(frame.grid) * kFeatureDim;
    const float *row =
        &frame.features[(static_cast<std::size_t>(tile.cell_row0) *
                             frame.grid +
                         static_cast<std::size_t>(tile.cell_col0)) *
                        kFeatureDim];
    std::array<double, kFeatureDim> sum{};
    std::array<double, kFeatureDim> sum_sq{};
#if defined(__SSE2__)
    __m128d s0 = _mm_setzero_pd();
    __m128d s1 = s0, s2 = s0, s3 = s0, s4 = s0;
    __m128d q0 = s0, q1 = s0, q2 = s0, q3 = s0, q4 = s0;
    for (int r = 0; r < tile.cell_rows; ++r, row += stride) {
        const float *cell = row;
        for (int c = 0; c < tile.cell_cols; ++c, cell += kFeatureDim) {
            addPair(s0, q0, cell);
            addPair(s1, q1, cell + 2);
            addPair(s2, q2, cell + 4);
            addPair(s3, q3, cell + 6);
            addPair(s4, q4, cell + 8);
        }
    }
    _mm_storeu_pd(&sum[0], s0);
    _mm_storeu_pd(&sum[2], s1);
    _mm_storeu_pd(&sum[4], s2);
    _mm_storeu_pd(&sum[6], s3);
    _mm_storeu_pd(&sum[8], s4);
    _mm_storeu_pd(&sum_sq[0], q0);
    _mm_storeu_pd(&sum_sq[2], q1);
    _mm_storeu_pd(&sum_sq[4], q2);
    _mm_storeu_pd(&sum_sq[6], q3);
    _mm_storeu_pd(&sum_sq[8], q4);
#else
    for (int r = 0; r < tile.cell_rows; ++r, row += stride) {
        const float *cell = row;
        for (int c = 0; c < tile.cell_cols; ++c, cell += kFeatureDim) {
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                const double v = cell[ch];
                sum[ch] += v;
                sum_sq[ch] += v * v;
            }
        }
    }
#endif
    const double n = tile.cellCount();
    for (int ch = 0; ch < kFeatureDim; ++ch) {
        tile.feature_mean[ch] = sum[ch] / n;
        const double var = sum_sq[ch] / n -
                           tile.feature_mean[ch] * tile.feature_mean[ch];
        tile.feature_std[ch] = std::sqrt(std::max(0.0, var));
    }
}

/**
 * Box-average one block: sum the channels of its @p rows x @p cols
 * cells (@p cells is its first cell, @p stride floats from one cell
 * row to the next) in row-major cell order, starting from 0.0F, and
 * write each channel's sum times @p scale to @p block.
 */
void
boxAverage(const float *cells, std::size_t stride, int rows, int cols,
           float scale, float *block)
{
    std::array<float, kFeatureDim> sum{};
    for (int r = 0; r < rows; ++r, cells += stride) {
        const float *cell = cells;
        for (int i = 0; i < cols; ++i, cell += kFeatureDim) {
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                sum[ch] += cell[ch];
            }
        }
    }
    for (int ch = 0; ch < kFeatureDim; ++ch) {
        block[ch] = sum[ch] * scale;
    }
}

/**
 * Decimate a tile of exactly one cell per block (kBlocksPerSide cells
 * per side; T = 11 on the 88-cell grid): each block's average is
 * 0.0F + v times 1.0F / 1.0F, and multiplying by 1.0F changes no bits,
 * so a block row is its cell row with 0.0F added.
 */
void
decimateOneCellBlocks(TileData &tile)
{
    const FrameSample &frame = *tile.frame;
    constexpr int kRowFloats = kBlocksPerSide * kFeatureDim;
    for (int r = 0; r < kBlocksPerSide; ++r) {
        const std::size_t cell0 =
            static_cast<std::size_t>(tile.cell_row0 + r) * frame.grid +
            static_cast<std::size_t>(tile.cell_col0);
        const float *cells = &frame.features[cell0 * kFeatureDim];
        float *blocks = &tile.block_features[static_cast<std::size_t>(r) *
                                             kRowFloats];
        for (int i = 0; i < kRowFloats; ++i) {
            blocks[i] = 0.0F + cells[i];
        }
        for (int c = 0; c < kBlocksPerSide; ++c) {
            tile.block_cloud_fraction[static_cast<std::size_t>(r) *
                                          kBlocksPerSide +
                                      c] =
                frame.cloudy[cell0 + c] != 0 ? 1.0F : 0.0F;
        }
    }
}

/** Zero bytes (high-value cells) among @p count truth-mask bytes. */
int
clearCells(const std::uint8_t *mask, int count)
{
    int clear = 0;
    for (int c = 0; c < count; ++c) {
        clear += mask[c] == 0 ? 1 : 0;
    }
    return clear;
}

} // namespace

int
TileData::highCells() const
{
    int high = 0;
    for (int r = 0; r < cell_rows; ++r) {
        high += clearCells(&frame->cloudy[static_cast<std::size_t>(
                                              cell_row0 + r) *
                                              frame->grid +
                                          cell_col0],
                           cell_cols);
    }
    return high;
}

void
TileData::blockTruth(std::array<int, kBlocksPerTile> &high,
                     std::array<int, kBlocksPerTile> &cells) const
{
    const BlockEdges rows = blockEdges(cell_rows);
    const BlockEdges cols = blockEdges(cell_cols);
    high.fill(0);
    for (int br = 0; br < kBlocksPerSide; ++br) {
        int *block_high = &high[static_cast<std::size_t>(br) *
                                kBlocksPerSide];
        for (int r = rows[br]; r < rows[br + 1]; ++r) {
            const std::uint8_t *mask =
                &frame->cloudy[static_cast<std::size_t>(cell_row0 + r) *
                                   frame->grid +
                               cell_col0];
            for (int bc = 0; bc < kBlocksPerSide; ++bc) {
                block_high[bc] +=
                    clearCells(mask + cols[bc], cols[bc + 1] - cols[bc]);
            }
        }
        for (int bc = 0; bc < kBlocksPerSide; ++bc) {
            cells[static_cast<std::size_t>(br) * kBlocksPerSide + bc] =
                (rows[br + 1] - rows[br]) * (cols[bc + 1] - cols[bc]);
        }
    }
}

void
Tiler::decimate(TileData &tile)
{
    // Every entry is overwritten below; resize() reuses the arrays'
    // capacity, so recycled tiles stay heap-free.
    tile.block_features.resize(static_cast<std::size_t>(kBlocksPerTile) *
                               kFeatureDim);
    tile.block_cloud_fraction.resize(kBlocksPerTile);
    if (tile.cell_rows == kBlocksPerSide &&
        tile.cell_cols == kBlocksPerSide) {
        decimateOneCellBlocks(tile);
        return;
    }
    const FrameSample &frame = *tile.frame;
    const BlockEdges rows = blockEdges(tile.cell_rows);
    const BlockEdges cols = blockEdges(tile.cell_cols);
    const std::size_t grid = static_cast<std::size_t>(frame.grid);
    for (int br = 0; br < kBlocksPerSide; ++br) {
        const int block_rows = rows[br + 1] - rows[br];
        for (int bc = 0; bc < kBlocksPerSide; ++bc) {
            const int b = br * kBlocksPerSide + bc;
            const int block_cols = cols[bc + 1] - cols[bc];
            float *block = &tile.block_features[static_cast<std::size_t>(b) *
                                                kFeatureDim];
            if (block_rows == 0 || block_cols == 0) {
                // Blocks can be empty when a tile has fewer cells per
                // side than the block grid (upsampling); copy the
                // containing cell's values instead.
                const int r = br * tile.cell_rows / kBlocksPerSide;
                const int c = bc * tile.cell_cols / kBlocksPerSide;
                const std::size_t cell =
                    static_cast<std::size_t>(tile.cell_row0 + r) * grid +
                    static_cast<std::size_t>(tile.cell_col0 + c);
                std::copy_n(&frame.features[cell * kFeatureDim],
                            kFeatureDim, block);
                tile.block_cloud_fraction[b] =
                    frame.cloudy[cell] != 0 ? 1.0F : 0.0F;
                continue;
            }
            const std::size_t cell0 =
                static_cast<std::size_t>(tile.cell_row0 + rows[br]) * grid +
                static_cast<std::size_t>(tile.cell_col0 + cols[bc]);
            const int cells = block_rows * block_cols;
            const float inv = 1.0F / static_cast<float>(cells);
            boxAverage(&frame.features[cell0 * kFeatureDim],
                       grid * kFeatureDim, block_rows, block_cols, inv,
                       block);
            int clear = 0;
            for (int r = 0; r < block_rows; ++r) {
                clear += clearCells(
                    &frame.cloudy[cell0 + static_cast<std::size_t>(r) * grid],
                    block_cols);
            }
            // Summing 1.0F per cloudy cell is exact: it is the count.
            tile.block_cloud_fraction[b] =
                static_cast<float>(cells - clear) * inv;
        }
    }
}

std::vector<TileData>
Tiler::tile(const FrameSample &frame) const
{
    const int t_count = tiles_per_side_;
    requireCellsPerTile(frame, t_count);

    std::vector<TileData> tiles(static_cast<std::size_t>(t_count) *
                                t_count);
    for (int tr = 0; tr < t_count; ++tr) {
        TileData *row = &tiles[static_cast<std::size_t>(tr) * t_count];
        for (int tc = 0; tc < t_count; ++tc) {
            initTile(frame, t_count, tr, tc, row[tc]);
            tileFeatureStats(row[tc]);
            tileTruthStats(row[tc]);
            decimate(row[tc]);
        }
    }
    return tiles;
}

void
Tiler::statsInto(const FrameSample &frame,
                 std::vector<TileData> &tiles) const
{
    const int t_count = tiles_per_side_;
    requireCellsPerTile(frame, t_count);

    // resize() keeps each surviving element's heap buffers, so a warmed
    // vector is refilled without allocation; every field below is
    // overwritten, so recycled tiles carry no stale state.
    tiles.resize(static_cast<std::size_t>(t_count) * t_count);

    for (int tr = 0; tr < t_count; ++tr) {
        TileData *row = &tiles[static_cast<std::size_t>(tr) * t_count];
        for (int tc = 0; tc < t_count; ++tc) {
            TileData &tile = row[tc];
            initTile(frame, t_count, tr, tc, tile);
            // Recycled tiles may carry a previous frame's block grid;
            // clear() (capacity kept) marks them not-yet-decimated.
            tile.block_features.clear();
            tile.block_cloud_fraction.clear();
            tile.high_value_fraction = 0.0;
            tile.label_vector.fill(0.0);
            tileFeatureStats(tile);
        }
    }
}

} // namespace kodan::data
