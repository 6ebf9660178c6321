/**
 * @file
 * Frame tiling and decimation.
 *
 * A frame is split into T x T tiles; each tile is resized to the neural
 * network input (a fixed kBlocksPerSide x kBlocksPerSide block grid) by
 * box-averaging its ground cells. Fewer, larger tiles mean each model
 * block aggregates more ground cells (aggressive decimation); smaller
 * tiles preserve detail but give the model a narrower context window.
 * This is exactly the precision/execution-time trade of paper Section 3
 * (Figure 6).
 */

#ifndef KODAN_DATA_TILER_HPP
#define KODAN_DATA_TILER_HPP

#include <array>
#include <vector>

#include "data/sample.hpp"

namespace kodan::data {

/** Model-input resolution: blocks per tile side. */
inline constexpr int kBlocksPerSide = 8;

/** Blocks per tile. */
inline constexpr int kBlocksPerTile = kBlocksPerSide * kBlocksPerSide;

/**
 * Number of visual (image-derived) channels a filtering model sees per
 * block: the spectral bands, texture, ndvi, thermal, and the cloud-edge
 * indicator — channels 0-6 and 9. The ancillary map priors (elevation,
 * moisture; channels 7-8) are *not* per-block model inputs: the paper's
 * applications are vision networks, and map context reaches them only
 * through the coarse tile-level summary (or through specialization).
 */
inline constexpr int kVisualDim = 8;

/**
 * Input dimension of a per-block classifier: visual block channels plus
 * the tile-mean context channels (all kFeatureDim of them).
 */
inline constexpr int kBlockInputDim = kVisualDim + kFeatureDim;

/** One tile of a frame, decimated to the model-input block grid. */
struct TileData
{
    /** Owning frame (non-owning pointer; frame must outlive the tile). */
    const FrameSample *frame = nullptr;
    /** Tiles per frame side (T). */
    int tiles_per_side = 0;
    /** Tile coordinates within the frame. */
    int tile_row = 0;
    /** Tile coordinates within the frame. */
    int tile_col = 0;
    /** First ground-cell row/col covered by this tile. */
    int cell_row0 = 0, cell_col0 = 0;
    /** Ground cells covered per side (rows, cols). */
    int cell_rows = 0, cell_cols = 0;

    /** Box-averaged block features: kBlocksPerTile * kFeatureDim. */
    std::vector<float> block_features;
    /** Per-channel mean over the tile's cells. */
    std::array<double, kFeatureDim> feature_mean{};
    /** Per-channel standard deviation over the tile's cells. */
    std::array<double, kFeatureDim> feature_std{};
    /** Truth-derived label vector for context clustering. */
    std::array<double, kLabelDim> label_vector{};
    /** Truth fraction of high-value (non-cloudy) cells. */
    double high_value_fraction = 0.0;
    /** Truth fraction of cloudy cells per block: kBlocksPerTile. */
    std::vector<float> block_cloud_fraction;

    /** Block index of the block containing tile-local cell (r, c). */
    int blockOfCell(int local_r, int local_c) const;

    /** Ground cells covered by this tile. */
    int cellCount() const { return cell_rows * cell_cols; }

    /** Truly high-value (non-cloudy) cells of the tile, counted from
     *  the frame's truth mask. */
    int highCells() const;

    /**
     * Per-block truth counts, read from the frame's truth mask: the
     * high-value (non-cloudy) cells and all cells of each block.
     */
    void blockTruth(std::array<int, kBlocksPerTile> &high,
                    std::array<int, kBlocksPerTile> &cells) const;

    /** Truth cloudiness of tile-local cell (r, c). */
    bool cloudyLocal(int local_r, int local_c) const
    {
        return frame->cloudyAt(cell_row0 + local_r, cell_col0 + local_c);
    }

    /**
     * Assemble the classifier input for one block: block features, tile
     * mean, tile stddev.
     *
     * @param block Block index in [0, kBlocksPerTile).
     * @param out Output array of kBlockInputDim doubles.
     */
    void blockInput(int block, double *out) const;
};

/**
 * Splits frames into decimated tiles.
 */
class Tiler
{
  public:
    /** @param tiles_per_side Tiles per frame side (T >= 1). */
    explicit Tiler(int tiles_per_side);

    /** Tiles per frame side. */
    int tilesPerSide() const { return tiles_per_side_; }

    /** Tiles per frame (T^2). */
    int tilesPerFrame() const { return tiles_per_side_ * tiles_per_side_; }

    /**
     * Split @p frame into T^2 decimated tiles with every training
     * field filled (truth fractions, label vector). The eager form:
     * the training path tiles this way, and tests use it as the
     * oracle for statsInto() + decimate(). Dies through util::fatal
     * when T exceeds frame.grid (a tile would have no cells).
     */
    std::vector<TileData> tile(const FrameSample &frame) const;

    /**
     * Split @p frame into T^2 tiles carrying only what the deployed
     * runtime reads before inference: geometry and the per-channel
     * feature mean/stddev (bit-identical to tile()'s). The block
     * arrays are left empty (`block_features.empty()` marks a tile as
     * not yet decimated) and the truth-derived training fields
     * (label_vector, high_value_fraction, block_cloud_fraction) are
     * zeroed — context classification reads only the feature
     * statistics, and the elide/record stages read the frame's truth
     * masks directly, never these tile fields. decimate() then
     * materializes the block grid of exactly the tiles that reach the
     * model — the runtime's lazy tiling: elided tiles never pay the
     * decimation pass, and the truth bookkeeping of the training path
     * is skipped entirely. @p tiles is recycled in place, so a warmed
     * vector is re-tiled without heap allocation. Dies through
     * util::fatal when T exceeds frame.grid, like tile().
     */
    void statsInto(const FrameSample &frame,
                   std::vector<TileData> &tiles) const;

    /**
     * Fill @p tile's block arrays (box-averaged block features and
     * per-block cloud fractions) from its frame; bit-identical to the
     * arrays tile() produces. Idempotent on a decimated tile;
     * reuses the arrays' capacity, so a recycled tile decimates
     * without heap allocation.
     */
    static void decimate(TileData &tile);

    /**
     * The four tile counts the paper sweeps (121, 36, 16, 9 tiles per
     * frame, i.e. T in {11, 6, 4, 3}).
     */
    static const std::array<int, 4> &paperTileCounts();

  private:
    int tiles_per_side_;
};

} // namespace kodan::data

#endif // KODAN_DATA_TILER_HPP
