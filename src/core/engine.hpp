/**
 * @file
 * The context engine: a small classifier that labels each tile with its
 * geospatial context at runtime, from observed features only.
 *
 * Per the paper, the deployed engine's output is treated as ground truth
 * downstream: specialized models are trained and evaluated on the
 * engine's partition of the data, not the clustering's.
 */

#ifndef KODAN_CORE_ENGINE_HPP
#define KODAN_CORE_ENGINE_HPP

#include <iosfwd>
#include <vector>

#include "core/partition.hpp"
#include "core/types.hpp"
#include "data/tiler.hpp"
#include "ml/mlp.hpp"
#include "ml/transforms.hpp"
#include "util/rng.hpp"

namespace kodan::core {

/**
 * Feature-space context classifier (tile statistics -> context id).
 */
class ContextEngine
{
  public:
    /**
     * Train an engine to imitate @p partition on @p tiles.
     *
     * @param tiles Representative tiles.
     * @param partition Context partition supplying training targets.
     * @param rng Initialization/shuffling randomness.
     */
    ContextEngine(const std::vector<data::TileData> &tiles,
                  const Partition &partition, util::Rng &rng);

    /** Number of contexts. */
    int contextCount() const { return context_count_; }

    /**
     * Classify every tile of a batch from its observed feature
     * statistics, with one batched forward pass; a tile's context does
     * not depend on the batch it rides in.
     * @param tiles Tiles to classify.
     * @param out Resized to tiles.size(); context id per tile.
     */
    void classifyBatch(const std::vector<data::TileData> &tiles,
                       std::vector<int> &out) const;

    /**
     * Agreement with the partition's truth-label assignment on a tile
     * set (the engine's training accuracy proxy).
     */
    double agreement(const std::vector<data::TileData> &tiles,
                     const Partition &partition) const;

    /** Input dimension of the engine (tile mean + std channels). */
    static constexpr int kInputDim = 2 * data::kFeatureDim;

    /** Serialize the trained engine (classifier + scaler). */
    void save(std::ostream &os) const;

    /** Deserialize an engine written by save(). */
    static ContextEngine load(std::istream &is);

  private:
    int context_count_;
    ml::Standardizer scaler_;
    ml::Mlp net_;

    /** Component constructor used by load(). */
    ContextEngine(int context_count, ml::Standardizer scaler, ml::Mlp net);

    /** Assemble and standardize the engine input for one tile. */
    void tileInput(const data::TileData &tile, double *out) const;
};

} // namespace kodan::core

#endif // KODAN_CORE_ENGINE_HPP
