/**
 * @file
 * Model specialization (paper Section 3.3): training the zoo of
 * context-specialized filtering networks for one application.
 *
 * The reference application (the tier's surrogate network trained on the
 * whole representative dataset) generates training labels; specialized
 * candidates — smaller and same-size architectures trained per context —
 * learn from those labels, exactly as the paper's one-time
 * transformation step does.
 */

#ifndef KODAN_CORE_SPECIALIZE_HPP
#define KODAN_CORE_SPECIALIZE_HPP

#include <vector>

#include "core/types.hpp"
#include "data/tiler.hpp"
#include "ml/mlp.hpp"
#include "ml/transforms.hpp"
#include "util/rng.hpp"

namespace kodan::core {

/** The trained model zoo of one application. */
struct SpecializedZoo
{
    /** Shared input standardizer (fit on the reference training set). */
    ml::Standardizer scaler;
    /** Trained networks (reference first, then specialized candidates). */
    std::vector<ZooEntry> entries;
    /** Index of the global reference model in @c entries. */
    int reference = 0;

    /**
     * Standardized model inputs of all kBlocksPerTile blocks of a tile,
     * ready for predictRows. Computed once per tile, the batch is shared
     * by every candidate model evaluated on it.
     *
     * @param tile Tile to featurize.
     * @param out Row-major kBlocksPerTile x kBlockInputDim buffer.
     */
    void tileInputs(const data::TileData &tile, double *out) const;

    /**
     * Predicted cloud probability, P(block is cloudy / low-value) in
     * [0, 1], of every pre-standardized input row (as filled by
     * tileInputs), in one batched forward pass.
     *
     * @param entry Zoo entry index.
     * @param scaled Row-major rows x kBlockInputDim standardized inputs.
     * @param rows Number of input rows.
     * @param out One cloud probability per row.
     * @param precision Runs the entry's int8 sibling when Int8 and the
     *        sibling exists (ZooEntry::runsQuantized), else its fp64
     *        net. Defaults to the process's precision.
     */
    void predictRows(int entry, const double *scaled, std::size_t rows,
                     double *out,
                     ml::Precision precision = ml::precision()) const;

    /** Candidate entry indices usable for context @p context. */
    std::vector<int> candidatesFor(int context) const;
};

/** Hyperparameters of zoo training. */
struct SpecializeOptions
{
    /**
     * Train specialized models on reference-model pseudo-labels instead
     * of the dataset's truth masks. The paper's general framework uses
     * reference labels (Section 3.3); its evaluation applications are
     * trained on the Sentinel catalogue's truth masks (Section 4), which
     * is the default here.
     */
    bool labels_from_reference = false;
    /** Cap on training blocks (subsampled uniformly). */
    std::size_t max_train_blocks = 30000;
    /**
     * Data-augmentation jitter: each training row is duplicated with
     * Gaussian noise of this sigma added to its visual channels
     * (paper Section 4: "we apply data augmentation to improve accuracy
     * and avoid over-fitting"). 0 disables augmentation.
     */
    double augment_noise = 0.03;
    /** Optimizer settings shared by all trainings. */
    ml::TrainOptions train{};
    /**
     * Build a calibrated int8 sibling for every trained entry
     * (calibration batch = the entry's own training rows). The siblings
     * are dormant until the process's default precision (KODAN_QUANT /
     * ml::setPrecision) selects Int8; see ZooEntry::runsQuantized.
     */
    bool quantize = true;
    /**
     * Tolerance gate on quantized candidates (applied by the sweep,
     * Transformer::transformApp): a sibling whose validation cell
     * accuracy drops by more than this absolute amount versus the fp64
     * model is rejected (entry falls back to fp64 even under Int8).
     */
    double quant_max_accuracy_drop = 0.01;
    /**
     * Companion gate on the DVD inputs: max absolute drop in the
     * measured high-value product fraction (high_fraction) of the
     * entry's validation stats.
     */
    double quant_max_value_drop = 0.01;
    /**
     * Cap on the validation tiles each sibling's A/B gate measurement
     * runs over (a deterministic stride subsample when the validation
     * set is larger). Keeps the gate a small fraction of transformApp;
     * 0 means measure every tile.
     */
    std::size_t quant_gate_max_tiles = 512;
};

/**
 * Trains the zoo for one application.
 */
class ModelSpecializer
{
  public:
    /**
     * @param app Application whose reference architecture tops the zoo.
     * @param options Training hyperparameters.
     */
    ModelSpecializer(const Application &app,
                     const SpecializeOptions &options = {});

    /**
     * Train the reference model and per-context specialized candidates.
     *
     * Candidate architectures per context are tiers {1, ceil(app/2),
     * app} (deduplicated) — Kodan may replace a heavy legacy model with
     * a smaller specialized one, never a larger one.
     *
     * @param tiles Training tiles at the reference tiling.
     * @param contexts Context id per tile (the deployed engine's output,
     *        which the paper treats as ground truth).
     * @param context_count Number of contexts.
     * @param rng Training randomness.
     * @param legacy_tiles When non-null, the reference model trains on
     *        these tiles instead of @p tiles — modelling a legacy
     *        datacenter application built on an out-of-domain corpus
     *        (different sensor calibration and cloud climate). The
     *        specialized models always train on @p tiles, which is what
     *        gives context specialization its accuracy/precision edge.
     */
    SpecializedZoo trainZoo(
        const std::vector<data::TileData> &tiles,
        const std::vector<int> &contexts, int context_count,
        util::Rng &rng,
        const std::vector<data::TileData> *legacy_tiles = nullptr) const;

    /** The application this specializer serves. */
    const Application &application() const { return app_; }

  private:
    Application app_;
    SpecializeOptions options_;
};

} // namespace kodan::core

#endif // KODAN_CORE_SPECIALIZE_HPP
