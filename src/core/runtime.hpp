/**
 * @file
 * The deployed runtime (paper Fig. 7, right): per-frame execution of the
 * selection logic on a satellite.
 *
 * Each frame is tiled per the logic; the context engine labels each
 * tile; tiles are then discarded, queued raw for downlink, or filtered
 * by the chosen specialized model. Compute time is charged from the
 * hardware cost model. The runtime is the ground-truth implementation
 * the analytic projection (evaluateLogic) is validated against.
 */

#ifndef KODAN_CORE_RUNTIME_HPP
#define KODAN_CORE_RUNTIME_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine.hpp"
#include "core/selection.hpp"
#include "core/specialize.hpp"
#include "data/sample.hpp"
#include "hw/target.hpp"
#include "ml/confusion.hpp"

namespace kodan::core {

/** Outcome of processing one frame on board. */
struct FrameReport
{
    /** Modeled on-board compute time (s), engine + models. */
    double compute_time = 0.0;
    /** Product bits emitted, as a fraction of the raw frame bits. */
    double product_fraction = 0.0;
    /** Truly high-value product bits, as a fraction of raw frame bits. */
    double product_high_fraction = 0.0;
    /** Tiles elided to Discard (64-bit: aggregates span whole missions,
     *  and 121 tiles/frame overflows int within ~18M frames). */
    std::int64_t tiles_discarded = 0;
    /** Tiles elided to Downlink. */
    std::int64_t tiles_downlinked = 0;
    /** Tiles filtered by a model. */
    std::int64_t tiles_modeled = 0;
    /** Cell-level confusion of the frame's keep/drop decisions. */
    ml::ConfusionStats cells;
};

/**
 * Reusable per-frame working state shared by the batch path
 * (Runtime::processFrame) and the data plane (src/pipeline/): every
 * buffer a frame needs on its way through the stages. Capacities
 * persist across frames, so a recycled FrameWork re-processes a new
 * frame without heap allocation in steady state — each data-plane
 * lane recycles one burst of them.
 */
struct FrameWork
{
    /** The frame being processed (non-owning). */
    const data::FrameSample *frame = nullptr;
    /** Tiles (filled by stageTileClassify, which decimates the
     *  modeled ones). */
    std::vector<data::TileData> tiles;
    /** Context id per tile (filled by stageTileClassify). */
    std::vector<int> contexts;
    /**
     * Keep/drop decision per (tile, block): tiles.size() *
     * data::kBlocksPerTile entries, tile-major (filled by stageInfer
     * for modeled tiles; entries of elided tiles are unused).
     */
    std::vector<std::uint8_t> keep;
    /** The frame's finished report (filled by stageElide). */
    FrameReport report;
};

/**
 * Executes a selection logic on frames.
 *
 * The per-frame work is factored into stage entry points
 * (stageTileClassify -> stageInfer -> stageElide -> stageRecord) so
 * the data plane (pipeline::PipelineRuntime) runs the exact same
 * implementation — and therefore produces bit-identical FrameReport,
 * journal, and metric output — while scheduling the frames
 * differently (whole-lane bursts, cross-frame batched inference).
 */
class Runtime
{
  public:
    /**
     * @param logic Deployed policy.
     * @param engine Context engine (not owned).
     * @param zoo Model zoo (not owned).
     * @param target Hardware the compute time is charged against.
     */
    Runtime(const SelectionLogic &logic, const ContextEngine *engine,
            const SpecializedZoo *zoo, hw::Target target);

    /** The deployed policy. */
    const SelectionLogic &logic() const { return logic_; }

    /** The model zoo the runtime executes (not owned). */
    const SpecializedZoo &zoo() const { return *zoo_; }

    /** Process one captured frame. */
    FrameReport processFrame(const data::FrameSample &frame) const;

    /**
     * Process a batch of frames, fanning the independent per-frame work
     * across the global thread pool (KODAN_THREADS), and return the
     * aggregate. Per-frame reports are merged in frame order, so the
     * result is bit-identical to aggregating serial processFrame() calls
     * for any thread count. This is the reference the data plane is
     * checked against: one frame per burst, a fresh FrameWork each.
     */
    FrameReport processFrames(
        const std::vector<data::FrameSample> &frames) const;

    /**
     * Aggregate PER-FRAME reports over a frame set (mean time/fractions,
     * summed counts). Do not feed aggregates back into this function —
     * that averages means over unequal chunks; use mergeAggregates().
     */
    static FrameReport aggregate(const std::vector<FrameReport> &reports);

    /**
     * Merge two aggregates produced by aggregate() over @p frames_a and
     * @p frames_b frames respectively, weighting the per-frame means by
     * their frame counts (the mean-of-means-safe chunk merge).
     */
    static FrameReport mergeAggregates(const FrameReport &a,
                                       std::size_t frames_a,
                                       const FrameReport &b,
                                       std::size_t frames_b);

    /**
     * The batch envelope both schedulers share. An empty batch
     * (@p frames == 0) is a no-op: no profile scope, no counter, no
     * journal region, no aggregate event — callers polling an idle
     * source don't pollute the telemetry stream with zero-frame noise.
     * Otherwise it opens the `runtime.batch.process` scope, counts
     * `runtime.frames.batched`, and opens one `runtime.batch` journal
     * region; @p run(region) must then fill reports[i] for every frame
     * i < @p frames, recording frame i's events under
     * telemetry::JournalScope(region, i), so the exported journal is
     * byte-identical for any schedule. The reports are reduced in
     * frame-index order and the aggregate is journaled and returned.
     *
     * @param reports Resized to @p frames before @p run (capacity is
     *        kept, so a reused vector does not allocate).
     */
    static FrameReport runBatch(
        std::size_t frames, std::vector<FrameReport> &reports,
        const std::function<void(std::uint64_t region)> &run);

    /* -- Stage entry points (shared with pipeline::PipelineRuntime) -- */

    /**
     * Stage 1, tile/classify: compute @p frame's tile statistics
     * (reusing @p work's buffers), label every tile's context with one
     * batched engine forward pass, and decimate the tiles the logic
     * sends to a model. Tiling is lazy (data::Tiler::statsInto):
     * classification reads only the tile-level mean/stddev, so
     * elided tiles never pay the decimation pass, and the modeled ones
     * pay it while the frame is still in cache. Reports match eager
     * data::Tiler::tile tiling bit for bit: the elide and record
     * stages read the frame's truth masks, never the tiles' block or
     * truth fields.
     */
    void stageTileClassify(const data::FrameSample &frame,
                           FrameWork &work) const;

    /**
     * Stage 2, specialize/infer: write the keep/drop decisions of
     * every modeled tile of the @p count frames at @p works into their
     * work.keep, with one SpecializedZoo::predictRows call per model
     * over the rows of all of that model's tiles, which must already
     * be decimated (stageTileClassify does it). Grouping rows across
     * tiles and frames is bit-transparent: rows are standardized per
     * tile, the network forward is row-independent, and the per-frame
     * FP accumulation happens later, in stageElide, in fixed tile
     * order.
     */
    void stageInfer(FrameWork *works, std::size_t count) const;

    /** Keep/drop rule of the infer stage: keep iff the model's cloud
     *  probability is below 0.5. */
    static void keepFromProbs(const double *probs, std::size_t count,
                              std::uint8_t *keep);

    /**
     * Stage 3, elide: the per-tile accounting loop — compute time,
     * elision verdicts, product fractions, cell confusion — writing
     * work.report. Reads work.keep for modeled tiles and the frame's
     * truth mask, counting cells per tile and block; accumulation
     * order is fixed (tile order, engine then model time), so the
     * report is bit-identical however the keep decisions were batched.
     * Needs only the tiles' geometry, so tiles straight from
     * data::Tiler::statsInto do.
     */
    void stageElide(FrameWork &work) const;

    /**
     * Stage 4, downlink-queue/record: emit the frame's telemetry
     * (counters, gauges, histogram, sim-time series) and flight
     * recorder events. Derived purely from the finished report; no-op
     * when recording is disabled.
     */
    void stageRecord(const FrameWork &work) const;

  private:
    SelectionLogic logic_;
    const ContextEngine *engine_;
    const SpecializedZoo *zoo_;
    hw::Target target_;
};

} // namespace kodan::core

#endif // KODAN_CORE_RUNTIME_HPP
