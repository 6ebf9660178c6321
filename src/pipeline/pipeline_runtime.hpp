/**
 * @file
 * The data plane: a drop-in alternative scheduler for
 * core::Runtime::processFrames.
 *
 * Where the batch path runs every frame on its own, the data plane
 * deals frames to whole-lane workers: frame i belongs to lane
 * i mod workers, and each lane runs its frames in bursts through the
 * same four stage calls (core::Runtime::stageTileClassify ->
 * stageInfer -> stageElide -> stageRecord) on a burst of recycled
 * FrameWorks. The infer stage feeds one cross-frame batch per model
 * to SpecializedZoo::predictRows. Lanes run on util::parallelFor; a
 * single lane runs inline. Steady state does no heap allocation.
 *
 * Output contract (proved by `ctest -L dataplane`): for the same
 * frames, PipelineRuntime::processFrames returns a bit-identical
 * FrameReport and emits byte-identical journal output and identical
 * deterministic metrics to Runtime::processFrames, at any worker
 * count and burst size. The recipe:
 *  - both schedulers run the *same code*: Runtime's stage entry points
 *    and its batch envelope (Runtime::runBatch);
 *  - burst-batched inference regroups rows across frames, which
 *    cannot change bits because the network forward is
 *    row-independent and the per-frame FP accumulation happens later,
 *    in stageElide, in fixed tile order;
 *  - journal events route to (region, frame index) lanes and
 *    per-frame reports land at their frame index and reduce in index
 *    order, exactly as the batch path does;
 *  - the per-stage timers are emitted only when Options::stats is on,
 *    so default runs add no metric names.
 */

#ifndef KODAN_PIPELINE_PIPELINE_RUNTIME_HPP
#define KODAN_PIPELINE_PIPELINE_RUNTIME_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/runtime.hpp"

namespace kodan::pipeline {

/** Largest burst: FrameWorks a lane recycles (bounds its memory). */
inline constexpr std::size_t kMaxBurst = 64;

/**
 * Random-access frame feed for the data plane. Cycles over a pool, so
 * a load generator can offer more frames than it materializes;
 * frame(i) must be safe to call concurrently (it is read-only).
 */
struct FrameSource
{
    /** Backing frames (non-owning; must outlive the run). */
    const std::vector<data::FrameSample> *pool = nullptr;
    /** Frames the run offers (index range [0, total)). */
    std::size_t total = 0;

    /** Frame for global index @p i (wraps over the pool). */
    const data::FrameSample &frame(std::size_t i) const
    {
        return (*pool)[i % pool->size()];
    }
};

/**
 * Runs a core::Runtime's stages over whole-lane workers.
 *
 * Construction sizes the lanes; their FrameWork buffers warm on the
 * first run and are recycled after it. One PipelineRuntime may be
 * reused across runs; it is not itself thread-safe (one run at a
 * time).
 */
class PipelineRuntime
{
  public:
    struct Options
    {
        /** Lanes; 0 uses util::globalThreadCount() (KODAN_THREADS),
         *  mirroring the batch path. Lanes share the global pool, so
         *  at most KODAN_THREADS of them run at once. */
        int workers = 0;
        /** Frames a lane carries through each stage together (clamped
         *  to [1, kMaxBurst]); the infer stage batches across them. */
        std::size_t burst = 8;
        /**
         * Emit the per-stage timers (`pipeline.stage.*_s`). Off by
         * default so the data plane's metric output stays identical
         * to the batch path.
         */
        bool stats = false;
    };

    /** @param runtime The runtime whose stages to schedule (not
     *  owned; must outlive this object). */
    explicit PipelineRuntime(const core::Runtime &runtime);
    PipelineRuntime(const core::Runtime &runtime,
                    const Options &options);

    PipelineRuntime(const PipelineRuntime &) = delete;
    PipelineRuntime &operator=(const PipelineRuntime &) = delete;

    /**
     * Process @p frames through the data plane; bit-identical output
     * to Runtime::processFrames(frames). An empty batch is a no-op
     * that emits nothing, matching the batch path.
     */
    core::FrameReport processFrames(
        const std::vector<data::FrameSample> &frames);

    /** Process @p source.total frames drawn from @p source. */
    core::FrameReport process(const FrameSource &source);

  private:
    void runLane(std::size_t lane, const FrameSource &source,
                 std::uint64_t region);

    const core::Runtime *runtime_;
    Options opts_;
    /** One burst of recycled FrameWorks per lane. */
    std::vector<std::vector<core::FrameWork>> lanes_;
    /** Per-frame reports of the current run, indexed by frame index;
     *  capacity persists across runs. */
    std::vector<core::FrameReport> reports_;
};

} // namespace kodan::pipeline

#endif // KODAN_PIPELINE_PIPELINE_RUNTIME_HPP
