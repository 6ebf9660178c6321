/**
 * @file
 * Saturating load generator for the data plane.
 *
 * Offers a whole run of frames to the pipeline in one call and times
 * it, so the measured rate is the pipeline's sustained throughput with
 * every lane busy. Frames are drawn round-robin from a fixed pool, so
 * an arbitrarily long run needs only the pool's memory.
 */

#ifndef KODAN_PIPELINE_LOADGEN_HPP
#define KODAN_PIPELINE_LOADGEN_HPP

#include <cstddef>
#include <vector>

#include "data/sample.hpp"
#include "pipeline/pipeline_runtime.hpp"

namespace kodan::pipeline {

/** Outcome of one load-generation run. */
struct LoadResult
{
    /** Aggregate report over the offered frames (bit-identical to the
     *  batch path over the same frame sequence). */
    core::FrameReport report;
    /** Frames processed. */
    std::size_t frames = 0;
    /** Wall-clock seconds of the run. */
    double seconds = 0.0;
    /** Sustained throughput (frames / seconds). */
    double fps = 0.0;
};

/**
 * Drives a PipelineRuntime with a cycled frame pool.
 */
class LoadGenerator
{
  public:
    /** @param pool Frames cycled round-robin (non-owning; must
     *  outlive the generator and be non-empty). */
    explicit LoadGenerator(const std::vector<data::FrameSample> &pool);

    /** Saturate @p pipeline with @p total_frames frames and time it. */
    LoadResult run(PipelineRuntime &pipeline,
                   std::size_t total_frames) const;

  private:
    const std::vector<data::FrameSample> *pool_;
};

} // namespace kodan::pipeline

#endif // KODAN_PIPELINE_LOADGEN_HPP
