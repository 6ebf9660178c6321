#include "pipeline/pipeline_runtime.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::pipeline {

PipelineRuntime::PipelineRuntime(const core::Runtime &runtime)
    : PipelineRuntime(runtime, Options())
{
}

PipelineRuntime::PipelineRuntime(const core::Runtime &runtime,
                                 const Options &options)
    : runtime_(&runtime), opts_(options)
{
    if (opts_.workers <= 0) {
        opts_.workers = util::globalThreadCount();
    }
    opts_.burst = std::min(std::max<std::size_t>(opts_.burst, 1),
                           kMaxBurst);
    lanes_.assign(static_cast<std::size_t>(opts_.workers),
                  std::vector<core::FrameWork>(opts_.burst));
}

core::FrameReport
PipelineRuntime::processFrames(const std::vector<data::FrameSample> &frames)
{
    FrameSource source;
    source.pool = &frames;
    source.total = frames.size();
    return process(source);
}

core::FrameReport
PipelineRuntime::process(const FrameSource &source)
{
    const std::size_t total =
        source.pool == nullptr || source.pool->empty() ? 0 : source.total;
    // The closure captures two pointers, which std::function stores
    // without allocating (bench_dataplane's allocation guard checks
    // this); a lone lane also skips util::parallelFor, whose per-lane
    // closure is too large for that.
    return core::Runtime::runBatch(
        total, reports_, [this, &source](std::uint64_t region) {
            if (lanes_.size() == 1) {
                runLane(0, source, region);
                return;
            }
            util::parallelFor(lanes_.size(), [&](std::size_t lane) {
                runLane(lane, source, region);
            });
        });
}

void
PipelineRuntime::runLane(std::size_t lane, const FrameSource &source,
                         std::uint64_t region)
{
    const core::Runtime &runtime = *runtime_;
    std::vector<core::FrameWork> &works = lanes_[lane];
    const std::size_t stride = lanes_.size();
    // A burst is this lane's next works.size() frames: first,
    // first + stride, first + 2 * stride, ...
    for (std::size_t first = lane; first < source.total;
         first += stride * works.size()) {
        const std::size_t count =
            std::min(works.size(),
                     (source.total - first + stride - 1) / stride);
        const auto tile_classify = [&] {
            for (std::size_t j = 0; j < count; ++j) {
                runtime.stageTileClassify(source.frame(first + j * stride),
                                          works[j]);
            }
        };
        const auto elide = [&] {
            for (std::size_t j = 0; j < count; ++j) {
                runtime.stageElide(works[j]);
            }
        };
        if (opts_.stats) {
            {
                KODAN_TRACE_SCOPE("pipeline.stage.tile_classify_s");
                tile_classify();
            }
            {
                KODAN_TRACE_SCOPE("pipeline.stage.infer_s");
                runtime.stageInfer(works.data(), count);
            }
            KODAN_TRACE_SCOPE("pipeline.stage.elide_s");
            elide();
        } else {
            tile_classify();
            runtime.stageInfer(works.data(), count);
            elide();
        }
        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t i = first + j * stride;
            // Mirror the batch path's per-frame shape: the frame span
            // (call count must match) and the journal lane keyed by
            // frame index, both independent of which lane runs this.
            KODAN_TRACE_SCOPE("runtime.frame.process");
            telemetry::JournalScope journal_scope(region, i);
            runtime.stageRecord(works[j]);
            reports_[i] = works[j].report;
        }
    }
}

} // namespace kodan::pipeline
