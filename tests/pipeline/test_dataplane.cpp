/**
 * @file
 * The data plane's output contract: for the same frames,
 * pipeline::PipelineRuntime must produce BIT-IDENTICAL FrameReports,
 * byte-identical journal exports, and identical deterministic metrics
 * to core::Runtime::processFrames — at 1 to 6 and 16 workers, across
 * burst sizes, and across repeated runs of one (warmed) pipeline
 * instance. Doubles are compared exactly on purpose: the stage entry
 * points are shared code and the burst regrouping is designed to be
 * bit-transparent, so anything weaker would let nondeterminism hide.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../core/fixture.hpp"
#include "core/kodan.hpp"
#include "pipeline/loadgen.hpp"
#include "pipeline/pipeline_runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::pipeline {
namespace {

using core::FrameReport;
using core::Runtime;

/** Restores thread default and turns recording off when a test exits. */
class RecordingGuard
{
  public:
    RecordingGuard()
    {
        telemetry::setEnabled(true);
        telemetry::setJournalEnabled(true);
        telemetry::resetAll();
    }
    ~RecordingGuard()
    {
        telemetry::resetAll();
        telemetry::setEnabled(false);
        telemetry::setJournalEnabled(false);
        util::setGlobalThreads(0);
    }
};

/**
 * A runtime whose logic exercises every action kind and several zoo
 * models, so burst inference has real cross-frame, cross-model
 * batches to regroup.
 */
Runtime
mixedRuntime()
{
    const auto &pipeline = kodan::testing::SharedPipeline::instance();
    const int contexts = pipeline.shared.partition.context_count;
    const int models =
        static_cast<int>(pipeline.app4.zoo.entries.size());
    core::SelectionLogic logic;
    logic.tiles_per_side = 6;
    logic.per_context.reserve(static_cast<std::size_t>(contexts));
    for (int c = 0; c < contexts; ++c) {
        core::Action action;
        switch (c % 4) {
          case 0:
            action.kind = core::ActionKind::Discard;
            break;
          case 1:
            action.kind = core::ActionKind::Downlink;
            break;
          default:
            action.kind = core::ActionKind::RunModel;
            action.model = c % models;
            break;
        }
        logic.per_context.push_back(action);
    }
    return Runtime(logic, pipeline.shared.engine.get(),
                   &pipeline.app4.zoo, hw::Target::Orin15W);
}

/** Everything one instrumented run produces. */
struct RunOutputs
{
    FrameReport report;
    std::string journal;
    telemetry::RegistrySnapshot metrics;
    telemetry::TimeSeriesSnapshot timeseries;
};

std::string
journalBytes()
{
    std::ostringstream os;
    telemetry::writeJournalJsonl(telemetry::collectJournal(),
                                 telemetry::journalDroppedEvents(), os);
    return os.str();
}

RunOutputs
captureOutputs(const FrameReport &report)
{
    RunOutputs out;
    out.report = report;
    out.journal = journalBytes();
    out.metrics = telemetry::registry().snapshot();
    out.timeseries = telemetry::timeSeriesSnapshot();
    return out;
}

RunOutputs
runBatch(const Runtime &runtime,
         const std::vector<data::FrameSample> &frames, int threads)
{
    telemetry::resetAll();
    util::setGlobalThreads(threads);
    return captureOutputs(runtime.processFrames(frames));
}

/**
 * Global pool size for data-plane runs. Lanes run on the pool, so the
 * worker grid covers fewer lanes than threads, as many, and more
 * (lanes then share a thread).
 */
constexpr int kPipelineThreads = 4;

RunOutputs
runPipeline(const Runtime &runtime,
            const std::vector<data::FrameSample> &frames,
            const PipelineRuntime::Options &options)
{
    telemetry::resetAll();
    util::setGlobalThreads(kPipelineThreads);
    PipelineRuntime pipeline(runtime, options);
    return captureOutputs(pipeline.processFrames(frames));
}

void
expectSameReport(const FrameReport &a, const FrameReport &b)
{
    EXPECT_EQ(a.compute_time, b.compute_time);
    EXPECT_EQ(a.product_fraction, b.product_fraction);
    EXPECT_EQ(a.product_high_fraction, b.product_high_fraction);
    EXPECT_EQ(a.tiles_discarded, b.tiles_discarded);
    EXPECT_EQ(a.tiles_downlinked, b.tiles_downlinked);
    EXPECT_EQ(a.tiles_modeled, b.tiles_modeled);
    EXPECT_EQ(a.cells.tp(), b.cells.tp());
    EXPECT_EQ(a.cells.fp(), b.cells.fp());
    EXPECT_EQ(a.cells.tn(), b.cells.tn());
    EXPECT_EQ(a.cells.fn(), b.cells.fn());
}

/**
 * Metric equality modulo wall clocks and call batching: every
 * non-timer sample must be bit-identical (name set included) — that
 * covers all the semantic counters, gauges, histograms, and notably
 * `ml.mlp.forward_batch.rows` (the total rows pushed through the
 * network, which burst regrouping must not change). Timers must agree
 * on name; `runtime.*` timers also on call count (one per frame/one
 * per batch in both paths). Kernel-layer timers (`ml.*`) count calls,
 * and fewer-but-larger forwardBatch calls are the very point of burst
 * batching, so their counts are exempt along with every timer's
 * measured seconds.
 */
void
expectSameMetrics(const telemetry::RegistrySnapshot &a,
                  const telemetry::RegistrySnapshot &b)
{
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (std::size_t i = 0; i < a.metrics.size(); ++i) {
        const auto &ma = a.metrics[i];
        const auto &mb = b.metrics[i];
        SCOPED_TRACE(ma.name);
        EXPECT_EQ(ma.name, mb.name);
        EXPECT_EQ(static_cast<int>(ma.kind), static_cast<int>(mb.kind));
        if (ma.kind == telemetry::MetricSample::Kind::Timer) {
            if (ma.name.rfind("runtime.", 0) == 0) {
                EXPECT_EQ(ma.count, mb.count);
            }
            continue; // durations are wall clock
        }
        EXPECT_EQ(ma.count, mb.count);
        EXPECT_EQ(ma.sum, mb.sum);
        EXPECT_EQ(ma.max, mb.max);
        EXPECT_EQ(ma.edges, mb.edges);
        EXPECT_EQ(ma.buckets, mb.buckets);
    }
}

void
expectSameTimeSeries(const telemetry::TimeSeriesSnapshot &a,
                     const telemetry::TimeSeriesSnapshot &b)
{
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        const auto &sa = a.series[i];
        const auto &sb = b.series[i];
        SCOPED_TRACE(sa.name);
        EXPECT_EQ(sa.name, sb.name);
        EXPECT_EQ(sa.dropped_bins, sb.dropped_bins);
        ASSERT_EQ(sa.bins.size(), sb.bins.size());
        for (std::size_t j = 0; j < sa.bins.size(); ++j) {
            EXPECT_EQ(sa.bins[j].index, sb.bins[j].index);
            EXPECT_EQ(sa.bins[j].count, sb.bins[j].count);
            EXPECT_EQ(sa.bins[j].sum, sb.bins[j].sum);
            EXPECT_EQ(sa.bins[j].min, sb.bins[j].min);
            EXPECT_EQ(sa.bins[j].max, sb.bins[j].max);
        }
    }
}

void
expectSameOutputs(const RunOutputs &a, const RunOutputs &b)
{
    expectSameReport(a.report, b.report);
    EXPECT_EQ(a.journal, b.journal);
    expectSameMetrics(a.metrics, b.metrics);
    expectSameTimeSeries(a.timeseries, b.timeseries);
}

TEST(DataPlane, BitIdenticalToBatchPathAcrossWorkerCounts)
{
    RecordingGuard guard;
    const Runtime runtime = mixedRuntime();
    const auto &frames =
        kodan::testing::SharedPipeline::instance().shared.val;

    const RunOutputs batch = runBatch(runtime, frames, 1);
    ASSERT_FALSE(batch.journal.empty());
    ASSERT_GT(batch.report.tiles_modeled, 0);
    ASSERT_GT(batch.report.tiles_discarded, 0);
    ASSERT_GT(batch.report.tiles_downlinked, 0);

    for (int workers : {1, 2, 3, 4, 5, 6, 16}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        PipelineRuntime::Options options;
        options.workers = workers;
        const RunOutputs staged =
            runPipeline(runtime, frames, options);
        expectSameOutputs(staged, batch);
    }
}

TEST(DataPlane, BurstSizeDoesNotChangeBits)
{
    RecordingGuard guard;
    const Runtime runtime = mixedRuntime();
    const auto &frames =
        kodan::testing::SharedPipeline::instance().shared.val;
    const RunOutputs batch = runBatch(runtime, frames, 1);

    // Bursts smaller than a lane's share recycle FrameWorks mid-run;
    // a burst of 3 leaves a short last burst in some lanes.
    for (const std::size_t burst : {1, 3, 64}) {
        SCOPED_TRACE("burst " + std::to_string(burst));
        PipelineRuntime::Options options;
        options.workers = 4;
        options.burst = burst;
        const RunOutputs staged =
            runPipeline(runtime, frames, options);
        expectSameOutputs(staged, batch);
    }
}

TEST(DataPlane, WarmedPipelineStaysBitIdenticalAcrossRuns)
{
    RecordingGuard guard;
    const Runtime runtime = mixedRuntime();
    const auto &frames =
        kodan::testing::SharedPipeline::instance().shared.val;
    const RunOutputs batch = runBatch(runtime, frames, 1);

    PipelineRuntime::Options options;
    options.workers = 2;
    options.burst = 4;
    util::setGlobalThreads(kPipelineThreads);
    PipelineRuntime pipeline(runtime, options);
    for (int run = 0; run < 3; ++run) {
        SCOPED_TRACE("run " + std::to_string(run));
        telemetry::resetAll();
        const RunOutputs staged =
            captureOutputs(pipeline.processFrames(frames));
        expectSameOutputs(staged, batch);
    }
}

TEST(DataPlane, EmptyBatchEmitsNothing)
{
    RecordingGuard guard;
    const Runtime runtime = mixedRuntime();
    PipelineRuntime pipeline(runtime);
    telemetry::resetAll();
    const std::vector<data::FrameSample> none;
    const FrameReport report = pipeline.processFrames(none);
    expectSameReport(report, FrameReport{});
    EXPECT_TRUE(telemetry::collectJournal().empty());
    const auto snapshot = telemetry::registry().snapshot();
    if (const auto *batched =
            snapshot.find("runtime.frames.batched")) {
        EXPECT_EQ(batched->count, 0);
    }
}

TEST(DataPlane, LoadGeneratorMatchesMaterializedCycledBatch)
{
    RecordingGuard guard;
    const Runtime runtime = mixedRuntime();
    const auto &pool =
        kodan::testing::SharedPipeline::instance().shared.val;
    const std::size_t total = pool.size() * 2 + 5;

    // Reference: the batch path over the explicitly materialized
    // cycled frame sequence.
    std::vector<data::FrameSample> cycled;
    cycled.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        cycled.push_back(pool[i % pool.size()]);
    }
    const RunOutputs batch = runBatch(runtime, cycled, 1);

    telemetry::resetAll();
    util::setGlobalThreads(kPipelineThreads);
    PipelineRuntime::Options options;
    options.workers = 4;
    PipelineRuntime pipeline(runtime, options);
    const LoadGenerator loadgen(pool);
    const LoadResult result = loadgen.run(pipeline, total);
    EXPECT_EQ(result.frames, total);
    EXPECT_GE(result.seconds, 0.0);
    const RunOutputs staged = captureOutputs(result.report);
    expectSameOutputs(staged, batch);
}

/** Names of the registered metrics that start with "pipeline.". */
std::vector<std::string>
pipelineMetricNames(const telemetry::RegistrySnapshot &snapshot)
{
    std::vector<std::string> names;
    for (const auto &metric : snapshot.metrics) {
        if (metric.name.rfind("pipeline.", 0) == 0) {
            names.push_back(metric.name);
        }
    }
    return names;
}

TEST(DataPlane, StatsModeAddsStageTimersWithoutChangingResults)
{
    RecordingGuard guard;
    const Runtime runtime = mixedRuntime();
    const auto &frames =
        kodan::testing::SharedPipeline::instance().shared.val;
    const RunOutputs batch = runBatch(runtime, frames, 1);

    PipelineRuntime::Options options;
    options.workers = 4;
    const RunOutputs plain = runPipeline(runtime, frames, options);
    // Stats off: no pipeline.* name is registered at all. Registrations
    // outlive resetAll(), so this holds only because no earlier test in
    // this binary turns stats on.
    EXPECT_TRUE(pipelineMetricNames(plain.metrics).empty());

    options.stats = true;
    const RunOutputs staged = runPipeline(runtime, frames, options);
    // The result and the per-frame journal lanes are still identical;
    // only the per-stage timers are added.
    expectSameReport(staged.report, batch.report);
    EXPECT_EQ(staged.journal, batch.journal);
    EXPECT_EQ(pipelineMetricNames(staged.metrics),
              (std::vector<std::string>{"pipeline.stage.elide_s",
                                        "pipeline.stage.infer_s",
                                        "pipeline.stage.tile_classify_s"}));
    for (const std::string &name : pipelineMetricNames(staged.metrics)) {
        SCOPED_TRACE(name);
        const auto *timer = staged.metrics.find(name);
        ASSERT_NE(timer, nullptr);
        EXPECT_EQ(static_cast<int>(timer->kind),
                  static_cast<int>(telemetry::MetricSample::Kind::Timer));
        EXPECT_GT(timer->count, 0);
    }
}

} // namespace
} // namespace kodan::pipeline
