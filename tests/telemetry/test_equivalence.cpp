/**
 * @file
 * Telemetry non-interference suite: enabling metrics and tracing must
 * not change a single bit of any simulation output, at any thread
 * count. Instrumentation only observes — it never advances an RNG
 * stream or feeds back into computation — and these tests enforce that
 * with exact comparisons.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../core/fixture.hpp"
#include "core/kodan.hpp"
#include "sim/constellation.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::telemetry {
namespace {

/** Restores the recording toggles and the global thread default on
 *  exit. */
class StateGuard
{
  public:
    StateGuard()
        : was_enabled_(enabled()), journal_was_enabled_(journalEnabled()),
          health_was_enabled_(health::healthEnabled())
    {
        resetAll();
    }

    ~StateGuard()
    {
        setEnabled(was_enabled_);
        setJournalEnabled(journal_was_enabled_);
        health::setHealthEnabled(health_was_enabled_);
        resetAll();
        util::setGlobalThreads(0);
    }

  private:
    bool was_enabled_;
    bool journal_was_enabled_;
    bool health_was_enabled_;
};

void
expectSameReport(const core::FrameReport &a, const core::FrameReport &b)
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

TEST(TelemetryEquivalence, RuntimeReportsAreBitIdenticalOnOrOff)
{
    StateGuard guard;
    const auto &pipeline = kodan::testing::SharedPipeline::instance();
    core::SelectionLogic logic;
    logic.tiles_per_side = 6;
    logic.per_context.assign(
        pipeline.shared.partition.context_count,
        {core::ActionKind::RunModel, pipeline.app4.zoo.reference});
    const core::Runtime runtime(logic, pipeline.shared.engine.get(),
                                &pipeline.app4.zoo, hw::Target::Orin15W);

    setEnabled(false);
    util::setGlobalThreads(1);
    const core::FrameReport baseline =
        runtime.processFrames(pipeline.shared.val);

    for (int threads : {1, 7}) {
        util::setGlobalThreads(threads);
        setEnabled(true);
        const core::FrameReport instrumented =
            runtime.processFrames(pipeline.shared.val);
        setEnabled(false);
        SCOPED_TRACE("telemetry on, " + std::to_string(threads) +
                     " threads");
        expectSameReport(instrumented, baseline);
        // And recording actually happened — this is not a vacuous pass.
        const RegistrySnapshot snap = registry().snapshot();
        const MetricSample *frames =
            snap.find("runtime.frames.processed");
        ASSERT_NE(frames, nullptr);
        EXPECT_GT(frames->count, 0);
        resetAll();
    }
}

/** Every recording plane the mission engine feeds, switched at once. */
void
setMissionRecording(bool on)
{
    setEnabled(on);
    setJournalEnabled(on);
    health::setHealthEnabled(on);
}

TEST(TelemetryEquivalence, MissionEngineIsBitIdenticalOnOrOff)
{
    StateGuard guard;
    // Two chunks, a lossy filter that mixes products with raws, and a
    // recorder small enough to shed: every recorded path of the engine.
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::landsatConstellation(3);
    config.mission.duration = 2.0 * 3600.0;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 60.0;
    config.chunk_s = 3600.0;
    config.storage_bits = 2.0e11;
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.2;
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);

    setMissionRecording(false);
    util::setGlobalThreads(1);
    const auto baseline = engine.run(config, filter);

    for (int threads : {1, 7}) {
        util::setGlobalThreads(threads);
        setMissionRecording(true);
        const auto result = engine.run(config, filter);
        setMissionRecording(false);
        ASSERT_EQ(result.per_satellite.size(),
                  baseline.per_satellite.size());
        for (std::size_t s = 0; s < result.per_satellite.size(); ++s) {
            const auto &a = result.per_satellite[s];
            const auto &b = baseline.per_satellite[s];
            SCOPED_TRACE("sat " + std::to_string(s) + ", recording on, " +
                         std::to_string(threads) + " threads");
            EXPECT_EQ(a.frames_observed, b.frames_observed);
            EXPECT_EQ(a.frames_processed, b.frames_processed);
            EXPECT_EQ(a.frames_downlinked, b.frames_downlinked);
            EXPECT_EQ(a.bits_observed, b.bits_observed);
            EXPECT_EQ(a.high_bits_observed, b.high_bits_observed);
            EXPECT_EQ(a.bits_downlinked, b.bits_downlinked);
            EXPECT_EQ(a.high_bits_downlinked, b.high_bits_downlinked);
            EXPECT_EQ(a.contact_seconds, b.contact_seconds);
            EXPECT_EQ(a.frame_deadline, b.frame_deadline);
        }
        EXPECT_EQ(result.idle_station_seconds,
                  baseline.idle_station_seconds);
        EXPECT_EQ(result.busy_station_seconds,
                  baseline.busy_station_seconds);
        // Every plane recorded: metrics, journal, series and health.
        const RegistrySnapshot snap = registry().snapshot();
        const MetricSample *observed =
            snap.find("constellation.frames.observed");
        ASSERT_NE(observed, nullptr);
        EXPECT_GT(observed->count, 0);
        EXPECT_FALSE(collectJournal().empty());
        const TimeSeriesSnapshot series = timeSeriesSnapshot();
        const SeriesSample *dropped =
            series.find("sim.storage.dropped_bits");
        ASSERT_NE(dropped, nullptr);
        EXPECT_FALSE(dropped->bins.empty());
        EXPECT_GT(health::plane().snapshot().observations, 0);
        resetAll();
    }
}

TEST(TelemetryEquivalence, SelectionSweepIsBitIdenticalOnOrOff)
{
    StateGuard guard;
    const auto &pipeline = kodan::testing::SharedPipeline::instance();
    const auto profile = core::SystemProfile::landsat8(
        hw::Target::Orin15W, pipeline.shared.prevalence);

    setEnabled(false);
    const core::SweepResult baseline =
        pipeline.transformer.select(pipeline.app4, profile);

    setEnabled(true);
    const core::SweepResult instrumented =
        pipeline.transformer.select(pipeline.app4, profile);
    setEnabled(false);

    EXPECT_EQ(instrumented.logic.tiles_per_side,
              baseline.logic.tiles_per_side);
    ASSERT_EQ(instrumented.logic.per_context.size(),
              baseline.logic.per_context.size());
    for (std::size_t c = 0; c < instrumented.logic.per_context.size();
         ++c) {
        EXPECT_TRUE(instrumented.logic.per_context[c] ==
                    baseline.logic.per_context[c]);
    }
    EXPECT_EQ(instrumented.outcome.dvd, baseline.outcome.dvd);
    EXPECT_EQ(instrumented.outcome.frame_time,
              baseline.outcome.frame_time);
    EXPECT_EQ(instrumented.outcome.bits_sent, baseline.outcome.bits_sent);
    EXPECT_EQ(instrumented.outcome.high_bits_sent,
              baseline.outcome.high_bits_sent);

    const RegistrySnapshot snap = registry().snapshot();
    const MetricSample *evaluated =
        snap.find("selection.candidates.evaluated");
    ASSERT_NE(evaluated, nullptr);
    EXPECT_GT(evaluated->count, 0);
}

} // namespace
} // namespace kodan::telemetry
