/** @file Unit tests for the mission simulator. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/mission.hpp"
#include "telemetry/telemetry.hpp"

namespace kodan::sim {
namespace {

MissionConfig
shortConfig(int sats, double hours = 6.0)
{
    MissionConfig config = MissionConfig::landsatConstellation(sats);
    config.duration = hours * 3600.0;
    config.scheduler_step = 20.0;
    config.contact_scan_step = 60.0;
    return config;
}

TEST(MissionSim, BentPipeDvdEqualsPrevalence)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    const auto result = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto totals = result.totals();
    ASSERT_GT(totals.bits_downlinked, 0.0);
    EXPECT_NEAR(totals.high_bits_downlinked / totals.bits_downlinked,
                1.0 / 3.0, 0.08);
    EXPECT_EQ(totals.frames_processed, 0);
}

TEST(MissionSim, IdealFilterBeatsBentPipe)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    const auto config = shortConfig(1);
    const auto bent = sim.run(config, FilterBehavior::bentPipe()).totals();
    const auto ideal =
        sim.run(config, FilterBehavior::idealFilter()).totals();
    EXPECT_GT(ideal.high_bits_downlinked, 1.5 * bent.high_bits_downlinked);
    // Ideal filter downlinks only high-value data.
    EXPECT_NEAR(ideal.high_bits_downlinked / ideal.bits_downlinked, 1.0,
                1e-9);
}

TEST(MissionSim, DownlinkBoundedByContactCapacity)
{
    const MissionSim sim(nullptr, 0.5);
    const auto config = shortConfig(1);
    const auto result = sim.run(config, FilterBehavior::bentPipe());
    for (const auto &sat : result.per_satellite) {
        EXPECT_LE(sat.bits_downlinked,
                  config.radio.datarate_bps * sat.contact_seconds + 1.0);
    }
}

TEST(MissionSim, ObservationScalesWithConstellation)
{
    const MissionSim sim(nullptr, 0.5);
    const auto one = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto four = sim.run(shortConfig(4), FilterBehavior::bentPipe());
    EXPECT_NEAR(static_cast<double>(four.totals().frames_observed),
                4.0 * one.totals().frames_observed, 8.0);
}

TEST(MissionSim, DownlinkSaturatesWithConstellation)
{
    // Frames downlinked grow sublinearly once stations saturate.
    const MissionSim sim(nullptr, 0.5);
    const auto one = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto many = sim.run(shortConfig(12), FilterBehavior::bentPipe());
    const double growth = many.totals().frames_downlinked /
                          one.totals().frames_downlinked;
    EXPECT_LT(growth, 12.0);
    EXPECT_GT(growth, 1.0);
}

TEST(MissionSim, IdleStationTimeShrinksWithMoreSatellites)
{
    const MissionSim sim(nullptr, 0.5);
    const auto one = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto many = sim.run(shortConfig(8), FilterBehavior::bentPipe());
    EXPECT_LT(many.idle_station_seconds, one.idle_station_seconds);
}

TEST(MissionSim, SlowFilterProcessesFractionOfFrames)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    FilterBehavior slow;
    slow.frame_time = 98.0; // paper's direct-deploy example
    slow.keep_high = 1.0;
    slow.keep_low = 0.0;
    const auto result = sim.run(shortConfig(1), slow).totals();
    const double deadline = result.frame_deadline;
    const double expected_fraction = deadline / 98.0;
    const double actual_fraction =
        static_cast<double>(result.frames_processed) /
        result.frames_observed;
    EXPECT_NEAR(actual_fraction, expected_fraction, 0.05);
}

TEST(MissionSim, FastFilterProcessesEverything)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    FilterBehavior fast;
    fast.frame_time = 1.0;
    const auto result = sim.run(shortConfig(1), fast).totals();
    EXPECT_EQ(result.frames_processed, result.frames_observed);
}

TEST(MissionSim, WorldBackedValuesAreFractional)
{
    const data::GeoModel world;
    const MissionSim sim(&world);
    const auto result =
        sim.run(shortConfig(1, 3.0), FilterBehavior::bentPipe()).totals();
    // High-value fraction should be strictly between 0 and 1.
    ASSERT_GT(result.bits_observed, 0.0);
    const double prevalence =
        result.high_bits_observed / result.bits_observed;
    EXPECT_GT(prevalence, 0.2);
    EXPECT_LT(prevalence, 0.8);
}

TEST(MissionSim, FrameDeadlineMatchesCamera)
{
    const MissionSim sim(nullptr, 0.5);
    const auto result =
        sim.run(shortConfig(1, 2.0), FilterBehavior::bentPipe());
    EXPECT_NEAR(result.per_satellite[0].frame_deadline, 22.2, 0.3);
}

TEST(MissionSim, ProductPrioritizationBeatsFifo)
{
    // A slow, perfect filter: with product prioritization the few
    // filtered (all-high) frames jump the queue; in FIFO order they mix
    // with the raw backlog, lowering the downlinked value.
    const MissionSim sim(nullptr, 1.0 / 3.0);
    FilterBehavior priority;
    priority.frame_time = 98.0;
    priority.keep_high = 1.0;
    priority.keep_low = 0.0;
    priority.prioritize_products = true;
    FilterBehavior fifo = priority;
    fifo.prioritize_products = false;

    const auto config = shortConfig(1);
    const auto with_priority = sim.run(config, priority).totals();
    const auto with_fifo = sim.run(config, fifo).totals();
    EXPECT_GT(with_priority.high_bits_downlinked,
              with_fifo.high_bits_downlinked);
}

TEST(MissionSim, FifoStillConservesBits)
{
    const MissionSim sim(nullptr, 0.5);
    FilterBehavior fifo;
    fifo.frame_time = 50.0;
    fifo.keep_high = 0.9;
    fifo.keep_low = 0.3;
    fifo.prioritize_products = false;
    const auto result = sim.run(shortConfig(2), fifo);
    for (const auto &sat : result.per_satellite) {
        EXPECT_LE(sat.high_bits_downlinked, sat.bits_downlinked + 1e-3);
        EXPECT_LE(sat.bits_downlinked,
                  result.per_satellite[0].contact_seconds == 0.0
                      ? 1e18
                      : 210.0e6 * sat.contact_seconds + 1.0);
    }
}

TEST(MissionSim, HighValueYieldIsAFraction)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    const auto result =
        sim.run(shortConfig(2), FilterBehavior::idealFilter());
    for (const auto &sat : result.per_satellite) {
        EXPECT_GE(sat.highValueYield(), 0.0);
        EXPECT_LE(sat.highValueYield(), 1.0 + 1e-9);
    }
}

/** Turns the series and the journal on for one test; restores both
 *  toggles and clears every recorder on exit. */
class RecordingGuard
{
  public:
    RecordingGuard()
        : was_enabled_(telemetry::enabled()),
          was_journal_(telemetry::journalEnabled())
    {
        telemetry::resetAll();
        telemetry::setEnabled(true);
        telemetry::setJournalEnabled(true);
    }

    ~RecordingGuard()
    {
        telemetry::setEnabled(was_enabled_);
        telemetry::setJournalEnabled(was_journal_);
        telemetry::resetAll();
    }

  private:
    bool was_enabled_;
    bool was_journal_;
};

TEST(MissionSim, DrainTimingDatesEverySentItem)
{
#ifdef KODAN_TELEMETRY_DISABLED
    GTEST_SKIP() << "telemetry compiled out";
#else
    RecordingGuard guard;
    MissionConfig config = MissionConfig::landsatConstellation(3);
    config.duration = 6.0 * 3600.0;
    config.scheduler_step = 30.0;
    config.contact_scan_step = 60.0;
    FilterBehavior filter;
    filter.frame_time = 18.0;
    filter.keep_high = 0.95;
    filter.keep_low = 0.05;
    filter.send_unprocessed = false;
    const MissionSim sim(nullptr, 1.0 / 3.0);
    sim.run(config, filter);

    const telemetry::TimeSeriesSnapshot series =
        telemetry::timeSeriesSnapshot();
    const telemetry::SeriesSample *latency =
        series.find("sim.latency.e2e_s");
    const telemetry::SeriesSample *dvd = series.find("sim.dvd");
    ASSERT_NE(latency, nullptr);
    ASSERT_NE(dvd, nullptr);
    ASSERT_FALSE(latency->bins.empty());
    std::int64_t samples = 0;
    double total_s = 0.0;
    std::vector<std::int64_t> latency_bins;
    for (const auto &bin : latency->bins) {
        // Every item is a product, queued once its 18-s filter run ends.
        EXPECT_GE(bin.min, filter.frame_time - 1e-6) << "bin " << bin.index;
        samples += bin.count;
        total_s += bin.sum;
        latency_bins.push_back(bin.index);
    }
    std::vector<std::int64_t> dvd_bins;
    for (const auto &bin : dvd->bins) {
        dvd_bins.push_back(bin.index);
    }
    // A sample lands in the bin its bits were downlinked in, and only
    // bins that downlinked bits have a DVD point.
    EXPECT_EQ(latency_bins, dvd_bins);

    // One latency sample per item that got downlink budget.
    std::int64_t items_sent = 0;
    for (const auto &event : telemetry::collectJournal()) {
        if (event.type != "sim.satellite.queue") {
            continue;
        }
        for (const auto &field : event.fields) {
            if (field.name == "items_sent") {
                items_sent += field.i;
            }
        }
    }
    EXPECT_EQ(telemetry::journalDroppedEvents(), 0U);
    EXPECT_EQ(samples, items_sent);

    // The 18 s of on-board compute is dwarfed by the wait for a
    // contact and the queue behind it.
    EXPECT_GT(total_s / static_cast<double>(samples),
              2.0 * filter.frame_time);
#endif
}

} // namespace
} // namespace kodan::sim
