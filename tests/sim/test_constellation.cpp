/**
 * @file
 * Mission-engine suite: bit-identical results — MissionResult, journal
 * bytes, time-series bytes — across thread counts and shard sizes,
 * physical sanity of the fluid downlink model (saturation, filters,
 * queue order, conservation), the bounded storage cap, scenario
 * validation, multi-plane constellation coverage, and the global
 * ground segment preset.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/constellation.hpp"
#include "sim/coverage.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::sim {
namespace {

/** Enables metrics + journal, restores everything on exit. */
class TelemetryGuard
{
  public:
    TelemetryGuard()
        : metrics_were_enabled_(telemetry::enabled()),
          journal_was_enabled_(telemetry::journalEnabled()),
          saved_ring_(telemetry::journalRingCapacity())
    {
        telemetry::resetAll();
        telemetry::setEnabled(true);
        telemetry::setJournalEnabled(true);
        telemetry::setJournalRingCapacity(0);
    }

    ~TelemetryGuard()
    {
        telemetry::setEnabled(metrics_were_enabled_);
        telemetry::setJournalEnabled(journal_was_enabled_);
        telemetry::setJournalRingCapacity(saved_ring_);
        telemetry::resetAll();
        util::setGlobalThreads(0);
    }

  private:
    bool metrics_were_enabled_;
    bool journal_was_enabled_;
    std::size_t saved_ring_;
};

ConstellationConfig
smallScenario()
{
    ConstellationConfig config;
    config.mission = MissionConfig::makeConstellation(10, 2, 1);
    config.mission.duration = 12.0 * 3600.0;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 60.0;
    config.mission.telemetry_bin_s = 1800.0;
    config.mission.telemetry_prefix = "constellation";
    config.chunk_s = 4.0 * 3600.0; // three chunks
    return config;
}

/** A short single-plane mission with no recorder cap: one chunk that
 *  drains after the whole capture. */
ConstellationConfig
missionScenario(int sats, double hours = 6.0)
{
    ConstellationConfig config;
    config.mission = MissionConfig::landsatConstellation(sats);
    config.mission.duration = hours * 3600.0;
    config.mission.scheduler_step = 20.0;
    config.mission.contact_scan_step = 60.0;
    config.storage_bits = std::numeric_limits<double>::infinity();
    return config;
}

/** A slow, lossy filter that mixes products with raw frames: 40 s per
 *  frame against a ~22 s deadline, keeps 0.9 / 0.2, sends raws. */
FilterBehavior
lossyFilter(bool prioritize_products)
{
    FilterBehavior filter;
    filter.frame_time = 40.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.2;
    filter.send_unprocessed = true;
    filter.prioritize_products = prioritize_products;
    return filter;
}

/** Everything a run produces, captured for bitwise comparison. */
struct CapturedRun
{
    MissionResult result;
    std::string journal;
    std::string series;
};

CapturedRun
runCaptured(const ConstellationConfig &config,
            const FilterBehavior &filter, int threads)
{
    telemetry::resetAll();
    util::setGlobalThreads(threads);
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    CapturedRun run;
    run.result = engine.run(config, filter);
    util::setGlobalThreads(0);
    std::ostringstream journal_out;
    telemetry::writeJournalJsonl(telemetry::collectJournal(),
                                 telemetry::journalDroppedEvents(),
                                 journal_out);
    run.journal = journal_out.str();
    std::ostringstream series_out;
    telemetry::writeTimeSeriesJson(telemetry::timeSeriesSnapshot(),
                                   series_out);
    run.series = series_out.str();
    return run;
}

void
expectResultsIdentical(const MissionResult &a, const MissionResult &b)
{
    ASSERT_EQ(a.per_satellite.size(), b.per_satellite.size());
    for (std::size_t s = 0; s < a.per_satellite.size(); ++s) {
        const SatelliteResult &x = a.per_satellite[s];
        const SatelliteResult &y = b.per_satellite[s];
        EXPECT_EQ(x.frames_observed, y.frames_observed) << "sat " << s;
        EXPECT_EQ(x.frames_processed, y.frames_processed) << "sat " << s;
        EXPECT_EQ(x.frames_downlinked, y.frames_downlinked) << "sat " << s;
        EXPECT_EQ(x.bits_observed, y.bits_observed) << "sat " << s;
        EXPECT_EQ(x.high_bits_observed, y.high_bits_observed)
            << "sat " << s;
        EXPECT_EQ(x.bits_downlinked, y.bits_downlinked) << "sat " << s;
        EXPECT_EQ(x.high_bits_downlinked, y.high_bits_downlinked)
            << "sat " << s;
        EXPECT_EQ(x.contact_seconds, y.contact_seconds) << "sat " << s;
        EXPECT_EQ(x.frame_deadline, y.frame_deadline) << "sat " << s;
    }
    EXPECT_EQ(a.idle_station_seconds, b.idle_station_seconds);
    EXPECT_EQ(a.busy_station_seconds, b.busy_station_seconds);
}

/** One input of the determinism grid. */
struct InvarianceCase
{
    const char *name;
    FilterBehavior filter;
    double storage_bits;
};

// The determinism contract: MissionResult, journal bytes, and
// time-series bytes are bit-identical for every (threads, shard_size)
// combination — parallelism and shard granularity are pure scheduling
// detail. The ideal filter never fills the raw pool; the lossy filter
// mixes products with raws, drains them in priority and in FIFO order,
// and overflows a recorder small enough to shed every chunk.
TEST(ConstellationEngine, ThreadAndShardInvariance)
{
    TelemetryGuard guard;
    const int thread_counts[] = {1, 4, 16};
    const std::size_t shard_sizes[] = {1, 7, 64};
    const InvarianceCase cases[] = {
        {"ideal", FilterBehavior::idealFilter(), 3.1e12},
        {"lossy_priority", lossyFilter(true), 5.0e11},
        {"lossy_fifo", lossyFilter(false), 5.0e11},
    };

    for (const InvarianceCase &c : cases) {
        SCOPED_TRACE(c.name);
        ConstellationConfig reference_config = smallScenario();
        reference_config.shard_size = 1;
        reference_config.storage_bits = c.storage_bits;
        const CapturedRun reference =
            runCaptured(reference_config, c.filter, 1);
        ASSERT_GT(reference.result.totals().frames_observed, 0);
        ASSERT_FALSE(reference.journal.empty());
        ASSERT_FALSE(reference.series.empty());
        if (c.storage_bits < 1.0e12) {
            // The small recorder really sheds.
            const telemetry::TimeSeriesSnapshot series =
                telemetry::timeSeriesSnapshot();
            const telemetry::SeriesSample *dropped =
                series.find("constellation.storage.dropped_bits");
            ASSERT_NE(dropped, nullptr);
            EXPECT_FALSE(dropped->bins.empty());
        }

        for (const int threads : thread_counts) {
            for (const std::size_t shard : shard_sizes) {
                if (threads == 1 && shard == 1) {
                    continue;
                }
                ConstellationConfig config = reference_config;
                config.shard_size = shard;
                const CapturedRun run = runCaptured(config, c.filter, threads);
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " shard=" + std::to_string(shard));
                expectResultsIdentical(reference.result, run.result);
                EXPECT_EQ(reference.journal, run.journal);
                EXPECT_EQ(reference.series, run.series);
            }
        }
    }
}

TEST(ConstellationEngine, BentPipeDvdEqualsPrevalence)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    const auto totals =
        engine.run(smallScenario(), FilterBehavior::bentPipe()).totals();
    ASSERT_GT(totals.bits_downlinked, 0.0);
    EXPECT_NEAR(totals.dvd(), 1.0 / 3.0, 0.08);
    EXPECT_EQ(totals.frames_processed, 0);
}

TEST(ConstellationEngine, IdealFilterDownlinksOnlyHighValue)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    const ConstellationConfig config = smallScenario();
    const auto bent =
        engine.run(config, FilterBehavior::bentPipe()).totals();
    const auto ideal =
        engine.run(config, FilterBehavior::idealFilter()).totals();
    ASSERT_GT(ideal.bits_downlinked, 0.0);
    EXPECT_NEAR(ideal.dvd(), 1.0, 1e-9);
    EXPECT_GT(ideal.high_bits_downlinked, 1.5 * bent.high_bits_downlinked);
}

TEST(ConstellationEngine, DownlinkBoundedByContactCapacity)
{
    const ConstellationEngine engine(nullptr, 0.5);
    const ConstellationConfig config = smallScenario();
    const auto result = engine.run(config, FilterBehavior::bentPipe());
    for (const auto &sat : result.per_satellite) {
        EXPECT_LE(sat.bits_downlinked,
                  config.mission.radio.datarate_bps * sat.contact_seconds +
                      1.0);
    }
}

// The bounded recorder: a zero-capacity store sheds the entire backlog
// before every drain, so nothing ever reaches the ground; observation
// accounting is unaffected.
TEST(ConstellationEngine, StorageCapShedsBacklog)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    ConstellationConfig uncapped = smallScenario();
    uncapped.storage_bits = 1.0e18;
    ConstellationConfig capped = smallScenario();
    capped.storage_bits = 0.0;
    const auto big =
        engine.run(uncapped, FilterBehavior::bentPipe()).totals();
    const auto none =
        engine.run(capped, FilterBehavior::bentPipe()).totals();
    EXPECT_GT(big.bits_downlinked, 0.0);
    EXPECT_EQ(none.bits_downlinked, 0.0);
    EXPECT_EQ(none.frames_observed, big.frames_observed);
}

TEST(ConstellationEngine, ObservationScalesWithConstellation)
{
    const ConstellationEngine engine(nullptr, 0.5);
    const auto one =
        engine.run(missionScenario(1), FilterBehavior::bentPipe());
    const auto four =
        engine.run(missionScenario(4), FilterBehavior::bentPipe());
    EXPECT_NEAR(static_cast<double>(four.totals().frames_observed),
                4.0 * one.totals().frames_observed, 8.0);
}

TEST(ConstellationEngine, DownlinkSaturatesWithConstellation)
{
    // Frames downlinked grow sublinearly once stations saturate.
    const ConstellationEngine engine(nullptr, 0.5);
    const auto one =
        engine.run(missionScenario(1), FilterBehavior::bentPipe());
    const auto many =
        engine.run(missionScenario(12), FilterBehavior::bentPipe());
    const double growth = many.totals().frames_downlinked /
                          one.totals().frames_downlinked;
    EXPECT_LT(growth, 12.0);
    EXPECT_GT(growth, 1.0);
}

TEST(ConstellationEngine, IdleStationTimeShrinksWithMoreSatellites)
{
    const ConstellationEngine engine(nullptr, 0.5);
    const auto one =
        engine.run(missionScenario(1), FilterBehavior::bentPipe());
    const auto many =
        engine.run(missionScenario(8), FilterBehavior::bentPipe());
    EXPECT_LT(many.idle_station_seconds, one.idle_station_seconds);
}

TEST(ConstellationEngine, SlowFilterProcessesFractionOfFrames)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    FilterBehavior slow;
    slow.frame_time = 98.0; // paper's direct-deploy example
    slow.keep_high = 1.0;
    slow.keep_low = 0.0;
    const auto result = engine.run(missionScenario(1), slow).totals();
    const double expected_fraction = result.frame_deadline / 98.0;
    const double actual_fraction =
        static_cast<double>(result.frames_processed) /
        static_cast<double>(result.frames_observed);
    EXPECT_NEAR(actual_fraction, expected_fraction, 0.05);
}

TEST(ConstellationEngine, FastFilterProcessesEverything)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    FilterBehavior fast;
    fast.frame_time = 1.0;
    const auto result = engine.run(missionScenario(1), fast).totals();
    EXPECT_EQ(result.frames_processed, result.frames_observed);
}

TEST(ConstellationEngine, WorldBackedValuesAreFractional)
{
    const data::GeoModel world;
    const ConstellationEngine engine(&world);
    const auto result =
        engine.run(missionScenario(1, 3.0), FilterBehavior::bentPipe())
            .totals();
    // High-value fraction should be strictly between 0 and 1.
    ASSERT_GT(result.bits_observed, 0.0);
    const double prevalence =
        result.high_bits_observed / result.bits_observed;
    EXPECT_GT(prevalence, 0.2);
    EXPECT_LT(prevalence, 0.8);
}

TEST(ConstellationEngine, FrameDeadlineMatchesCamera)
{
    const ConstellationEngine engine(nullptr, 0.5);
    const auto result =
        engine.run(missionScenario(1, 2.0), FilterBehavior::bentPipe());
    EXPECT_NEAR(result.per_satellite[0].frame_deadline, 22.2, 0.3);
}

TEST(ConstellationEngine, ProductPrioritizationBeatsFifo)
{
    // A slow, perfect filter: with product prioritization the few
    // filtered (all-high) frames jump the queue; in FIFO order they mix
    // with the raw backlog, lowering the downlinked value.
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    FilterBehavior priority;
    priority.frame_time = 98.0;
    priority.keep_high = 1.0;
    priority.keep_low = 0.0;
    priority.prioritize_products = true;
    FilterBehavior fifo = priority;
    fifo.prioritize_products = false;

    const ConstellationConfig config = missionScenario(1);
    const auto with_priority = engine.run(config, priority).totals();
    const auto with_fifo = engine.run(config, fifo).totals();
    EXPECT_GT(with_priority.high_bits_downlinked,
              with_fifo.high_bits_downlinked);
}

TEST(ConstellationEngine, FifoStillConservesBits)
{
    const ConstellationEngine engine(nullptr, 0.5);
    FilterBehavior fifo;
    fifo.frame_time = 50.0;
    fifo.keep_high = 0.9;
    fifo.keep_low = 0.3;
    fifo.prioritize_products = false;
    const ConstellationConfig config = missionScenario(2);
    const auto result = engine.run(config, fifo);
    for (const auto &sat : result.per_satellite) {
        EXPECT_LE(sat.high_bits_downlinked, sat.bits_downlinked + 1e-3);
        EXPECT_LE(sat.bits_downlinked,
                  config.mission.radio.datarate_bps * sat.contact_seconds +
                      1.0);
    }
}

TEST(ConstellationEngine, HighValueYieldIsAFraction)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    const auto result =
        engine.run(missionScenario(2), FilterBehavior::idealFilter());
    for (const auto &sat : result.per_satellite) {
        EXPECT_GE(sat.highValueYield(), 0.0);
        EXPECT_LE(sat.highValueYield(), 1.0 + 1e-9);
    }
}

// A scenario the chunk loop cannot run dies through util::fatal with a
// message, before any chunk: no satellite or station, a chunk that is
// zero, negative or not finite, or one off the scheduler or bin grid.
TEST(ConstellationEngineDeathTest, RejectsScenarioWithoutSatellitesOrStations)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    ConstellationConfig no_sats = smallScenario();
    no_sats.mission.satellites.clear();
    EXPECT_EXIT(engine.run(no_sats, FilterBehavior::bentPipe()),
                ::testing::ExitedWithCode(1),
                "at least one satellite and one ground station");
    ConstellationConfig no_stations = smallScenario();
    no_stations.mission.stations.clear();
    EXPECT_EXIT(engine.run(no_stations, FilterBehavior::bentPipe()),
                ::testing::ExitedWithCode(1),
                "at least one satellite and one ground station");
}

TEST(ConstellationEngineDeathTest, RejectsChunkThatIsNotPositiveAndFinite)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    for (const double chunk_s :
         {0.0, -3600.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
        ConstellationConfig config = smallScenario();
        config.chunk_s = chunk_s;
        EXPECT_EXIT(engine.run(config, FilterBehavior::bentPipe()),
                    ::testing::ExitedWithCode(1),
                    "chunk_s must be finite and > 0")
            << "chunk_s " << chunk_s;
    }
}

TEST(ConstellationEngineDeathTest, RejectsChunkOffTheSchedulerOrBinGrid)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    // 0.3 h = 1080 s: on the 30-s scheduler grid, off the 1800-s bins.
    ConstellationConfig off_bins = smallScenario();
    off_bins.chunk_s = 0.3 * 3600.0;
    EXPECT_EXIT(engine.run(off_bins, FilterBehavior::bentPipe()),
                ::testing::ExitedWithCode(1),
                "must be a multiple of the scheduler step");
    // 7 s steps do not divide the 4-h chunk.
    ConstellationConfig off_steps = smallScenario();
    off_steps.mission.scheduler_step = 7.0;
    EXPECT_EXIT(engine.run(off_steps, FilterBehavior::bentPipe()),
                ::testing::ExitedWithCode(1),
                "must be a multiple of the scheduler step");
}

TEST(ConstellationEngineDeathTest, RejectsConstellationThatCannotBeBuilt)
{
    EXPECT_EXIT(MissionConfig::makeConstellation(0, 1, 0),
                ::testing::ExitedWithCode(1), "cannot fly in 1 plane");
    EXPECT_EXIT(MissionConfig::makeConstellation(8, 0, 0),
                ::testing::ExitedWithCode(1), "cannot fly in 0 plane");
    EXPECT_EXIT(MissionConfig::makeConstellation(8, 3, 1),
                ::testing::ExitedWithCode(1), "cannot fly in 3 plane");
    EXPECT_EXIT(MissionConfig::landsatConstellation(-2),
                ::testing::ExitedWithCode(1), "cannot fly in 1 plane");
}

// Multi-plane Walker layouts must buy coverage: the staggered planes
// observe far more distinct WRS scenes per day than the same satellite
// count flying clustered at one point of one plane, and the builder
// must actually stagger the planes (distinct RAANs, phased anomalies).
TEST(ConstellationConfig, MultiPlaneCoverageBeatsClusteredPlane)
{
    const sense::WrsGrid grid;
    const MissionConfig four_planes =
        MissionConfig::makeConstellation(8, 4, 1);
    std::set<double> raans;
    for (const auto &sat : four_planes.satellites) {
        raans.insert(sat.raan);
    }
    EXPECT_EQ(raans.size(), 4u);

    const std::vector<orbit::OrbitalElements> cluster(
        8, orbit::OrbitalElements::landsat8());
    const auto clustered =
        uniqueSceneCoverage(cluster, four_planes.camera, grid);
    const auto spread = uniqueSceneCoverage(
        four_planes.satellites, four_planes.camera, grid);
    EXPECT_EQ(clustered.total_frames, spread.total_frames);
    EXPECT_GT(spread.unique_scenes, 3 * clustered.unique_scenes);
    EXPECT_GT(spread.coverageFraction(), 0.02);
}

TEST(ConstellationConfig, SinglePlaneMatchesLandsatPreset)
{
    const MissionConfig a = MissionConfig::landsatConstellation(6);
    const MissionConfig b = MissionConfig::makeConstellation(6, 1, 0);
    ASSERT_EQ(a.satellites.size(), b.satellites.size());
    for (std::size_t s = 0; s < a.satellites.size(); ++s) {
        EXPECT_EQ(a.satellites[s].semi_major_axis,
                  b.satellites[s].semi_major_axis);
        EXPECT_EQ(a.satellites[s].inclination, b.satellites[s].inclination);
        EXPECT_EQ(a.satellites[s].raan, b.satellites[s].raan);
        EXPECT_EQ(a.satellites[s].mean_anomaly,
                  b.satellites[s].mean_anomaly);
    }
}

TEST(GlobalGroundSegment, HasDistinctGlobalSites)
{
    const auto stations = ground::globalGroundSegment();
    EXPECT_GE(stations.size(), 24u);
    std::set<std::string> names;
    bool has_northern = false;
    bool has_southern = false;
    for (const auto &station : stations) {
        names.insert(station.name);
        has_northern |= station.location.latitude > 1.0;
        has_southern |= station.location.latitude < -0.5;
        EXPECT_GT(station.min_elevation, 0.0);
    }
    EXPECT_EQ(names.size(), stations.size());
    EXPECT_TRUE(has_northern);
    EXPECT_TRUE(has_southern);
}

TEST(GlobalGroundSegment, GrantsMoreContactThanLandsatSegment)
{
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);
    const ConstellationConfig base = smallScenario();
    ConstellationConfig global = smallScenario();
    global.mission.stations = ground::globalGroundSegment();
    const auto narrow =
        engine.run(base, FilterBehavior::bentPipe()).totals();
    const auto wide =
        engine.run(global, FilterBehavior::bentPipe()).totals();
    EXPECT_GT(wide.contact_seconds, narrow.contact_seconds);
    EXPECT_GE(wide.bits_downlinked, narrow.bits_downlinked);
}

} // namespace
} // namespace kodan::sim
