/**
 * @file
 * Time-series suite: binning semantics, idempotent registration,
 * capacity bounds, order-invariant sums, and byte-identical JSON export
 * at any KODAN_THREADS (the mission engine's series are pinned across
 * threads and shards in test_constellation.cpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::telemetry {
namespace {

/** Restores telemetry state and the thread default on exit. */
class TimeSeriesGuard
{
  public:
    TimeSeriesGuard() : was_enabled_(enabled())
    {
        resetAll();
        setEnabled(true);
    }

    ~TimeSeriesGuard()
    {
        setEnabled(was_enabled_);
        resetAll();
        util::setGlobalThreads(0);
    }

  private:
    bool was_enabled_;
};

std::string
exportJson()
{
    std::ostringstream out;
    writeTimeSeriesJson(timeSeriesSnapshot(), out);
    return out.str();
}

TEST(TimeSeries, ObservationsLandInFloorBins)
{
    TimeSeriesGuard guard;
    const SeriesId id = timeSeries("unit.bins", 10.0);
    timeSeriesRecord(id, 0.0, 1.0);
    timeSeriesRecord(id, 9.999, 3.0);
    timeSeriesRecord(id, 10.0, 5.0);
    timeSeriesRecord(id, 25.0, -2.0);
    // Negative sim time bins below zero (floor, not truncation).
    timeSeriesRecord(id, -0.5, 7.0);

    const auto snapshot = timeSeriesSnapshot();
    const SeriesSample *series = snapshot.find("unit.bins");
    ASSERT_NE(series, nullptr);
    EXPECT_DOUBLE_EQ(series->bin_width_s, 10.0);
    ASSERT_EQ(series->bins.size(), 4u);
    EXPECT_EQ(series->bins[0].index, -1);
    EXPECT_DOUBLE_EQ(series->bins[0].sum, 7.0);
    EXPECT_EQ(series->bins[1].index, 0);
    EXPECT_EQ(series->bins[1].count, 2);
    EXPECT_DOUBLE_EQ(series->bins[1].sum, 4.0);
    EXPECT_DOUBLE_EQ(series->bins[1].min, 1.0);
    EXPECT_DOUBLE_EQ(series->bins[1].max, 3.0);
    EXPECT_EQ(series->bins[2].index, 1);
    EXPECT_DOUBLE_EQ(series->bins[2].sum, 5.0);
    EXPECT_EQ(series->bins[3].index, 2);
    EXPECT_DOUBLE_EQ(series->bins[3].sum, -2.0);
}

TEST(TimeSeries, RegistrationIsIdempotentByName)
{
    TimeSeriesGuard guard;
    const SeriesId first = timeSeries("unit.idem", 30.0);
    // Second registration keeps the first bin width.
    const SeriesId second = timeSeries("unit.idem", 999.0);
    EXPECT_EQ(first, second);
    EXPECT_DOUBLE_EQ(timeSeriesBinWidth(first), 30.0);
}

TEST(TimeSeries, NonFiniteObservationsAreIgnored)
{
    TimeSeriesGuard guard;
    const SeriesId id = timeSeries("unit.finite", 1.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    timeSeriesRecord(id, nan, 1.0);
    timeSeriesRecord(id, 0.0, nan);
    timeSeriesRecord(id, inf, 1.0);
    timeSeriesRecord(id, 0.0, inf);
    timeSeriesRecord(id, 0.0, 2.0);
    const auto snapshot = timeSeriesSnapshot();
    const SeriesSample *series = snapshot.find("unit.finite");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->bins.size(), 1u);
    EXPECT_EQ(series->bins[0].count, 1);
    EXPECT_DOUBLE_EQ(series->bins[0].sum, 2.0);
}

TEST(TimeSeries, CapacityBoundDropsOldestBins)
{
    TimeSeriesGuard guard;
    util::setGlobalThreads(1); // one recording thread: exact drop count
    const SeriesId id = timeSeries("unit.ring", 1.0, 4);
    for (int bin = 0; bin < 10; ++bin) {
        timeSeriesRecord(id, static_cast<double>(bin), 1.0);
    }
    const auto snapshot = timeSeriesSnapshot();
    const SeriesSample *series = snapshot.find("unit.ring");
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(series->dropped_bins, 6u);
    ASSERT_EQ(series->bins.size(), 4u);
    // Drop-oldest: the newest bins survive.
    EXPECT_EQ(series->bins.front().index, 6);
    EXPECT_EQ(series->bins.back().index, 9);
}

TEST(TimeSeries, SumsAreOrderInvariant)
{
    // The classic parallel-sum hazard: values of wildly mixed magnitude
    // whose naive float sum depends on accumulation order. Recorded in
    // shuffled order across threads, the merged bin must be bit-equal to
    // the serial forward pass.
    std::vector<double> values;
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> mag(-12.0, 12.0);
    std::uniform_real_distribution<double> sign(-1.0, 1.0);
    for (int i = 0; i < 4096; ++i) {
        values.push_back(sign(rng) * std::pow(10.0, mag(rng)));
    }

    const auto runOnce = [&](int threads, std::uint64_t seed) {
        TimeSeriesGuard guard;
        util::setGlobalThreads(threads);
        std::vector<double> order = values;
        std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
        const SeriesId id = timeSeries("unit.exact", 1.0);
        util::parallelFor(order.size(), [&](std::size_t i) {
            timeSeriesRecord(id, 0.5, order[i]);
        });
        return exportJson();
    };

    const std::string serial = runOnce(1, 1);
    EXPECT_EQ(serial, runOnce(4, 2));
    EXPECT_EQ(serial, runOnce(16, 3));
}

TEST(TimeSeries, DisabledRegistryRecordsNothing)
{
    TimeSeriesGuard guard;
    setEnabled(false);
    // The macro site is the gate: with metrics disabled nothing lands.
    KODAN_TS_RECORD("unit.gated", 0.0, 1.0, 1.0);
    setEnabled(true);
    const auto snapshot = timeSeriesSnapshot();
    EXPECT_EQ(snapshot.find("unit.gated"), nullptr);
}

} // namespace
} // namespace kodan::telemetry
