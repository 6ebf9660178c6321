/** @file Unit tests for the downlink model and ground-segment scheduler. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ground/downlink.hpp"

namespace kodan::ground {
namespace {

/** One-shot allocation over [0, t1]: a single span of the State API. */
GroundSegmentScheduler::Allocation
allocateOnce(const GroundSegmentScheduler &scheduler,
             const std::vector<ContactWindow> &windows, std::size_t sats,
             std::size_t stations, double t1)
{
    auto state = scheduler.beginAllocation(sats, stations, 0.0);
    scheduler.allocateSpan(windows, t1, state);
    return scheduler.finishAllocation(std::move(state));
}

TEST(DownlinkModel, RateTimesTime)
{
    DownlinkModel radio;
    radio.datarate_bps = 100.0e6;
    radio.pass_overhead_s = 0.0;
    EXPECT_DOUBLE_EQ(radio.bitsForContact(10.0), 1.0e9);
}

TEST(DownlinkModel, OverheadDeductedPerPass)
{
    DownlinkModel radio;
    radio.datarate_bps = 1.0e6;
    radio.pass_overhead_s = 15.0;
    EXPECT_DOUBLE_EQ(radio.bitsForContact(100.0, 1), 85.0e6);
    EXPECT_DOUBLE_EQ(radio.bitsForContact(100.0, 2), 70.0e6);
}

TEST(DownlinkModel, NeverNegative)
{
    DownlinkModel radio;
    radio.pass_overhead_s = 60.0;
    EXPECT_DOUBLE_EQ(radio.bitsForContact(30.0, 1), 0.0);
}

TEST(Scheduler, SingleSatelliteGetsAllWindowTime)
{
    // One window, one satellite: every in-window second is granted.
    std::vector<ContactWindow> windows = {{0, 0, 100.0, 400.0}};
    const GroundSegmentScheduler scheduler(10.0);
    const auto alloc = allocateOnce(scheduler, windows, 1, 1, 1000.0);
    EXPECT_NEAR(alloc.seconds_per_satellite[0], 300.0, 10.0);
    EXPECT_EQ(alloc.passes_per_satellite[0], 1U);
    EXPECT_NEAR(alloc.idle_station_seconds +
                    alloc.busy_station_seconds,
                1000.0, 1.0);
}

TEST(Scheduler, ContendingSatellitesShareFairly)
{
    // Two satellites visible at the same station simultaneously; with
    // zero hysteresis slack the split is exactly fair.
    std::vector<ContactWindow> windows = {{0, 0, 0.0, 600.0},
                                          {0, 1, 0.0, 600.0}};
    const GroundSegmentScheduler scheduler(10.0, 0.0);
    const auto alloc = allocateOnce(scheduler, windows, 2, 1, 600.0);
    EXPECT_NEAR(alloc.seconds_per_satellite[0],
                alloc.seconds_per_satellite[1], 20.0);
    EXPECT_NEAR(alloc.seconds_per_satellite[0] +
                    alloc.seconds_per_satellite[1],
                600.0, 10.0);
}

TEST(Scheduler, HysteresisKeepsGrantsContiguous)
{
    // With the default slack, a contended pass is served in long
    // contiguous grants instead of per-step ping-pong, bounding the
    // per-pass overhead count.
    std::vector<ContactWindow> windows = {{0, 0, 0.0, 600.0},
                                          {0, 1, 0.0, 600.0}};
    const GroundSegmentScheduler scheduler(10.0, 240.0);
    const auto alloc = allocateOnce(scheduler, windows, 2, 1, 600.0);
    EXPECT_LE(alloc.passes_per_satellite[0] +
                  alloc.passes_per_satellite[1],
              4U);
    // Both satellites are still served within one slack of each other.
    EXPECT_NEAR(alloc.seconds_per_satellite[0],
                alloc.seconds_per_satellite[1], 250.0);
}

TEST(Scheduler, SecondStationRemovesContention)
{
    std::vector<ContactWindow> windows = {{0, 0, 0.0, 600.0},
                                          {1, 1, 0.0, 600.0}};
    const GroundSegmentScheduler scheduler(10.0);
    const auto alloc = allocateOnce(scheduler, windows, 2, 2, 600.0);
    EXPECT_NEAR(alloc.seconds_per_satellite[0], 600.0, 10.0);
    EXPECT_NEAR(alloc.seconds_per_satellite[1], 600.0, 10.0);
}

TEST(Scheduler, GrantConservation)
{
    // Total granted time can never exceed station-busy time.
    std::vector<ContactWindow> windows = {
        {0, 0, 0.0, 500.0}, {0, 1, 100.0, 400.0}, {0, 2, 200.0, 300.0}};
    const GroundSegmentScheduler scheduler(5.0);
    const auto alloc = allocateOnce(scheduler, windows, 3, 1, 500.0);
    double granted = 0.0;
    for (double s : alloc.seconds_per_satellite) {
        granted += s;
    }
    EXPECT_NEAR(granted, alloc.busy_station_seconds, 1e-6);
    EXPECT_LE(granted, 500.0 + 1e-6);
}

TEST(Scheduler, IdleTimeWhenNothingVisible)
{
    std::vector<ContactWindow> windows = {{0, 0, 900.0, 1000.0}};
    const GroundSegmentScheduler scheduler(10.0);
    const auto alloc = allocateOnce(scheduler, windows, 1, 1, 1000.0);
    EXPECT_NEAR(alloc.idle_station_seconds, 900.0, 20.0);
}

TEST(Scheduler, LeastServedWinsTie)
{
    // Satellite 1 already has a private window; during the shared window
    // the scheduler should favor satellite 0.
    std::vector<ContactWindow> windows = {{0, 1, 0.0, 300.0},
                                          {0, 0, 300.0, 600.0},
                                          {0, 1, 300.0, 600.0}};
    const GroundSegmentScheduler scheduler(10.0);
    const auto alloc = allocateOnce(scheduler, windows, 2, 1, 600.0);
    // Satellite 0 should win the whole contested second half.
    EXPECT_NEAR(alloc.seconds_per_satellite[0], 300.0, 20.0);
}

TEST(Scheduler, PassCountsTrackGrantChanges)
{
    std::vector<ContactWindow> windows = {{0, 0, 0.0, 100.0},
                                          {0, 0, 500.0, 600.0}};
    const GroundSegmentScheduler scheduler(10.0);
    const auto alloc = allocateOnce(scheduler, windows, 1, 1, 600.0);
    EXPECT_EQ(alloc.passes_per_satellite[0], 2U);
}

} // namespace
} // namespace kodan::ground
