/**
 * @file
 * Property tests for the constellation-scale ground segment: the
 * incremental event-queue scheduler against the brute-force rescan
 * oracle over randomized contact patterns, chunked (streaming) span
 * allocation against the one-shot path, and the one-pass contact
 * scanner against the per-pair fixed-grid scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "../ground/contact_oracle.hpp"
#include "ground/contact.hpp"
#include "ground/downlink.hpp"
#include "ground/station.hpp"
#include "orbit/elements.hpp"
#include "orbit/propagator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace kodan::ground {
namespace {

/**
 * Random overlapping contact pattern: bursts of visibility with varied
 * durations and frequent multi-satellite contention at each station.
 */
std::vector<ContactWindow>
randomWindows(util::Rng &rng, std::size_t sats, std::size_t stations,
              double horizon)
{
    std::vector<ContactWindow> windows;
    for (std::size_t s = 0; s < sats; ++s) {
        for (std::size_t g = 0; g < stations; ++g) {
            double t = rng.uniform(0.0, 900.0);
            while (t < horizon) {
                const double duration = rng.uniform(30.0, 900.0);
                windows.push_back(
                    {g, s, t, std::min(t + duration, horizon)});
                t += duration + rng.uniform(60.0, 2400.0);
            }
        }
    }
    // Feed the scheduler in a scrambled order: results must not depend
    // on the window list order beyond the documented scan-order
    // tie-break, which both implementations share.
    const auto perm = rng.permutation(windows.size());
    std::vector<ContactWindow> shuffled(windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
        shuffled[i] = windows[perm[i]];
    }
    return shuffled;
}

void
expectAllocationsIdentical(const GroundSegmentScheduler::Allocation &a,
                           const GroundSegmentScheduler::Allocation &b)
{
    ASSERT_EQ(a.seconds_per_satellite.size(),
              b.seconds_per_satellite.size());
    for (std::size_t s = 0; s < a.seconds_per_satellite.size(); ++s) {
        EXPECT_EQ(a.seconds_per_satellite[s], b.seconds_per_satellite[s])
            << "seconds diverge for satellite " << s;
        EXPECT_EQ(a.passes_per_satellite[s], b.passes_per_satellite[s])
            << "passes diverge for satellite " << s;
        ASSERT_EQ(a.intervals_per_satellite[s].size(),
                  b.intervals_per_satellite[s].size())
            << "interval count diverges for satellite " << s;
        for (std::size_t i = 0; i < a.intervals_per_satellite[s].size();
             ++i) {
            const auto &ia = a.intervals_per_satellite[s][i];
            const auto &ib = b.intervals_per_satellite[s][i];
            EXPECT_EQ(ia.station, ib.station);
            EXPECT_EQ(ia.start, ib.start);
            EXPECT_EQ(ia.end, ib.end);
        }
    }
    EXPECT_EQ(a.busy_station_seconds, b.busy_station_seconds);
    EXPECT_EQ(a.idle_station_seconds, b.idle_station_seconds);
}

class SchedulerOracleProps : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerOracleProps, IncrementalMatchesRescan)
{
    util::Rng rng(0xC0117AC7ULL + GetParam());
    const std::size_t sats = 1 + rng.uniformInt(0, 11);
    const std::size_t stations = 1 + rng.uniformInt(0, 4);
    const double horizon = rng.uniform(6.0, 48.0) * 3600.0;
    const auto windows = randomWindows(rng, sats, stations, horizon);
    const GroundSegmentScheduler scheduler(10.0,
                                           rng.uniform(0.0, 480.0));
    auto state = scheduler.beginAllocation(sats, stations, 0.0);
    scheduler.allocateSpan(windows, horizon, state);
    const auto fast = scheduler.finishAllocation(std::move(state));
    const auto oracle =
        scheduler.allocateRescan(windows, sats, stations, 0.0, horizon);
    expectAllocationsIdentical(fast, oracle);
}

TEST_P(SchedulerOracleProps, ChunkedSpansMatchOneShot)
{
    util::Rng seeded(0x5EA7ULL * 131 + GetParam());
    const std::size_t sats = 1 + seeded.uniformInt(0, 7);
    const std::size_t stations = 1 + seeded.uniformInt(0, 3);
    const double horizon = 24.0 * 3600.0;
    const auto windows = randomWindows(seeded, sats, stations, horizon);
    const GroundSegmentScheduler scheduler(10.0, 240.0);
    auto whole = scheduler.beginAllocation(sats, stations, 0.0);
    scheduler.allocateSpan(windows, horizon, whole);
    const auto one_shot = scheduler.finishAllocation(std::move(whole));

    // Stream the same windows through span chunks on the step grid,
    // passing each chunk only the windows overlapping it (the streaming
    // driver's contract).
    const double chunk = 3600.0;
    auto state = scheduler.beginAllocation(sats, stations, 0.0);
    for (double t = 0.0; t < horizon; t += chunk) {
        const double t_end = std::min(t + chunk, horizon);
        std::vector<ContactWindow> overlap;
        for (const auto &w : windows) {
            if (w.end > t && w.start < t_end) {
                overlap.push_back(w);
            }
        }
        scheduler.allocateSpan(overlap, t_end, state);
    }
    const auto chunked = scheduler.finishAllocation(std::move(state));
    expectAllocationsIdentical(chunked, one_shot);
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, SchedulerOracleProps,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// The one-pass contact scanner vs the per-pair fixed-grid oracle.

/** One scan setup: a constellation, a ground segment, an interval. */
struct ScanCase
{
    const char *name;
    std::vector<orbit::OrbitalElements> satellites;
    std::vector<GroundStation> stations;
    double step;
    double t0;
    double t1;
};

/** @p stations with every elevation mask set to @p mask_deg. */
std::vector<GroundStation>
withMask(std::vector<GroundStation> stations, double mask_deg)
{
    for (auto &station : stations) {
        station.min_elevation = util::degToRad(mask_deg);
    }
    return stations;
}

std::vector<ScanCase>
scanCases()
{
    const double day = 86400.0;
    // Two Walker layouts: sun-synchronous staggered planes, and a
    // mid-inclination shell whose passes the polar sites never see.
    const auto sso = orbit::sunSynchronousConstellation(6, 3, 1, 705.0e3);
    const auto shell = orbit::walkerConstellation(
        8, 4, 1, 550.0e3, util::degToRad(53.0));
    return {
        {"landsat_sso", sso, landsatGroundSegment(), 30.0, 0.0, 2.0 * day},
        {"global_shell", shell, globalGroundSegment(), 60.0, 0.0, day},
        {"global_sso", sso, globalGroundSegment(), 120.0, 0.0, day},
        // A streaming chunk: t0 > 0, and t1 off the t0 + k*step grid.
        {"chunk_off_grid", shell, landsatGroundSegment(), 45.0,
         day + 1234.5, 1.6 * day + 17.25},
        {"empty_interval", sso, globalGroundSegment(), 30.0, 5000.0,
         5000.0},
        {"mask_30deg", shell, withMask(globalGroundSegment(), 30.0), 30.0,
         0.0, day},
    };
}

TEST(ContactSweepProps, OnePassMatchesPerPairOracleAtAnyThreadCount)
{
    for (const ScanCase &c : scanCases()) {
        SCOPED_TRACE(c.name);
        std::vector<orbit::J2Propagator> sats(c.satellites.begin(),
                                              c.satellites.end());
        const ContactFinder finder(c.step);
        const auto oracle = kodan::testing::findAllOracle(
            finder, sats, c.stations, c.t0, c.t1);
        for (const int threads : {1, 4, 16}) {
            SCOPED_TRACE(threads);
            util::setGlobalThreads(threads);
            kodan::testing::expectWindowsIdentical(
                finder.findAllParallel(sats, c.stations, c.t0, c.t1),
                oracle);
        }
    }
    util::setGlobalThreads(0);
}

TEST(ContactSweepProps, ParallelSweepMatchesSerialAtAnyThreadCount)
{
    const auto stations = sparseGroundSegment();
    std::vector<orbit::J2Propagator> sats;
    for (const auto &elems : orbit::walkerConstellation(
             8, 2, 1, 705.0e3,
             orbit::sunSynchronousInclination(705.0e3))) {
        sats.emplace_back(elems);
    }
    const ContactFinder finder(30.0);
    const auto serial =
        kodan::testing::findAllOracle(finder, sats, stations, 0.0, 86400.0);
    for (const int threads : {1, 4, 16}) {
        util::setGlobalThreads(threads);
        const auto parallel =
            finder.findAllParallel(sats, stations, 0.0, 86400.0);
        kodan::testing::expectWindowsIdentical(parallel, serial);
    }
    util::setGlobalThreads(0);
}

} // namespace
} // namespace kodan::ground
