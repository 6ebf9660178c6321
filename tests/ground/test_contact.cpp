/** @file Unit tests for contact-window finding. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "contact_oracle.hpp"
#include "ground/contact.hpp"
#include "orbit/elements.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace kodan::ground {
namespace {

using util::degToRad;
using util::kSecondsPerDay;

GroundStation
station(double lat_deg, double lon_deg, double mask_deg = 10.0)
{
    GroundStation s;
    s.name = "test";
    s.location = {degToRad(lat_deg), degToRad(lon_deg), 0.0};
    s.min_elevation = degToRad(mask_deg);
    return s;
}

TEST(ContactFinder, PolarStationSeesPolarOrbitEveryRevolution)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const ContactFinder finder;
    const auto windows =
        finder.find(sat, station(89.0, 0.0), 0.0, kSecondsPerDay);
    // ~14.5 revolutions per day; a near-pole station sees nearly all.
    EXPECT_GE(windows.size(), 12U);
    EXPECT_LE(windows.size(), 16U);
}

TEST(ContactFinder, PassDurationsAreMinutes)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const ContactFinder finder;
    const auto windows =
        finder.find(sat, station(89.0, 0.0), 0.0, kSecondsPerDay);
    for (const auto &w : windows) {
        EXPECT_GT(w.duration(), 30.0);
        EXPECT_LT(w.duration(), 16.0 * 60.0);
    }
}

TEST(ContactFinder, WindowsAreOrderedAndDisjoint)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const ContactFinder finder;
    const auto windows =
        finder.find(sat, station(60.0, 20.0), 0.0, kSecondsPerDay);
    for (std::size_t i = 1; i < windows.size(); ++i) {
        EXPECT_GT(windows[i].start, windows[i - 1].end);
    }
}

TEST(ContactFinder, ElevationAtBoundariesEqualsMask)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const ContactFinder finder;
    const GroundStation s = station(45.0, 10.0);
    const auto windows = finder.find(sat, s, 0.0, kSecondsPerDay);
    ASSERT_FALSE(windows.empty());
    for (const auto &w : windows) {
        const double elev_start = orbit::elevationAngle(
            s.ecef(), sat.positionEcef(w.start));
        EXPECT_NEAR(util::radToDeg(elev_start), 10.0, 0.05);
    }
}

TEST(ContactFinder, TighterMaskShortensWindows)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const ContactFinder finder;
    const auto loose =
        finder.find(sat, station(70.0, 0.0, 5.0), 0.0, kSecondsPerDay);
    const auto tight =
        finder.find(sat, station(70.0, 0.0, 30.0), 0.0, kSecondsPerDay);
    EXPECT_GT(totalContactSeconds(loose), totalContactSeconds(tight));
}

TEST(ContactFinder, EquatorialStationSeesFewPasses)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const ContactFinder finder;
    const auto equatorial =
        finder.find(sat, station(0.0, 0.0), 0.0, kSecondsPerDay);
    const auto polar =
        finder.find(sat, station(89.0, 0.0), 0.0, kSecondsPerDay);
    EXPECT_LT(equatorial.size(), polar.size());
}

TEST(ContactFinder, FindAllTagsIndices)
{
    std::vector<orbit::J2Propagator> sats = {
        orbit::J2Propagator(orbit::OrbitalElements::landsat8(0.0, 0.0)),
        orbit::J2Propagator(
            orbit::OrbitalElements::landsat8(0.0, util::kPi))};
    std::vector<GroundStation> stations = {station(89.0, 0.0),
                                           station(45.0, 100.0)};
    const ContactFinder finder;
    const auto windows = finder.findAllParallel(sats, stations, 0.0, 20000.0);
    ASSERT_FALSE(windows.empty());
    for (const auto &w : windows) {
        EXPECT_LT(w.satellite, 2U);
        EXPECT_LT(w.station, 2U);
    }
    for (std::size_t i = 1; i < windows.size(); ++i) {
        EXPECT_GE(windows[i].start, windows[i - 1].start);
    }
    kodan::testing::expectWindowsIdentical(
        windows,
        kodan::testing::findAllOracle(finder, sats, stations, 0.0, 20000.0));
}

TEST(ContactFinder, WindowsClipAtBothIntervalEnds)
{
    const std::vector<orbit::J2Propagator> sats = {
        orbit::J2Propagator(orbit::OrbitalElements::landsat8(0.0, 0.0)),
        orbit::J2Propagator(
            orbit::OrbitalElements::landsat8(0.0, util::kPi))};
    const std::vector<GroundStation> stations = {station(89.0, 0.0),
                                                 station(60.0, 20.0)};
    const ContactFinder finder;
    // Open and close the interval mid-pass of satellite 0 over the
    // polar station.
    const auto passes =
        finder.find(sats[0], stations[0], 0.0, kSecondsPerDay);
    ASSERT_GE(passes.size(), 4U);
    const double t0 = 0.5 * (passes[1].start + passes[1].end);
    const double t1 = 0.5 * (passes[3].start + passes[3].end);
    const auto oracle =
        kodan::testing::findAllOracle(finder, sats, stations, t0, t1);
    ASSERT_FALSE(oracle.empty());
    EXPECT_EQ(oracle.front().start, t0);
    EXPECT_TRUE(std::any_of(oracle.begin(), oracle.end(),
                            [&](const ContactWindow &w) {
                                return w.end == t1;
                            }));
    for (const int threads : {1, 4, 16}) {
        util::setGlobalThreads(threads);
        kodan::testing::expectWindowsIdentical(
            finder.findAllParallel(sats, stations, t0, t1), oracle);
    }
    util::setGlobalThreads(0);
}

TEST(ContactFinderDeathTest, RejectsNonPositiveOrNonFiniteStep)
{
    // The pool other tests start would not survive fork(): re-execute.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const double step :
         {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        EXPECT_EXIT(ContactFinder{step}, ::testing::ExitedWithCode(1),
                    "coarse scan step must be finite and positive");
    }
}

TEST(ContactFinderDeathTest, RejectsIntervalsTheGridCannotWalk)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::vector<orbit::J2Propagator> sats = {
        orbit::J2Propagator(orbit::OrbitalElements::landsat8())};
    const std::vector<GroundStation> stations = {station(45.0, 0.0)};
    const ContactFinder finder;
    EXPECT_EXIT(finder.find(sats[0], stations[0], 100.0, 50.0),
                ::testing::ExitedWithCode(1), "must be finite with t0 <= t1");
    EXPECT_EXIT(finder.findAllParallel(sats, stations, 100.0, 50.0),
                ::testing::ExitedWithCode(1), "must be finite with t0 <= t1");
    EXPECT_EXIT(finder.findAllParallel(
                    sats, stations, 0.0,
                    std::numeric_limits<double>::infinity()),
                ::testing::ExitedWithCode(1), "must be finite with t0 <= t1");
    // A step below the time stamps' resolution would never advance.
    const ContactFinder tiny(1.0e-9);
    EXPECT_EXIT(tiny.findAllParallel(sats, stations, 1.0e9, 1.0e9 + 1.0),
                ::testing::ExitedWithCode(1), "vanishes");
}

TEST(ContactFinder, EmptyIntervalYieldsNoWindows)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const ContactFinder finder;
    const auto windows = finder.find(sat, station(45.0, 0.0), 100.0, 100.0);
    EXPECT_TRUE(windows.empty());
}

} // namespace
} // namespace kodan::ground
