/**
 * @file
 * Figure 2: global frames observed vs frames downlinked per orbit
 * period as constellation population grows, for a hyperspectral
 * Landsat-8-like payload. Observation count grows linearly; downlink
 * first claims idle ground-station time, then saturates.
 */

#include <iostream>
#include <limits>

#include "common.hpp"
#include "orbit/propagator.hpp"
#include "sim/constellation.hpp"
#include "util/table.hpp"

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    using namespace kodan;
    bench::banner("Downlink gap vs constellation size", "Figure 2");

    const orbit::J2Propagator reference(orbit::OrbitalElements::landsat8());
    const double period = reference.nodalPeriod();

    util::TablePrinter table({"satellites", "frames seen", "frames down",
                              "seen/down", "idle station s"});
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    for (int sats : {1, 2, 4, 8, 16, 24, 32, 40, 48, 56}) {
        sim::ConstellationConfig config;
        config.mission = sim::MissionConfig::landsatConstellation(sats);
        // Hyperspectral frames (the paper's "hyperspectral, 10K image
        // frames"): ~77 Gbit each, so only a handful fit per pass.
        config.mission.camera = sense::CameraModel::landsat8Hyperspectral();
        config.mission.duration = period;
        config.mission.scheduler_step = 10.0;
        // No recorder cap: the one-orbit backlog waits for a contact.
        config.storage_bits = std::numeric_limits<double>::infinity();
        const auto result =
            engine.run(config, sim::FilterBehavior::bentPipe());
        const auto totals = result.totals();
        table.addRow(
            {util::TablePrinter::fmt(static_cast<long long>(sats)),
             util::TablePrinter::fmt(
                 static_cast<long long>(totals.frames_observed)),
             util::TablePrinter::fmt(totals.frames_downlinked, 1),
             util::TablePrinter::fmt(
                 totals.frames_downlinked > 0.0
                     ? totals.frames_observed / totals.frames_downlinked
                     : 0.0,
                 1),
             util::TablePrinter::fmt(result.idle_station_seconds, 0)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: observed frames grow linearly with\n"
                 "satellite count while downlinked frames saturate once\n"
                 "idle ground-station time is exhausted (paper: 5 frames\n"
                 "down for 1 satellite, ~60 for 16, flat beyond).\n";
    return 0;
}
