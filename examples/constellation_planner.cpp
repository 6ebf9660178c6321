/**
 * @file
 * Constellation planning study: how many satellites does a mission
 * need?
 *
 * Sweeps constellation size for (a) observation coverage of the WRS
 * grid, (b) downlink saturation of the shared ground segment, and (c)
 * the processing pipeline length required for full ground-track
 * filtering coverage with and without Kodan — the trade the paper's
 * motivation (Figs. 2-5) and Fig. 11 explore.
 */

#include <iostream>
#include <limits>

#include "core/kodan.hpp"
#include "sim/constellation.hpp"
#include "sim/coverage.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

int
main(int argc, char **argv)
{
    kodan::telemetry::configureFromArgs(argc, argv);
    using namespace kodan;

    std::cout << "=== Constellation planner ===\n\n";

    // --- (a)+(b): coverage and downlink saturation per constellation
    // size.
    const auto camera = sense::CameraModel::landsat8Multispectral();
    const sense::WrsGrid grid;
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);

    std::cout << "Observation vs downlink (one day, bent pipe):\n";
    util::TablePrinter sweep({"satellites", "scenes seen %",
                              "frames downlinked", "downlink/sat"});
    for (int sats : {1, 4, 8, 16, 32}) {
        util::Rng rng(99);
        std::vector<orbit::OrbitalElements> constellation;
        for (int k = 0; k < sats; ++k) {
            constellation.push_back(orbit::OrbitalElements::landsat8(
                0.0, rng.uniform(0.0, util::kTwoPi)));
        }
        const auto coverage =
            sim::uniqueSceneCoverage(constellation, camera, grid);

        sim::ConstellationConfig config;
        config.mission.satellites = constellation;
        config.mission.stations = ground::landsatGroundSegment();
        config.mission.camera = camera;
        config.storage_bits = std::numeric_limits<double>::infinity();
        const auto result =
            engine.run(config, sim::FilterBehavior::bentPipe()).totals();
        sweep.addRow(
            {util::TablePrinter::fmt(static_cast<long long>(sats)),
             util::TablePrinter::fmt(100.0 * coverage.coverageFraction(),
                                     1),
             util::TablePrinter::fmt(result.frames_downlinked, 0),
             util::TablePrinter::fmt(result.frames_downlinked / sats,
                                     0)});
    }
    sweep.print(std::cout);
    std::cout << "\nAdded satellites stop adding downlink once the\n"
                 "ground segment saturates - extra observations are\n"
                 "stranded in orbit unless filtered at the edge.\n\n";

    // --- Walker designs: multi-plane constellations trade coverage
    // continuity against launch complexity.
    std::cout << "Walker-delta designs (24 satellites, one day):\n";
    util::TablePrinter walker({"design", "scenes seen %"});
    for (int planes : {1, 2, 4, 8}) {
        const auto constellation = orbit::walkerConstellation(
            24, planes, planes > 1 ? 1 : 0, 705.0e3,
            orbit::sunSynchronousInclination(705.0e3));
        const auto coverage =
            sim::uniqueSceneCoverage(constellation, camera, grid);
        walker.addRow(
            {"24/" + std::to_string(planes) + "/" +
                 std::to_string(planes > 1 ? 1 : 0),
             util::TablePrinter::fmt(100.0 * coverage.coverageFraction(),
                                     1)});
    }
    walker.print(std::cout);
    std::cout << "\n";

    // --- (c): processing-coverage pipeline length, direct vs Kodan.
    std::cout << "Processing pipeline length for full ground-track "
                 "coverage (App 5, Orin 15W):\n";
    data::GeoModel world;
    core::TransformOptions options;
    options.train_frames = 60;
    options.val_frames = 24;
    core::Transformer transformer(options);
    const auto shared = transformer.prepareData(world);
    const auto artifacts =
        transformer.transformApp(core::Application{5}, shared);
    const auto profile = core::SystemProfile::landsat8(
        hw::Target::Orin15W, shared.prevalence);
    const auto direct = core::Transformer::directDeploy(artifacts, profile);
    const auto kodan = transformer.select(artifacts, profile);

    const int direct_sats = sim::satellitesForFullCoverage(
        direct.frame_time, profile.frame_deadline);
    const int kodan_sats = sim::satellitesForFullCoverage(
        kodan.outcome.frame_time, profile.frame_deadline);
    std::cout << "  direct deploy: "
              << util::TablePrinter::fmt(direct.frame_time, 1)
              << " s/frame -> " << direct_sats << " satellites\n";
    std::cout << "  Kodan:         "
              << util::TablePrinter::fmt(kodan.outcome.frame_time, 1)
              << " s/frame -> " << kodan_sats << " satellites ("
              << util::TablePrinter::fmt(
                     static_cast<double>(direct_sats) / kodan_sats, 1)
              << "x fewer)\n";
    return 0;
}
