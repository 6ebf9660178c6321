/**
 * @file
 * Figure 10: DVD improvement over the bent pipe (normalized to the
 * per-app maximum) as a function of application execution time per
 * frame. DVD rises as frame time falls until the frame deadline is met;
 * below the deadline it is capped by application precision.
 */

#include <iostream>
#include <limits>
#include <string>

#include "common.hpp"
#include "sim/constellation.hpp"
#include "util/table.hpp"

namespace {

using namespace kodan;

/**
 * Direct-deploy outcome with the frame execution time forced to @p t:
 * isolates the time axis of Fig. 10 while keeping the app's measured
 * keep-rate and precision.
 */
core::DeploymentOutcome
outcomeAtTime(const core::SystemProfile &profile,
              const core::ContextActionTable &table, double t)
{
    // Rebuild the single-candidate table with a synthetic parameter
    // count whose cost-model time per tile equals t / tiles_per_frame.
    core::ContextActionTable scaled = table;
    const double tiles =
        static_cast<double>(table.tiles_per_side) * table.tiles_per_side;
    // Invert the cost model by bisection on parameter count.
    const double per_tile = t / tiles;
    std::size_t lo = 1;
    std::size_t hi = 1;
    while (hw::CostModel::modelTime(hi, profile.target) < per_tile &&
           hi < (1ULL << 40)) {
        hi *= 2;
    }
    for (int iter = 0; iter < 64 && lo + 1 < hi; ++iter) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (hw::CostModel::modelTime(mid, profile.target) < per_tile) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    scaled.stats[0][0].model_params = hi;
    return core::evaluateLogic(profile, scaled, {scaled.actions[0][0]},
                               false, true);
}

/**
 * Mission-time view of the same story: a day of the 3-satellite
 * constellation under the bent pipe vs a Kodan-like on-board filter.
 * With telemetry enabled, each run feeds sim-time-binned series
 * (fig10.bent.* / fig10.kodan.*) — DVD per bin over mission time is the
 * time axis of Fig. 10 made observable, and the regression pipeline
 * diffs those series bit-exactly against committed baselines.
 */
void
missionSection()
{
    std::cout << "\nMission DVD over a simulated day "
                 "(3-satellite constellation):\n";
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::landsatConstellation(3);
    config.storage_bits = std::numeric_limits<double>::infinity();

    // A filter with Kodan-like characteristics: fits the frame deadline,
    // keeps nearly all high-value frames, discards nearly all low-value
    // ones, and downlinks products instead of raw frames.
    sim::FilterBehavior kodan_like;
    kodan_like.frame_time = 18.0;
    kodan_like.keep_high = 0.95;
    kodan_like.keep_low = 0.05;
    kodan_like.send_unprocessed = false;

    config.mission.telemetry_prefix = "fig10.bent";
    const auto bent = engine.run(config, sim::FilterBehavior::bentPipe());
    config.mission.telemetry_prefix = "fig10.kodan";
    const auto kodan = engine.run(config, kodan_like);

    util::TablePrinter table(
        {"pipeline", "frames downlinked", "DVD", "high-value yield"});
    const auto add_row = [&](const std::string &name,
                             const sim::MissionResult &result) {
        const auto totals = result.totals();
        table.addRow({name,
                      util::TablePrinter::fmt(totals.frames_downlinked, 1),
                      util::TablePrinter::fmt(totals.dvd()),
                      util::TablePrinter::fmt(totals.highValueYield())});
    };
    add_row("bent pipe", bent);
    add_row("kodan-like filter", kodan);
    table.print(std::cout);
    bench::emitCsv("fig10_mission_dvd", table);
    std::cout << "  (with --telemetry-out, the sim-time series "
                 "fig10.bent.* / fig10.kodan.*\n"
                 "   land in the .timeseries.json sibling; kodan-report "
                 "diff --timeseries\n"
                 "   guards them bin by bin)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    bool mission_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--mission-only") {
            mission_only = true;
        }
    }
    bench::banner("DVD vs application execution time per frame",
                  "Figure 10");
    if (mission_only) {
        // Regression-pipeline mode: only the mission sweep, which needs
        // no measured-app bundle and produces the deterministic
        // fig10.* time series.
        missionSection();
        return 0;
    }

    const auto orin = bench::profileFor(hw::Target::Orin15W);
    const auto bent = core::bentPipeOutcome(orin);

    // ---- The curve: App 4's quality characteristics swept over frame
    // execution time on the Orin.
    const auto &app4 = bench::appMeasurements(4);
    const auto &table4 = bench::directTable(app4);
    const double max_dvd = outcomeAtTime(orin, table4, 1.0).dvd;

    std::cout << "Curve (App 4 characteristics, Orin 15W):\n";
    util::TablePrinter curve({"frame time (s)", "DVD",
                              "improv. over bent (norm.)"});
    for (double t : {2.0, 10.0, 22.0, 40.0, 80.0, 120.0, 160.0, 200.0,
                     240.0, 280.0, 320.0}) {
        const auto outcome = outcomeAtTime(orin, table4, t);
        curve.addRow({util::TablePrinter::fmt(t, 0),
                      util::TablePrinter::fmt(outcome.dvd),
                      util::TablePrinter::fmt(
                          (outcome.dvd - bent.dvd) /
                              std::max(1e-12, max_dvd - bent.dvd))});
    }
    curve.print(std::cout);
    std::cout << "  (frame deadline: "
              << util::TablePrinter::fmt(orin.frame_deadline, 1)
              << " s — DVD saturates once frame time drops below it)\n\n";

    // ---- Measured points: the paper's App 1/4/7 deployments.
    std::cout << "Measured deployment points:\n";
    util::TablePrinter points({"point", "frame time (s)", "DVD",
                               "improv. over bent (norm.)"});
    auto add_point = [&](const std::string &name,
                         const core::DeploymentOutcome &o) {
        points.addRow({name, util::TablePrinter::fmt(o.frame_time, 1),
                       util::TablePrinter::fmt(o.dvd),
                       util::TablePrinter::fmt(
                           (o.dvd - bent.dvd) /
                               std::max(1e-12, max_dvd - bent.dvd))});
    };
    for (int tier : {1, 4, 7}) {
        const auto &app = bench::appMeasurements(tier);
        add_point("App " + std::to_string(tier) + " direct (Orin15W)",
                  bench::directDeploy(app, orin));
        add_point("App " + std::to_string(tier) + " Kodan (Orin15W)",
                  bench::kodanSelect(app, orin).outcome);
    }
    const auto &app1 = bench::appMeasurements(1);
    add_point("App 1 direct (i7-7800)",
              bench::directDeploy(app1,
                                  bench::profileFor(hw::Target::I7_7800)));
    add_point("App 1 direct (1070Ti)",
              bench::directDeploy(
                  app1, bench::profileFor(hw::Target::Gtx1070Ti)));
    points.print(std::cout);
    std::cout << "\nExpected shape: direct deployments past the deadline\n"
                 "sit low on the curve; Kodan points sit at or near the\n"
                 "per-app maximum (paper Fig. 10).\n";
    missionSection();
    return 0;
}
