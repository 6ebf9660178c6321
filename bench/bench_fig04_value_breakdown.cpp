/**
 * @file
 * Figure 4: per-satellite per-day frame accounting — observed on orbit,
 * downlinked by a bent pipe, and downlinked by an ideal (free, perfect)
 * edge filter — split into high-value and low-value frames. Ideal edge
 * filtering delivers ~3x more high-value data than the bent pipe.
 */

#include <iostream>
#include <limits>

#include "common.hpp"
#include "sim/constellation.hpp"
#include "util/table.hpp"

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    using namespace kodan;
    bench::banner("High/low-value frame breakdown per satellite-day",
                  "Figure 4");

    // The motivation figures use the MODIS-like 2/3 cloud prevalence:
    // one third of observations are high-value.
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::landsatConstellation(1);
    config.storage_bits = std::numeric_limits<double>::infinity();

    const auto bent = engine.run(config, sim::FilterBehavior::bentPipe());
    const auto ideal =
        engine.run(config, sim::FilterBehavior::idealFilter());
    const auto bent_totals = bent.totals();
    const auto ideal_totals = ideal.totals();
    const double frame_bits = config.mission.camera.frameBits();

    const double observed =
        static_cast<double>(bent_totals.frames_observed);
    const double observed_high =
        bent_totals.high_bits_observed / frame_bits;

    util::TablePrinter table(
        {"column", "frames", "high-value", "low-value"});
    auto add = [&](const char *name, double total, double high) {
        table.addRow({name, util::TablePrinter::fmt(total, 0),
                      util::TablePrinter::fmt(high, 0),
                      util::TablePrinter::fmt(total - high, 0)});
    };
    add("observed on orbit", observed, observed_high);
    add("downlinked, bent pipe", bent_totals.frames_downlinked,
        bent_totals.high_bits_downlinked / frame_bits);
    add("downlinked, ideal OEC", ideal_totals.frames_downlinked,
        ideal_totals.high_bits_downlinked / frame_bits);
    table.print(std::cout);

    const double bent_yield =
        bent_totals.high_bits_downlinked / bent_totals.high_bits_observed;
    const double ideal_yield = ideal_totals.high_bits_downlinked /
                               ideal_totals.high_bits_observed;
    std::cout << "\nObserved high-value data downlinked: bent pipe "
              << util::TablePrinter::fmt(100.0 * bent_yield, 1)
              << "% (paper: <21%), ideal OEC "
              << util::TablePrinter::fmt(100.0 * ideal_yield, 1)
              << "% (paper: ~63%).\n";
    std::cout << "Ideal edge filtering improvement: "
              << util::TablePrinter::fmt(ideal_yield / bent_yield, 2)
              << "x (paper: ~3x).\n";
    return 0;
}
