/**
 * @file
 * Figure 5: percentage of observed high-value data downlinked by a bent
 * pipe versus a directly-deployed cloud filter, across constellation
 * sizes. The filter needs 98 s per frame against a ~22 s frame deadline,
 * so direct deployment only improves the yield by a few percent instead
 * of the potential 3x.
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
    bench::banner(
        "Observed high-value data downlinked: bent pipe vs direct deploy",
        "Figure 5");

    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);

    // The paper's real cloud filter: 98 s per frame (1m38s), deployed
    // unchanged. As a frame-level gate it only drops frames that are
    // decisively cloudy (most low-value frames are partially cloudy and
    // survive), and — being a legacy datacenter app — it does not
    // reorder the radio queue.
    sim::FilterBehavior direct;
    direct.frame_time = 98.0;
    direct.keep_high = 0.98;
    direct.keep_low = 0.45;
    direct.send_unprocessed = true;
    direct.prioritize_products = false;

    util::TablePrinter table({"satellites", "bent pipe %",
                              "direct deploy %", "improvement %"});
    double one_sat_bent = 0.0;
    double one_sat_direct = 0.0;
    for (int sats : {1, 2, 4, 8, 16, 24, 32, 40, 48, 56}) {
        sim::ConstellationConfig config;
        config.mission = sim::MissionConfig::landsatConstellation(sats);
        config.storage_bits = std::numeric_limits<double>::infinity();
        const auto bent =
            engine.run(config, sim::FilterBehavior::bentPipe()).totals();
        const auto filtered = engine.run(config, direct).totals();
        const double bent_yield =
            100.0 * bent.high_bits_downlinked / bent.high_bits_observed;
        const double direct_yield = 100.0 *
                                    filtered.high_bits_downlinked /
                                    filtered.high_bits_observed;
        if (sats == 1) {
            one_sat_bent = bent_yield;
            one_sat_direct = direct_yield;
        }
        table.addRow(
            {util::TablePrinter::fmt(static_cast<long long>(sats)),
             util::TablePrinter::fmt(bent_yield, 1),
             util::TablePrinter::fmt(direct_yield, 1),
             util::TablePrinter::fmt(
                 100.0 * (direct_yield - bent_yield) / bent_yield, 1)});
    }
    table.print(std::cout);
    std::cout << "\nFrame deadline ~22 s, filter time 98 s: only ~22% of\n"
                 "frames can be filtered, so direct deployment improves\n"
                 "the single-satellite yield from "
              << util::TablePrinter::fmt(one_sat_bent, 1) << "% to "
              << util::TablePrinter::fmt(one_sat_direct, 1)
              << "% (paper: ~9% relative improvement, not 3x).\n";
    return 0;
}
