/**
 * @file
 * Constellation-scale mission engine throughput probe: hundreds to
 * thousands of satellites over up to a simulated year through
 * ConstellationEngine (sharded scheduling, incremental ground-segment
 * allocation, streaming telemetry). No paper figure — this bench guards
 * the engine's throughput floor (satellite-days simulated per
 * wall-clock second) and its determinism contract.
 *
 * Results go to stdout and BENCH_constellation.run.json (in
 * KODAN_BENCH_CSV_DIR when set, else the bench cache directory).
 *
 * Flags (after the harness's --telemetry-out/--journal-out):
 *   --sats N               total satellites            (default 500)
 *   --planes P             orbital planes              (default 10)
 *   --phasing F            Walker phasing parameter    (default 1)
 *   --days D               simulated days              (default 365)
 *   --stations global|landsat  ground segment          (default global)
 *   --shard-size S         satellites per work unit    (default 16)
 *   --chunk-hours H        streaming chunk length      (default 24)
 *   --scan-step S          coarse contact scan step, s (default 120)
 *   --bin-hours B          telemetry bin width, hours  (default 0.5)
 *   --assert-throughput T  exit 1 below T sat-days/s   (default off)
 *   --verify               rerun a scaled-down scenario at 1/4/16
 *                          threads and fail on any bit divergence
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "sim/constellation.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace kodan;

double
timeSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

sim::ConstellationConfig
makeScenario(int sats, int planes, int phasing, double days,
             const std::string &stations, std::size_t shard_size,
             double chunk_hours, double scan_step, double bin_hours)
{
    sim::ConstellationConfig config;
    config.mission =
        sim::MissionConfig::makeConstellation(sats, planes, phasing);
    if (stations == "global") {
        config.mission.stations = ground::globalGroundSegment();
    }
    config.mission.duration = days * util::kSecondsPerDay;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = scan_step;
    config.mission.telemetry_bin_s = bin_hours * 3600.0;
    config.mission.telemetry_prefix = "constellation";
    config.shard_size = shard_size;
    config.chunk_s = chunk_hours * 3600.0;
    return config;
}

/** A Kodan-style on-orbit filter: costly, selective, compact products. */
sim::FilterBehavior
kodanFilter()
{
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.1;
    filter.product_fraction = 0.5;
    return filter;
}

bool
verifyThreadInvariance()
{
    // Recording off for the verify sweep: the harness's --telemetry-out
    // / --journal-out snapshots must capture only the main run, and the
    // ctest suite already pins telemetry bytes across thread counts.
    const bool metrics_on = telemetry::enabled();
    const bool journal_on = telemetry::journalEnabled();
    telemetry::setEnabled(false);
    telemetry::setJournalEnabled(false);
    const auto config =
        makeScenario(24, 4, 1, 1.0, "landsat", 7, 8.0, 60.0, 0.5);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::MissionResult reference;
    bool ok = true;
    for (const int threads : {1, 4, 16}) {
        util::setGlobalThreads(threads);
        const auto result = engine.run(config, kodanFilter());
        util::setGlobalThreads(0);
        if (threads == 1) {
            reference = result;
            continue;
        }
        for (std::size_t s = 0;
             ok && s < result.per_satellite.size(); ++s) {
            const auto &x = reference.per_satellite[s];
            const auto &y = result.per_satellite[s];
            if (x.frames_observed != y.frames_observed ||
                x.bits_downlinked != y.bits_downlinked ||
                x.high_bits_downlinked != y.high_bits_downlinked ||
                x.contact_seconds != y.contact_seconds) {
                std::cerr << "[kodan-bench] DETERMINISM VIOLATION: "
                             "satellite "
                          << s << " diverged at " << threads
                          << " threads\n";
                ok = false;
            }
        }
        if (!ok) {
            break;
        }
    }
    telemetry::setEnabled(metrics_on);
    telemetry::setJournalEnabled(journal_on);
    if (ok) {
        std::cout
            << "thread invariance: OK (1/4/16 threads bit-identical)\n";
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);

    int sats = 500;
    int planes = 10;
    int phasing = 1;
    double days = 365.0;
    std::string stations = "global";
    std::size_t shard_size = 16;
    double chunk_hours = 24.0;
    // 120 s coarse scan for the throughput scenario: the contact
    // scan still refines pass edges to sub-second accuracy, and the
    // rare sub-2-minute grazing pass the grid can miss is part of the
    // scenario definition, not a correctness concern (the tests pin
    // the sweep against the fixed grid at matched steps).
    double scan_step = 120.0;
    double bin_hours = 0.5;
    double assert_throughput = 0.0;
    bool verify = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--sats") {
            sats = std::stoi(next());
        } else if (arg == "--planes") {
            planes = std::stoi(next());
        } else if (arg == "--phasing") {
            phasing = std::stoi(next());
        } else if (arg == "--days") {
            days = std::stod(next());
        } else if (arg == "--stations") {
            stations = next();
        } else if (arg == "--shard-size") {
            shard_size = static_cast<std::size_t>(std::stoul(next()));
        } else if (arg == "--chunk-hours") {
            chunk_hours = std::stod(next());
        } else if (arg == "--scan-step") {
            scan_step = std::stod(next());
        } else if (arg == "--bin-hours") {
            bin_hours = std::stod(next());
        } else if (arg == "--assert-throughput") {
            assert_throughput = std::stod(next());
        } else if (arg == "--verify") {
            verify = true;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }

    bench::banner("Constellation-scale mission engine throughput",
                  "engine guard; no paper figure");

    if (verify && !verifyThreadInvariance()) {
        return 1;
    }

    const auto config =
        makeScenario(sats, planes, phasing, days, stations, shard_size,
                     chunk_hours, scan_step, bin_hours);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::MissionResult result;
    const double wall = timeSeconds(
        [&] { result = engine.run(config, kodanFilter()); });
    const auto totals = result.totals();
    const double sat_days = static_cast<double>(sats) * days;
    const double throughput = wall > 0.0 ? sat_days / wall : 0.0;

    util::TablePrinter table({"metric", "value"});
    table.addRow({"satellites",
                  util::TablePrinter::fmt(static_cast<long long>(sats))});
    table.addRow({"planes",
                  util::TablePrinter::fmt(
                      static_cast<long long>(planes))});
    table.addRow({"stations",
                  util::TablePrinter::fmt(static_cast<long long>(
                      config.mission.stations.size()))});
    table.addRow({"simulated days", util::TablePrinter::fmt(days, 1)});
    table.addRow({"frames observed",
                  util::TablePrinter::fmt(static_cast<long long>(
                      totals.frames_observed))});
    table.addRow(
        {"bits downlinked",
         util::TablePrinter::fmt(totals.bits_downlinked, 0)});
    table.addRow({"downlink DVD", util::TablePrinter::fmt(totals.dvd(), 4)});
    table.addRow({"contact seconds",
                  util::TablePrinter::fmt(totals.contact_seconds, 0)});
    table.addRow({"wall seconds", util::TablePrinter::fmt(wall, 2)});
    table.addRow({"sat-days / wall-second",
                  util::TablePrinter::fmt(throughput, 1)});
    table.print(std::cout);
    std::cout << "\nHardware concurrency: "
              << std::thread::hardware_concurrency() << "\n";
    bench::emitCsv("bench_constellation", table);

    const std::string path = bench::runRecordPath("constellation");
    std::ofstream json(path);
    if (json) {
        json << "{\n  \"satellites\": " << sats
             << ",\n  \"planes\": " << planes
             << ",\n  \"days\": " << days
             << ",\n  \"stations\": " << config.mission.stations.size()
             << ",\n  \"shard_size\": " << shard_size
             << ",\n  \"frames_observed\": " << totals.frames_observed
             << ",\n  \"bits_downlinked\": " << totals.bits_downlinked
             << ",\n  \"wall_seconds\": " << wall
             << ",\n  \"sat_days_per_second\": " << throughput << "\n}\n";
    }

    if (assert_throughput > 0.0 && throughput < assert_throughput) {
        std::cerr << "[kodan-bench] THROUGHPUT REGRESSION: " << throughput
                  << " sat-days/s below the asserted floor of "
                  << assert_throughput << "\n";
        return 1;
    }
    return 0;
}
