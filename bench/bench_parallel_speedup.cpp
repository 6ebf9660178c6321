/**
 * @file
 * Wall-clock speedup of the deterministic parallel execution layer on
 * the three hot paths (transformer sweep, batch runtime, mission engine),
 * swept over thread counts. Results go to stdout and to
 * BENCH_parallel_speedup.run.json (in KODAN_BENCH_CSV_DIR when set, else
 * the bench cache directory).
 *
 * Every workload is also checked for thread-count invariance while it is
 * being timed: a speedup that changed the numbers would be a bug, not a
 * win.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "sim/constellation.hpp"
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

struct Measurement
{
    std::string workload;
    int threads;
    double seconds;
    double speedup; // vs the same workload at 1 thread
};

core::TransformOptions
sweepOptions()
{
    core::TransformOptions options;
    options.train_frames = 40;
    options.val_frames = 24;
    options.specialize.max_train_blocks = 16000;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    bench::banner("Parallel execution layer: wall-clock speedup",
                  "the threading model of DESIGN.md; no paper figure");

    const std::vector<int> thread_counts = {1, 2, 4};
    std::vector<Measurement> measurements;

    // Shared inputs, prepared once (serial stage).
    util::setGlobalThreads(1);
    const data::GeoModel world;
    const core::Transformer transformer(sweepOptions());
    const auto shared = transformer.prepareData(world);
    const auto profile =
        core::SystemProfile::landsat8(hw::Target::Orin15W,
                                      shared.prevalence);

    // Workload 1: per-application transformer sweep (tables + select).
    double sweep_dvd_at_1 = 0.0;
    for (int threads : thread_counts) {
        util::setGlobalThreads(threads);
        double dvd = 0.0;
        const double seconds = timeSeconds([&] {
            const auto artifacts =
                transformer.transformApp(core::Application{4}, shared);
            dvd = transformer.select(artifacts, profile).outcome.dvd;
        });
        if (threads == 1) {
            sweep_dvd_at_1 = dvd;
        } else if (dvd != sweep_dvd_at_1) {
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: sweep dvd "
                      << dvd << " != " << sweep_dvd_at_1 << " at "
                      << threads << " threads\n";
            return 1;
        }
        measurements.push_back({"transform_sweep", threads, seconds, 0.0});
    }

    // Workload 2: batch runtime over a replicated frame set.
    util::setGlobalThreads(1);
    const auto artifacts =
        transformer.transformApp(core::Application{4}, shared);
    const auto sweep = transformer.select(artifacts, profile);
    const core::Runtime runtime(sweep.logic, shared.engine.get(),
                                &artifacts.zoo, hw::Target::Orin15W);
    std::vector<data::FrameSample> frames;
    for (int rep = 0; rep < 8; ++rep) {
        frames.insert(frames.end(), shared.val.begin(), shared.val.end());
    }
    double batch_time_at_1 = 0.0;
    for (int threads : thread_counts) {
        util::setGlobalThreads(threads);
        core::FrameReport report;
        const double seconds =
            timeSeconds([&] { report = runtime.processFrames(frames); });
        if (threads == 1) {
            batch_time_at_1 = report.compute_time;
        } else if (report.compute_time != batch_time_at_1) {
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: batch "
                         "runtime diverged at "
                      << threads << " threads\n";
            return 1;
        }
        measurements.push_back({"runtime_batch", threads, seconds, 0.0});
    }

    // Workload 3: constellation mission simulation. One satellite per
    // shard, so the satellite pass fans out over the pool (the default
    // shard of 16 would put all 8 satellites in one work item).
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::landsatConstellation(8);
    config.mission.duration = 12.0 * 3600.0;
    config.mission.scheduler_step = 20.0;
    config.mission.contact_scan_step = 30.0;
    config.storage_bits = std::numeric_limits<double>::infinity();
    config.shard_size = 1;
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.1;
    double mission_bits_at_1 = 0.0;
    for (int threads : thread_counts) {
        util::setGlobalThreads(threads);
        double bits = 0.0;
        const double seconds = timeSeconds([&] {
            bits = engine.run(config, filter).totals().bits_downlinked;
        });
        if (threads == 1) {
            mission_bits_at_1 = bits;
        } else if (bits != mission_bits_at_1) {
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: mission "
                         "engine diverged at "
                      << threads << " threads\n";
            return 1;
        }
        measurements.push_back({"mission", threads, seconds, 0.0});
    }
    util::setGlobalThreads(0);

    // Speedups vs the 1-thread run of the same workload.
    for (auto &m : measurements) {
        for (const auto &base : measurements) {
            if (base.workload == m.workload && base.threads == 1) {
                m.speedup = m.seconds > 0.0 ? base.seconds / m.seconds
                                            : 0.0;
            }
        }
    }

    util::TablePrinter table(
        {"workload", "threads", "wall (s)", "speedup vs 1T"});
    for (const auto &m : measurements) {
        table.addRow({m.workload,
                      util::TablePrinter::fmt(
                          static_cast<long long>(m.threads)),
                      util::TablePrinter::fmt(m.seconds, 3),
                      util::TablePrinter::fmt(m.speedup, 2)});
    }
    table.print(std::cout);
    std::cout << "\nHardware concurrency: "
              << std::thread::hardware_concurrency()
              << " (speedup is bounded by available cores; results are "
                 "bit-identical at every thread count by construction)\n";
    bench::emitCsv("bench_parallel_speedup", table);

    // JSON run record.
    const std::string path = bench::runRecordPath("parallel_speedup");
    std::ofstream json(path);
    if (json) {
        json << "{\n  \"hardware_concurrency\": "
             << std::thread::hardware_concurrency()
             << ",\n  \"measurements\": [\n";
        for (std::size_t i = 0; i < measurements.size(); ++i) {
            const auto &m = measurements[i];
            json << "    {\"workload\": \"" << m.workload
                 << "\", \"threads\": " << m.threads
                 << ", \"wall_seconds\": " << m.seconds
                 << ", \"speedup_vs_1t\": " << m.speedup << "}"
                 << (i + 1 < measurements.size() ? "," : "") << "\n";
        }
        json << "  ]\n}\n";
        std::cerr << "[kodan-bench] wrote " << path << "\n";
    }
    return 0;
}
