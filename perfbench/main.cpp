/**
 * @file
 * kodan_perfbench: the repository benchmark.
 *
 *   kodan_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads: frames_fp64, frames_int8, mission_global_recorded (see
 * perfbench/NOTES.md for why each exists). With --trace 0 the run
 * measures the end-to-end metrics; with --trace 1 it prints the layer
 * ledger and measures the per-layer metrics. Human-readable lines go to
 * stdout first; the last line is a JSON object of the values measured,
 * keyed by metric name, which perfbench/run.py turns into the result
 * line with the units BENCHMARK.json declares. A failed output check
 * makes the exit code 1.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;

/** Seconds the host-speed probe runs before and after the workload. */
constexpr double kProbeSeconds = 1.0;

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "kodan_perfbench: " << problem
              << "\nusage: kodan_perfbench --workload "
                 "<frames_fp64|frames_int8|mission_global_recorded> "
                 "--seed <n> --seconds <s> --trace <0|1>\n";
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + arg);
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                options.trace = value == "1";
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
        usage("--seconds must be in (0, 600]");
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions options = parseArgs(argc, argv);
    const double host_before = perfbench::hostRefMops(kProbeSeconds);

    perfbench::WorkloadOutcome outcome;
    if (options.workload == "frames_fp64") {
        outcome = perfbench::runFrames(options, kodan::ml::Precision::Fp64);
    } else if (options.workload == "frames_int8") {
        outcome = perfbench::runFrames(options, kodan::ml::Precision::Int8);
    } else if (options.workload == "mission_global_recorded") {
        outcome = perfbench::runMission(options);
    } else {
        usage("unknown workload " + options.workload);
    }

    const double host_after = perfbench::hostRefMops(kProbeSeconds);
    auto &values = outcome.values;
    values["host.ref_mops"] = (host_before + host_after) / 2.0;
    values["peak_rss_mb"] = perfbench::peakRssMib();
    if (outcome.attempted > 0) {
        values["pass_ratio"] =
            static_cast<double>(outcome.attempted - outcome.failed) /
            static_cast<double>(outcome.attempted);
    }
    std::cout << "[perfbench] workload " << options.workload << " seed "
              << options.seed << " trace " << options.trace
              << ": attempted " << outcome.attempted << ", failed "
              << outcome.failed << "; host.ref_mops before " << host_before
              << " after " << host_after << "\n";

    perfbench::Result result;
    result.attempted = outcome.attempted;
    result.failed = outcome.failed;
    result.correct = outcome.setup_ok && outcome.failed == 0 &&
                     outcome.attempted > 0;
    for (const auto &[name, value] : values) {
        if (!std::isfinite(value)) {
            std::cout << "[perfbench] metric " << name << " is not finite\n";
            result.correct = false;
            continue;
        }
        result.values[name] = value;
    }
    perfbench::writeResultJson(result, std::cout);
    return result.correct ? 0 : 1;
}
