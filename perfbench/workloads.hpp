/**
 * @file
 * The benchmark's workloads. Each runs closed-loop with one client in
 * this process, reaches kodan only through its public API, and returns
 * the metric values it measured keyed by name; main.cpp turns them
 * into the result line.
 */

#ifndef KODAN_PERFBENCH_WORKLOADS_HPP
#define KODAN_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>

#include "ml/quant.hpp"

namespace perfbench {

/** Window of the host scaling and of latency_p50_ms's windowed median
 *  (s): tens to hundreds of calls, shorter than the host's fast and
 *  slow spells. */
inline constexpr double kLatencyWindowS = 1.0;

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured phase (s). */
    double seconds = 10.0;
    /** Run the layer ledger instead of the end-to-end measurement. */
    bool trace = false;
};

/** What a workload measured. */
struct WorkloadOutcome
{
    /** Metric name -> value, in the unit BENCHMARK.json declares. */
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Set-up and replay checks (not per-operation) all held. */
    bool setup_ok = true;
};

/** frames_fp64 / frames_int8: the deployed frame path at @p precision. */
WorkloadOutcome runFrames(const RunOptions &options,
                          kodan::ml::Precision precision);

/** mission_global_recorded: the recorded constellation mission. */
WorkloadOutcome runMission(const RunOptions &options);

} // namespace perfbench

#endif // KODAN_PERFBENCH_WORKLOADS_HPP
