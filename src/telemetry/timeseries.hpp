/**
 * @file
 * Mission-time time series: metric observations binned by *simulated*
 * time.
 *
 * Where the metrics registry answers "how much over the whole run", a
 * time series answers "how much at minute 37": each recorded
 * observation carries a sim-time stamp and lands in the bin
 * floor(t / bin_width). Per-bin state is {count, sum, min, max}; sums
 * accumulate through the order-invariant fixed-point representation of
 * exact_sum.hpp, so a merged bin is a pure function of the multiset of
 * observations that hit it — deterministic and bit-identical at any
 * KODAN_THREADS (proved by `ctest -L timeseries`, including under
 * KODAN_SANITIZE=thread).
 *
 * Storage follows the journal pattern: every recording thread owns a
 * buffer (per-series map of bins) guarded by a mutex that is
 * uncontended on the hot path; snapshots merge the buffers with integer
 * arithmetic. Each (thread, series) map is bounded to `max_bins` bins —
 * beyond that the *oldest* (lowest-index) bin is dropped and counted.
 * Like journal ring mode, byte-identity claims apply while no bin has
 * been dropped; the default capacity (4096 bins) holds ~2.8 days of
 * mission time at the 60 s default width.
 *
 * Overhead contract: recording sites guard on the metrics `enabled()`
 * toggle (one relaxed load when disabled). Recording never reads a
 * clock or an Rng — the timestamp is the caller's sim time.
 */

#ifndef KODAN_TELEMETRY_TIMESERIES_HPP
#define KODAN_TELEMETRY_TIMESERIES_HPP

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace kodan::telemetry {

/** Default bin width (s of simulated time). */
constexpr double kTimeSeriesDefaultBinS = 60.0;

/** Default per-(thread, series) bin capacity. */
constexpr std::size_t kTimeSeriesDefaultMaxBins = 4096;

/** Stable handle of one registered series (0 is never returned). */
using SeriesId = std::size_t;

/** One merged sim-time bin. */
struct TimeSeriesBin
{
    /** Bin index: floor(t / bin_width). */
    std::int64_t index = 0;
    /** Observations that landed in the bin. */
    std::int64_t count = 0;
    /** Exact (order-invariant) sum of the observed values. */
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** One series' merged reading. */
struct SeriesSample
{
    std::string name;
    double bin_width_s = kTimeSeriesDefaultBinS;
    /** Bins dropped by the per-thread capacity bound. */
    std::uint64_t dropped_bins = 0;
    /** Bins sorted by index. */
    std::vector<TimeSeriesBin> bins;
};

/** Point-in-time merged view of every registered series. */
struct TimeSeriesSnapshot
{
    /** Series sorted by name. */
    std::vector<SeriesSample> series;

    /** The series named @p name, or nullptr. */
    const SeriesSample *find(const std::string &name) const;
};

/**
 * Register (or look up) the series @p name. Registration is
 * idempotent-by-name; @p bin_width_s and @p max_bins apply on first
 * registration only. The returned id stays valid for the process
 * lifetime.
 */
SeriesId timeSeries(const std::string &name,
                    double bin_width_s = kTimeSeriesDefaultBinS,
                    std::size_t max_bins = kTimeSeriesDefaultMaxBins);

/** Bin width of a registered series. */
double timeSeriesBinWidth(SeriesId id);

/** Record @p value at sim time @p sim_time_s into series @p id.
 *  Non-finite values and timestamps are ignored (deterministically). */
void timeSeriesRecord(SeriesId id, double sim_time_s, double value);

/** Merged view of every series (deterministic at quiescence). */
TimeSeriesSnapshot timeSeriesSnapshot();

/** Drop all recorded bins (registrations and ids persist). */
void clearTimeSeries();

/**
 * Write a snapshot as a JSON document:
 *   {"kodan_timeseries": 1, "series": [
 *     {"name": ..., "bin_s": ..., "dropped_bins": ..., "bins": [
 *       {"bin": i, "t_s": i * bin_s, "count": n, "sum": s,
 *        "min": lo, "max": hi}, ...]}, ...]}
 * Deterministic series produce byte-identical output for any
 * KODAN_THREADS.
 */
void writeTimeSeriesJson(const TimeSeriesSnapshot &snapshot,
                         std::ostream &os);

} // namespace kodan::telemetry

#endif // KODAN_TELEMETRY_TIMESERIES_HPP
