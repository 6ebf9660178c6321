/**
 * @file
 * kodan::telemetry — umbrella header: instrumentation macros, the CLI
 * `--telemetry-out` hook, and exit-time output writing.
 *
 * Metric names follow `subsystem.noun.verb` (e.g.
 * `runtime.tiles.discarded`, `ground.contact.windows.found`); see
 * DESIGN.md "Observability".
 *
 * Overhead contract:
 *  - while recording is off (the default), a metric site costs one
 *    relaxed atomic load and a predictable branch, and a
 *    KODAN_TRACE_SCOPE span two (telemetry and the profiling plane) —
 *    no clock reads, no allocation, no locks;
 *  - instrumentation never reads or advances any `util::Rng` stream and
 *    never feeds back into computation, so simulation and pipeline
 *    results are bit-identical with telemetry on or off (enforced by
 *    tests/telemetry/test_equivalence.cpp).
 */

#ifndef KODAN_TELEMETRY_TELEMETRY_HPP
#define KODAN_TELEMETRY_TELEMETRY_HPP

#include <string>

#include "telemetry/export.hpp"
#include "telemetry/health.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf_counters.hpp"
#include "telemetry/prof.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace kodan::telemetry {

/**
 * Strip the harness flags from the argument vector:
 *  - `--telemetry-out <path>` (or `=<path>`): enables metric/trace
 *    recording, remembers the path, and registers an atexit hook that
 *    writes the metrics snapshot JSON to <path> and the Chrome trace
 *    beside it (foo.json -> foo.trace.json);
 *  - `--journal-out <path>` (or `=<path>`): enables the flight
 *    recorder and writes the journal JSONL to <path> at exit;
 *  - `--alerts-out <path>` (or `=<path>`): enables the fleet health
 *    plane and writes the alert JSONL to <path> at exit;
 *  - `--profile-out <path>` (or `=<path>`): enables the CPU profiling
 *    plane (sampling profiler + per-span hardware counters; see
 *    prof.hpp) and writes the profile JSON to <path> and the folded
 *    stacks beside it (foo.json -> foo.folded) at exit.
 * With `--telemetry-out foo.json`, the exit hook also writes the
 * sim-time series beside it (foo.timeseries.json). Honors the
 * KODAN_TELEMETRY / KODAN_JOURNAL / KODAN_ALERTS / KODAN_PROF env
 * toggles either way (enabled without a path, the exit hook prints a
 * summary to stderr instead; path-like KODAN_ALERTS / KODAN_PROF
 * values are used as output paths).
 *
 * @return true if any recording is enabled after parsing.
 */
bool configureFromArgs(int &argc, char **argv);

/** Output path set by configureFromArgs/setOutputPath ("" = none). */
std::string outputPath();

/** Set/replace the snapshot output path and arm the exit hook. */
void setOutputPath(const std::string &path);

/** Journal output path set by configureFromArgs/setJournalOutputPath. */
std::string journalOutputPath();

/** Set/replace the journal JSONL path and arm the exit hook. */
void setJournalOutputPath(const std::string &path);

/** Alert output path set by configureFromArgs/setAlertsOutputPath
 *  (falls back to a path-like KODAN_ALERTS value; "" = none). */
std::string alertsOutputPath();

/** Set/replace the alert JSONL path and arm the exit hook. */
void setAlertsOutputPath(const std::string &path);

/**
 * Write outputs now: metrics JSON + Chrome trace to outputPath() and
 * the journal JSONL to journalOutputPath() (or summaries to stderr when
 * enabled with no path). Safe to call repeatedly; also runs at process
 * exit once armed.
 */
void writeOutputs();

/** Zero all metrics, drop all trace events, clear the journal, the
 *  time series, and the health plane. */
void resetAll();

} // namespace kodan::telemetry

/* ------------------------------------------------------------------ */
/* Instrumentation macros                                              */
/* ------------------------------------------------------------------ */

#define KODAN_TM_CAT2(a, b) a##b
#define KODAN_TM_CAT(a, b) KODAN_TM_CAT2(a, b)

/** Add @p n_ to counter @p name_ (registry lookup cached per site). */
#define KODAN_COUNT_ADD(name_, n_)                                         \
    do {                                                                   \
        if (::kodan::telemetry::enabled()) {                               \
            static ::kodan::telemetry::Counter &kodan_tm_handle =          \
                ::kodan::telemetry::registry().counter(name_);             \
            kodan_tm_handle.add(                                           \
                static_cast<std::int64_t>(n_));                           \
        }                                                                  \
    } while (0)

/** Increment counter @p name_ by one. */
#define KODAN_COUNT(name_) KODAN_COUNT_ADD(name_, 1)

/** Set gauge @p name_ to @p v_. */
#define KODAN_GAUGE_SET(name_, v_)                                         \
    do {                                                                   \
        if (::kodan::telemetry::enabled()) {                               \
            static ::kodan::telemetry::Gauge &kodan_tm_handle =            \
                ::kodan::telemetry::registry().gauge(name_);               \
            kodan_tm_handle.set(static_cast<double>(v_));                  \
        }                                                                  \
    } while (0)

/** Accumulate @p v_ into gauge @p name_. */
#define KODAN_GAUGE_ADD(name_, v_)                                         \
    do {                                                                   \
        if (::kodan::telemetry::enabled()) {                               \
            static ::kodan::telemetry::Gauge &kodan_tm_handle =            \
                ::kodan::telemetry::registry().gauge(name_);               \
            kodan_tm_handle.add(static_cast<double>(v_));                  \
        }                                                                  \
    } while (0)

/**
 * Record @p v_ in histogram @p name_; trailing arguments are the bucket
 * edges (used on first registration): KODAN_HISTOGRAM("x.y.z", v, 1.0,
 * 2.0, 4.7).
 */
#define KODAN_HISTOGRAM(name_, v_, ...)                                    \
    do {                                                                   \
        if (::kodan::telemetry::enabled()) {                               \
            static ::kodan::telemetry::Histogram &kodan_tm_handle =        \
                ::kodan::telemetry::registry().histogram(name_,            \
                                                         {__VA_ARGS__});   \
            kodan_tm_handle.record(static_cast<double>(v_));               \
        }                                                                  \
    } while (0)

/** Record @p v_ at sim time @p t_ into the time series @p name_ with
 *  bin width @p bin_s_ (used on first registration). */
#define KODAN_TS_RECORD(name_, t_, v_, bin_s_)                             \
    do {                                                                   \
        if (::kodan::telemetry::enabled()) {                               \
            static const ::kodan::telemetry::SeriesId kodan_tm_handle =    \
                ::kodan::telemetry::timeSeries(name_, bin_s_);             \
            ::kodan::telemetry::timeSeriesRecord(                          \
                kodan_tm_handle, static_cast<double>(t_),                  \
                static_cast<double>(v_));                                  \
        }                                                                  \
    } while (0)

/**
 * The one span primitive, for stage/phase boundaries (engines, pipeline
 * stages, ML kernels): a ScopedSpan writing calls, wall time and —
 * while the profiling plane is on — thread-counter deltas into the
 * registry's timer @p name_, plus a trace event while telemetry is
 * enabled. The registry lookup is cached per call site.
 */
#define KODAN_TRACE_SCOPE(name_)                                           \
    ::kodan::telemetry::ScopedSpan KODAN_TM_CAT(kodan_tm_span_,            \
                                                __LINE__)(                \
        name_, []() -> ::kodan::telemetry::Timer & {                       \
            static ::kodan::telemetry::Timer &kodan_tm_handle =            \
                ::kodan::telemetry::registry().span(name_);                \
            return kodan_tm_handle;                                        \
        })

#endif // KODAN_TELEMETRY_TELEMETRY_HPP
