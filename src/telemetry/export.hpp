/**
 * @file
 * Snapshot exporters: metrics as JSON or as the repo's fixed-width
 * `util::table` text format, and traces as Chrome `trace_event` JSON.
 */

#ifndef KODAN_TELEMETRY_EXPORT_HPP
#define KODAN_TELEMETRY_EXPORT_HPP

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace kodan::telemetry {

/**
 * Quantile estimate from fixed-bucket histogram counts: finds the
 * bucket containing rank q * count and interpolates linearly within its
 * edge span. Bucket 0 spans [min(0, edges[0]), edges[0]]; the overflow
 * bucket clamps to the last edge (the histogram records no upper
 * bound). Returns 0 for an empty histogram. Derived purely from the
 * deterministic bucket counts, so the estimate is thread-count
 * invariant like every other integer reading.
 *
 * @param edges Bucket upper bounds (as registered).
 * @param buckets Per-bucket counts (edges.size() + 1 entries).
 * @param q Quantile in [0, 1] (0.5 = p50).
 */
double histogramQuantile(const std::vector<double> &edges,
                         const std::vector<std::int64_t> &buckets,
                         double q);

/** Write a metrics snapshot as a JSON document. Histogram entries carry
 *  p50/p95/p99 estimates (see histogramQuantile). */
void writeMetricsJson(const RegistrySnapshot &snapshot, std::ostream &os);

/** Write a metrics snapshot as an aligned text table. */
void writeMetricsTable(const RegistrySnapshot &snapshot, std::ostream &os);

/**
 * Write events as a Chrome trace_event JSON document ("X" complete
 * events; instant events as "i"). @p dropped is reported in the trace
 * metadata.
 */
void writeChromeTrace(const std::vector<TraceEvent> &events,
                      std::uint64_t dropped, std::ostream &os);

/**
 * Append @p value as printf("%.17g") formats it: enough digits to
 * round-trip, locale-free, "nan"/"inf" for non-finite values. Every
 * exporter formats doubles through this, so equal values export equal
 * bytes across artifacts.
 */
void appendNumber(std::string &out, double value);

/** appendNumber() into a fresh string. */
std::string jsonNumber(double value);

/** Append @p text JSON-escaped (no surrounding quotes) to @p out. */
void appendJsonEscaped(std::string &out, std::string_view text);

/** JSON string escaping (exposed for the exporter tests). */
std::string jsonEscape(const std::string &text);

} // namespace kodan::telemetry

#endif // KODAN_TELEMETRY_EXPORT_HPP
