#include "telemetry/export.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/table.hpp"

namespace kodan::telemetry {

namespace {

const char *
kindName(MetricSample::Kind kind)
{
    switch (kind) {
      case MetricSample::Kind::Counter:
        return "counter";
      case MetricSample::Kind::Gauge:
        return "gauge";
      case MetricSample::Kind::Histogram:
        return "histogram";
      case MetricSample::Kind::Timer:
        return "timer";
    }
    return "?";
}

} // namespace

void
appendNumber(std::string &out, double value)
{
    // std::to_chars with a precision is specified as printf with that
    // precision in the "C" locale. The longest "%.17g" text is 24
    // characters ("-2.2250738585072014e-308").
    char buffer[32];
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value,
                      std::chars_format::general, 17);
    out.append(buffer, result.ptr);
}

std::string
jsonNumber(double value)
{
    std::string out;
    appendNumber(out, value);
    return out;
}

double
histogramQuantile(const std::vector<double> &edges,
                  const std::vector<std::int64_t> &buckets, double q)
{
    std::int64_t count = 0;
    for (const std::int64_t bucket : buckets) {
        count += bucket;
    }
    if (count <= 0 || edges.empty()) {
        return 0.0;
    }
    if (q < 0.0) {
        q = 0.0;
    }
    if (q > 1.0) {
        q = 1.0;
    }
    const double rank = q * static_cast<double>(count);
    double cumulative = 0.0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const double in_bucket = static_cast<double>(buckets[b]);
        if (in_bucket <= 0.0) {
            continue;
        }
        if (cumulative + in_bucket >= rank) {
            if (b >= edges.size()) {
                // Overflow bucket: no upper bound recorded; clamp.
                return edges.back();
            }
            const double hi = edges[b];
            const double lo =
                b == 0 ? std::min(0.0, edges[0]) : edges[b - 1];
            const double fraction =
                std::max(0.0, rank - cumulative) / in_bucket;
            return lo + fraction * (hi - lo);
        }
        cumulative += in_bucket;
    }
    return edges.back();
}

void
appendJsonEscaped(std::string &out, std::string_view text)
{
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    appendJsonEscaped(out, text);
    return out;
}

void
writeMetricsJson(const RegistrySnapshot &snapshot, std::ostream &os)
{
    os << "{\n  \"metrics\": [\n";
    for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
        const MetricSample &m = snapshot.metrics[i];
        os << "    {\"name\": \"" << jsonEscape(m.name) << "\", \"type\": \""
           << kindName(m.kind) << "\"";
        switch (m.kind) {
          case MetricSample::Kind::Counter:
            os << ", \"value\": " << m.count;
            break;
          case MetricSample::Kind::Gauge:
            os << ", \"value\": " << jsonNumber(m.sum);
            break;
          case MetricSample::Kind::Histogram: {
            os << ", \"count\": " << m.count
               << ", \"sum\": " << jsonNumber(m.sum) << ", \"edges\": [";
            for (std::size_t e = 0; e < m.edges.size(); ++e) {
                os << (e > 0 ? ", " : "") << jsonNumber(m.edges[e]);
            }
            os << "], \"buckets\": [";
            for (std::size_t b = 0; b < m.buckets.size(); ++b) {
                os << (b > 0 ? ", " : "") << m.buckets[b];
            }
            os << "], \"p50\": "
               << jsonNumber(histogramQuantile(m.edges, m.buckets, 0.50))
               << ", \"p95\": "
               << jsonNumber(histogramQuantile(m.edges, m.buckets, 0.95))
               << ", \"p99\": "
               << jsonNumber(histogramQuantile(m.edges, m.buckets, 0.99));
            break;
          }
          case MetricSample::Kind::Timer:
            os << ", \"count\": " << m.count
               << ", \"total_s\": " << jsonNumber(m.sum)
               << ", \"max_s\": " << jsonNumber(m.max);
            break;
        }
        os << "}" << (i + 1 < snapshot.metrics.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

void
writeMetricsTable(const RegistrySnapshot &snapshot, std::ostream &os)
{
    util::TablePrinter table({"metric", "type", "count", "value"});
    for (const MetricSample &m : snapshot.metrics) {
        std::string value;
        switch (m.kind) {
          case MetricSample::Kind::Counter:
            value = util::TablePrinter::fmt(
                static_cast<long long>(m.count));
            break;
          case MetricSample::Kind::Gauge:
            value = util::TablePrinter::fmt(m.sum, 6);
            break;
          case MetricSample::Kind::Histogram: {
            std::ostringstream buckets;
            const auto counts = m.buckets;
            for (std::size_t b = 0; b < counts.size(); ++b) {
                buckets << (b > 0 ? "/" : "") << counts[b];
            }
            buckets << " (p50 "
                    << util::TablePrinter::fmt(
                           histogramQuantile(m.edges, m.buckets, 0.50), 4)
                    << ", p95 "
                    << util::TablePrinter::fmt(
                           histogramQuantile(m.edges, m.buckets, 0.95), 4)
                    << ", p99 "
                    << util::TablePrinter::fmt(
                           histogramQuantile(m.edges, m.buckets, 0.99), 4)
                    << ")";
            value = buckets.str();
            break;
          }
          case MetricSample::Kind::Timer:
            value = util::TablePrinter::fmt(m.sum, 6) + " s (max " +
                    util::TablePrinter::fmt(m.max, 6) + " s)";
            break;
        }
        table.addRow({m.name, kindName(m.kind),
                      util::TablePrinter::fmt(
                          static_cast<long long>(m.count)),
                      value});
    }
    table.print(os);
}

void
writeChromeTrace(const std::vector<TraceEvent> &events,
                 std::uint64_t dropped, std::ostream &os)
{
    os << "{\"otherData\": {\"tool\": \"kodan::telemetry\", "
          "\"dropped_events\": "
       << dropped << "},\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        os << "  {\"name\": \"" << jsonEscape(e.name)
           << "\", \"cat\": \"kodan\", \"pid\": 1, \"tid\": " << e.tid
           << ", \"ts\": " << jsonNumber(e.start_us);
        if (e.dur_us < 0.0) {
            os << ", \"ph\": \"i\", \"s\": \"g\"";
        } else {
            os << ", \"ph\": \"X\", \"dur\": " << jsonNumber(e.dur_us);
        }
        os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
    }
    os << "]}\n";
}

} // namespace kodan::telemetry
