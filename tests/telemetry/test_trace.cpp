/**
 * @file
 * Tests for the scoped-span tracer, its ring buffers, the JSON/Chrome
 * exporters, and the util::log -> telemetry bridge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace kodan::telemetry {
namespace {

/** Enables recording for one test and restores a clean slate after. */
class TelemetryGuard
{
  public:
    TelemetryGuard()
        : was_enabled_(enabled())
    {
        resetAll();
        setEnabled(true);
    }

    ~TelemetryGuard()
    {
        setEnabled(was_enabled_);
        resetAll();
    }

  private:
    bool was_enabled_;
};

const TraceEvent *
findEvent(const std::vector<TraceEvent> &events, const std::string &name)
{
    const auto it =
        std::find_if(events.begin(), events.end(),
                     [&](const TraceEvent &e) { return e.name == name; });
    return it == events.end() ? nullptr : &*it;
}

TEST(Trace, NestedSpansAreContained)
{
    TelemetryGuard guard;
    {
        KODAN_TRACE_SCOPE("test.span.outer");
        {
            KODAN_TRACE_SCOPE("test.span.inner");
        }
    }
    const auto events = Tracer::instance().collect();
    const TraceEvent *outer = findEvent(events, "test.span.outer");
    const TraceEvent *inner = findEvent(events, "test.span.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_GE(outer->dur_us, 0.0);
    EXPECT_GE(inner->dur_us, 0.0);
    // The inner span starts and ends inside the outer one.
    EXPECT_GE(inner->start_us, outer->start_us);
    EXPECT_LE(inner->start_us + inner->dur_us,
              outer->start_us + outer->dur_us);
    EXPECT_EQ(inner->tid, outer->tid);
}

TEST(Trace, SpansAreSkippedWhileDisabled)
{
    TelemetryGuard guard;
    setEnabled(false);
    {
        KODAN_TRACE_SCOPE("test.span.dark");
    }
    setEnabled(true);
    const auto events = Tracer::instance().collect();
    EXPECT_EQ(findEvent(events, "test.span.dark"), nullptr);
}

TEST(Trace, CollectIsSortedByStartTime)
{
    TelemetryGuard guard;
    for (int i = 0; i < 5; ++i) {
        KODAN_TRACE_SCOPE("test.span.seq");
    }
    const auto events = Tracer::instance().collect();
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].start_us, events[i].start_us);
    }
}


TEST(Trace, RingOverwritesOldestAndCountsDrops)
{
    TraceRing ring(1, 4);
    for (int i = 0; i < 6; ++i) {
        ring.push({"e" + std::to_string(i), static_cast<double>(i), 1.0,
                   1});
    }
    const auto events = ring.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);
    // Oldest-first order, with the two oldest events overwritten.
    EXPECT_EQ(events.front().name, "e2");
    EXPECT_EQ(events.back().name, "e5");
    ring.clear();
    EXPECT_TRUE(ring.events().empty());
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(Trace, InstantEventsHaveNegativeDuration)
{
    TelemetryGuard guard;
    Tracer::instance().recordInstant("test.instant.mark");
    const auto events = Tracer::instance().collect();
    const TraceEvent *mark = findEvent(events, "test.instant.mark");
    ASSERT_NE(mark, nullptr);
    EXPECT_LT(mark->dur_us, 0.0);
}

TEST(Export, ChromeTraceContainsSpansAndInstants)
{
    std::vector<TraceEvent> events;
    events.push_back({"span.one", 10.0, 25.0, 1});
    events.push_back({"mark.one", 20.0, -1.0, 2});
    std::ostringstream os;
    writeChromeTrace(events, 3, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"span.one\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos);
}

TEST(Export, MetricsJsonRoundsTripNamesAndValues)
{
    TelemetryGuard guard;
    registry().counter("test.json.counter").add(11);
    registry().timer("test.json.timer").record(0.5);
    std::ostringstream os;
    writeMetricsJson(registry().snapshot(), os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"counter\""), std::string::npos);
    EXPECT_NE(json.find("11"), std::string::npos);
    EXPECT_NE(json.find("\"test.json.timer\""), std::string::npos);
}

TEST(Export, MetricsTableListsEveryMetric)
{
    TelemetryGuard guard;
    registry().counter("test.table.counter").add(5);
    registry().gauge("test.table.gauge").set(1.5);
    std::ostringstream os;
    writeMetricsTable(registry().snapshot(), os);
    const std::string text = os.str();
    EXPECT_NE(text.find("test.table.counter"), std::string::npos);
    EXPECT_NE(text.find("test.table.gauge"), std::string::npos);
}

TEST(Export, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
}

/** The format every exporter's doubles must reproduce byte for byte. */
std::string
printf17g(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

TEST(Export, NumberMatchesPrintf17g)
{
    using limits = std::numeric_limits<double>;
    const double two53 = 9007199254740992.0;
    const double specials[] = {
        0.0, -0.0, limits::infinity(), -limits::infinity(),
        limits::quiet_NaN(), -limits::quiet_NaN(), DBL_MIN, -DBL_MIN,
        DBL_TRUE_MIN, std::bit_cast<double>(0x000FFFFFFFFFFFFFULL),
        std::bit_cast<double>(0x0000000123456789ULL), DBL_MAX, -DBL_MAX,
        two53 - 1.0, two53, two53 + 1.0, two53 + 2.0, 0.1, -0.1, 1.0 / 3.0,
        1e300, 1e-300, -1e300, 1e16, 1e17, 1e-5, 1e-4, 123456.789};
    for (const double v : specials) {
        EXPECT_EQ(jsonNumber(v), printf17g(v))
            << "bits " << std::hex << std::bit_cast<std::uint64_t>(v);
    }
    std::mt19937_64 rng(0x5EED17ULL);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t bits = rng();
        const double v = std::bit_cast<double>(bits);
        ASSERT_EQ(jsonNumber(v), printf17g(v))
            << "bits " << std::hex << bits;
    }
    std::string appended = "x=";
    appendNumber(appended, 0.5);
    EXPECT_EQ(appended, "x=0.5");
}


TEST(LogBridge, WarningsFeedCounterAndEventStream)
{
    TelemetryGuard guard;
    const util::LogLevel previous = util::logLevel();
    util::setLogLevel(util::LogLevel::Warn);
    // Silence stderr for the duration; the tap still observes.
    util::setLogSink([](util::LogLevel, const std::string &) {});

    util::logMessage(util::LogLevel::Warn, "bridge check");
    util::logMessage(util::LogLevel::Error, "bridge error");
    util::logMessage(util::LogLevel::Info, "filtered out");

    util::setLogSink(nullptr);
    util::setLogLevel(previous);

    const RegistrySnapshot snap = registry().snapshot();
    const MetricSample *warns = snap.find("util.log.warnings.emitted");
    const MetricSample *errors = snap.find("util.log.errors.emitted");
    ASSERT_NE(warns, nullptr);
    ASSERT_NE(errors, nullptr);
    EXPECT_EQ(warns->count, 1);
    EXPECT_EQ(errors->count, 1);

    const auto events = Tracer::instance().collect();
    EXPECT_NE(findEvent(events, "log: bridge check"), nullptr);
    EXPECT_NE(findEvent(events, "log: bridge error"), nullptr);
    EXPECT_EQ(findEvent(events, "log: filtered out"), nullptr);
}


} // namespace
} // namespace kodan::telemetry
