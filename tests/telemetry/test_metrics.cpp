/**
 * @file
 * Unit tests for the metrics registry: primitive semantics, histogram
 * bucket-edge behavior, and the determinism contract — every
 * integer-valued reading must be invariant to thread count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

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
        util::setGlobalThreads(0);
    }

  private:
    bool was_enabled_;
};

TEST(Metrics, CounterAccumulatesAndResets)
{
    TelemetryGuard guard;
    Counter counter;
    counter.add(3);
    counter.add(4);
    EXPECT_EQ(counter.value(), 7);
    counter.reset();
    EXPECT_EQ(counter.value(), 0);
}

TEST(Metrics, GaugeSetAndAdd)
{
    TelemetryGuard guard;
    Gauge gauge;
    gauge.set(2.5);
    EXPECT_EQ(gauge.value(), 2.5);
    gauge.add(1.25);
    EXPECT_EQ(gauge.value(), 3.75);
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0.0);
}

TEST(Metrics, HistogramBucketEdgeSemantics)
{
    TelemetryGuard guard;
    // Bucket i counts edges[i-1] <= v < edges[i]; last is overflow.
    Histogram hist({1.0, 2.0, 4.0});
    hist.record(0.5);  // bucket 0: v < 1
    hist.record(1.0);  // bucket 1: a value AT an edge lands above it
    hist.record(1.99); // bucket 1
    hist.record(2.0);  // bucket 2
    hist.record(4.0);  // bucket 3 (overflow)
    hist.record(100.0); // bucket 3
    const auto buckets = hist.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 1);
    EXPECT_EQ(buckets[1], 2);
    EXPECT_EQ(buckets[2], 1);
    EXPECT_EQ(buckets[3], 2);
    EXPECT_EQ(hist.count(), 6);
    EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.99 + 2.0 + 4.0 + 100.0);
}

TEST(Metrics, TimerTracksCountTotalAndMax)
{
    TelemetryGuard guard;
    Timer timer;
    timer.record(0.25);
    timer.record(1.5);
    timer.record(0.5);
    EXPECT_EQ(timer.count(), 3);
    EXPECT_DOUBLE_EQ(timer.totalSeconds(), 2.25);
    EXPECT_DOUBLE_EQ(timer.maxSeconds(), 1.5);
}

TEST(Metrics, RegistrationIsIdempotentByName)
{
    TelemetryGuard guard;
    Counter &a = registry().counter("test.registry.counter");
    Counter &b = registry().counter("test.registry.counter");
    EXPECT_EQ(&a, &b);
    Histogram &h1 =
        registry().histogram("test.registry.hist", {1.0, 2.0});
    // Edges of a later registration are ignored; same object comes back.
    Histogram &h2 =
        registry().histogram("test.registry.hist", {9.0});
    EXPECT_EQ(&h1, &h2);
    ASSERT_EQ(h2.edges().size(), 2u);
}

TEST(Metrics, SnapshotIsSortedAndFindable)
{
    TelemetryGuard guard;
    registry().counter("test.snap.zebra").add(1);
    registry().counter("test.snap.alpha").add(2);
    registry().gauge("test.snap.gauge").set(7.0);
    const RegistrySnapshot snap = registry().snapshot();
    for (std::size_t i = 1; i < snap.metrics.size(); ++i) {
        EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);
    }
    const MetricSample *alpha = snap.find("test.snap.alpha");
    ASSERT_NE(alpha, nullptr);
    EXPECT_EQ(alpha->kind, MetricSample::Kind::Counter);
    EXPECT_EQ(alpha->count, 2);
    const MetricSample *gauge = snap.find("test.snap.gauge");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->sum, 7.0);
    EXPECT_EQ(snap.find("test.snap.missing"), nullptr);
}

TEST(Metrics, MacrosAreInertWhileDisabled)
{
    TelemetryGuard guard;
    setEnabled(false);
    KODAN_COUNT("test.macro.disabled");
    {
        // Telemetry and the profiling plane are both off: the span
        // stays disarmed.
        KODAN_TRACE_SCOPE("test.macro.disabled_span");
    }
    setEnabled(true);
    const RegistrySnapshot snap = registry().snapshot();
    // The disabled macros never even register their metrics.
    EXPECT_EQ(snap.find("test.macro.disabled"), nullptr);
    EXPECT_EQ(snap.find("test.macro.disabled_span"), nullptr);
}

TEST(Metrics, MacrosRecordWhileEnabled)
{
    TelemetryGuard guard;
    KODAN_COUNT("test.macro.count");
    KODAN_COUNT_ADD("test.macro.count", 4);
    KODAN_GAUGE_ADD("test.macro.gauge", 2.5);
    KODAN_HISTOGRAM("test.macro.hist", 1.5, 1.0, 2.0);
    {
        KODAN_TRACE_SCOPE("test.macro.span");
    }
    const RegistrySnapshot snap = registry().snapshot();
    EXPECT_EQ(snap.find("test.macro.count")->count, 5);
    EXPECT_EQ(snap.find("test.macro.gauge")->sum, 2.5);
    EXPECT_EQ(snap.find("test.macro.hist")->buckets[1], 1);
    const MetricSample *span = snap.find("test.macro.span");
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->kind, MetricSample::Kind::Timer);
    EXPECT_TRUE(span->span);
    EXPECT_EQ(span->count, 1);
    EXPECT_GE(span->sum, 0.0);
    EXPECT_EQ(span->max, span->sum);
    // The profiling plane is off, so the span read no thread counters.
    EXPECT_EQ(span->counters.task_clock_ns, 0u);
}

/**
 * The determinism contract: integer readings (counter values, histogram
 * bucket counts, timer call counts) must merge to exactly the same
 * totals no matter how many threads recorded them.
 */
TEST(Metrics, IntegerReadingsAreThreadCountInvariant)
{
    TelemetryGuard guard;
    constexpr int kItems = 5000;
    std::int64_t baseline_count = 0;
    std::vector<std::int64_t> baseline_buckets;
    std::int64_t baseline_timer_calls = 0;

    for (int threads : {1, 8}) {
        util::setGlobalThreads(threads);
        registry().reset();
        util::parallelFor(kItems, [](std::size_t i) {
            KODAN_COUNT_ADD("test.det.items", 2);
            KODAN_HISTOGRAM("test.det.sizes",
                            static_cast<double>(i % 10), 2.0, 5.0, 8.0);
            KODAN_TRACE_SCOPE("test.det.step");
        });
        const RegistrySnapshot snap = registry().snapshot();
        const MetricSample *items = snap.find("test.det.items");
        const MetricSample *sizes = snap.find("test.det.sizes");
        const MetricSample *step = snap.find("test.det.step");
        ASSERT_NE(items, nullptr);
        ASSERT_NE(sizes, nullptr);
        ASSERT_NE(step, nullptr);
        if (threads == 1) {
            baseline_count = items->count;
            baseline_buckets = sizes->buckets;
            baseline_timer_calls = step->count;
            EXPECT_EQ(baseline_count, 2 * kItems);
            continue;
        }
        SCOPED_TRACE(std::to_string(threads) + " threads");
        EXPECT_EQ(items->count, baseline_count);
        EXPECT_EQ(sizes->buckets, baseline_buckets);
        EXPECT_EQ(sizes->count, kItems);
        EXPECT_EQ(step->count, baseline_timer_calls);
    }
}


TEST(Metrics, ResetZeroesValuesButKeepsRegistrations)
{
    TelemetryGuard guard;
    Counter &counter = registry().counter("test.reset.counter");
    counter.add(41);
    registry().reset();
    const RegistrySnapshot snap = registry().snapshot();
    const MetricSample *sample = snap.find("test.reset.counter");
    ASSERT_NE(sample, nullptr);
    EXPECT_EQ(sample->count, 0);
    // The old reference is still the live metric.
    counter.add(1);
    EXPECT_EQ(registry().counter("test.reset.counter").value(), 1);
}

/* ------------------------------------------------------------------ */
/* histogramQuantile edge cases                                        */
/* ------------------------------------------------------------------ */

TEST(HistogramQuantile, EmptyInputsReturnZero)
{
    EXPECT_EQ(histogramQuantile({}, {}, 0.5), 0.0);
    // Edges without any counted observations.
    EXPECT_EQ(histogramQuantile({1.0, 2.0}, {0, 0, 0}, 0.5), 0.0);
    // Counts without edges.
    EXPECT_EQ(histogramQuantile({}, {5}, 0.5), 0.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesWithinEdge)
{
    // All 10 observations in [0, 4): p50 interpolates to the middle,
    // p0 to the lower bound, p100 to the upper edge.
    const std::vector<double> edges = {4.0};
    const std::vector<std::int64_t> buckets = {10, 0};
    EXPECT_DOUBLE_EQ(histogramQuantile(edges, buckets, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(edges, buckets, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(edges, buckets, 1.0), 4.0);
}

TEST(HistogramQuantile, OverflowBucketClampsToLastEdge)
{
    // Every observation beyond the last edge: no upper bound is known,
    // so the estimate clamps to the last edge rather than extrapolate.
    const std::vector<double> edges = {1.0, 2.0};
    const std::vector<std::int64_t> buckets = {0, 0, 7};
    EXPECT_DOUBLE_EQ(histogramQuantile(edges, buckets, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(edges, buckets, 0.99), 2.0);
}

TEST(HistogramQuantile, OutOfRangeQuantilesClampToValidRange)
{
    const std::vector<double> edges = {10.0};
    const std::vector<std::int64_t> buckets = {4, 0};
    EXPECT_DOUBLE_EQ(histogramQuantile(edges, buckets, -0.5),
                     histogramQuantile(edges, buckets, 0.0));
    EXPECT_DOUBLE_EQ(histogramQuantile(edges, buckets, 2.0),
                     histogramQuantile(edges, buckets, 1.0));
}

TEST(HistogramQuantile, MonotoneInProbability)
{
    const std::vector<double> edges = {1.0, 2.0, 4.0, 8.0};
    const std::vector<std::int64_t> buckets = {5, 3, 9, 2, 1};
    double previous = histogramQuantile(edges, buckets, 0.0);
    for (int step = 1; step <= 100; ++step) {
        const double q = static_cast<double>(step) / 100.0;
        const double value = histogramQuantile(edges, buckets, q);
        EXPECT_GE(value, previous) << "q=" << q;
        previous = value;
    }
}

} // namespace
} // namespace kodan::telemetry
