/**
 * CPU profiling plane suite: the perf_event -> rusage fallback under
 * forced open failures (ENOSYS, EACCES) still yields well-formed span
 * tables marked `source: "rusage"`; span counters accumulate exactly
 * across threads; one KODAN_TRACE_SCOPE record feeds the timer row, the
 * Chrome trace and the profile's span row alike; the sampling profiler
 * produces parseable folded stacks; and the profile diff ranks a
 * pessimized kernel first and gates on call-count/cost drift.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace kodan::telemetry::prof {
namespace {

namespace report = kodan::telemetry::report;

/** Clears the recording planes, the profiler, and the test hook on
 *  exit (resetAll zeroes the span records and drops the samples). */
class ProfGuard
{
  public:
    ProfGuard()
    {
        setEnabled(false);
        setCountersEnabled(false);
        setPerfForceErrnoForTest(0);
        resetAll();
    }

    ~ProfGuard()
    {
        stopSampler();
        setEnabled(false);
        setCountersEnabled(false);
        setPerfForceErrnoForTest(0);
        resetAll();
    }
};

/** Burn CPU long enough for the thread clock to advance (the volatile
 *  accumulator keeps a caller that drops the result from eliding it). */
double
burn()
{
    volatile double x = 0.0;
    for (int k = 0; k < 400000; ++k) {
        x = x + static_cast<double>(k % 17) * 0.5;
    }
    return x;
}

constexpr int kThreads = 4;
constexpr int kScopesPerThread = 64;

/** Run @p body kScopesPerThread times on each of kThreads threads. */
template <typename Body>
void
onThreads(Body body)
{
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&body] {
            for (int i = 0; i < kScopesPerThread; ++i) {
                body();
            }
        });
    }
    for (std::thread &worker : workers) {
        worker.join();
    }
}

/** The profile view: the span table of the exported profile JSON. */
report::ProfileDoc
profileView()
{
    std::ostringstream os;
    writeProfileJson(snapshotProfile(), os);
    report::ProfileDoc doc;
    std::string error;
    EXPECT_TRUE(report::parseProfile(os.str(), doc, &error)) << error;
    return doc;
}

TEST(ProfCounters, ForcedOpenFailureFallsBackToRusage)
{
    ProfGuard guard;
    for (int err : {ENOSYS, EACCES}) {
        SCOPED_TRACE("forced errno " + std::to_string(err));
        resetAll();
        setPerfForceErrnoForTest(err);
        setCountersEnabled(true);
        double sink = 0.0;
        // A fresh thread has not opened its counters yet, so it takes
        // the forced-failure path instead of inheriting a verdict.
        std::thread worker([&sink] {
            for (int i = 0; i < 8; ++i) {
                KODAN_TRACE_SCOPE("test.prof.fallback");
                sink += burn();
            }
        });
        worker.join();
        setCountersEnabled(false);
        EXPECT_NE(sink, 0.0);

        EXPECT_EQ(perfOpenErrno(), err);
        EXPECT_EQ(counterSource(), CounterSource::Rusage);
        const report::ProfileDoc doc = profileView();
        EXPECT_EQ(doc.span_source, "rusage");
        const report::ProfileSpanRow *row =
            doc.findSpan("test.prof.fallback");
        ASSERT_NE(row, nullptr);
        EXPECT_EQ(row->calls, 8u);
        EXPECT_GT(row->task_clock_ns, 0u);
        // The software fallback reads no hardware counters.
        EXPECT_EQ(row->cycles, 0u);
        EXPECT_EQ(row->instructions, 0u);
        setPerfForceErrnoForTest(0);
    }
}

TEST(ProfCounters, SpanCallsAccumulateExactlyAcrossThreads)
{
    ProfGuard guard;
    setCountersEnabled(true);
    onThreads([] {
        KODAN_TRACE_SCOPE("test.prof.parallel");
        burn();
    });
    setCountersEnabled(false);
    const report::ProfileDoc doc = profileView();
    const report::ProfileSpanRow *row = doc.findSpan("test.prof.parallel");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls,
              static_cast<std::uint64_t>(kThreads * kScopesPerThread));
    EXPECT_GT(row->task_clock_ns, 0u);
    // Profiling alone records no trace event.
    for (const TraceEvent &event : Tracer::instance().collect()) {
        EXPECT_NE(event.name, "test.prof.parallel");
    }
}

TEST(SpanRecord, OneRecordFeedsTimerTraceAndProfileViews)
{
    ProfGuard guard;
    setEnabled(true);
    setCountersEnabled(true);
    onThreads([] {
        KODAN_TRACE_SCOPE("test.span.views");
        burn();
    });
    setCountersEnabled(false);
    setEnabled(false);

    // Each view is read back from its exported document.
    std::ostringstream metrics_json;
    writeMetricsJson(registry().snapshot(), metrics_json);
    report::Snapshot metrics;
    std::string error;
    ASSERT_TRUE(report::parseSnapshot(metrics_json.str(), metrics, &error))
        << error;
    const report::MetricReading *timer = metrics.find("test.span.views");
    ASSERT_NE(timer, nullptr);
    EXPECT_EQ(timer->type, "timer");
    constexpr int kCalls = kThreads * kScopesPerThread;
    EXPECT_EQ(timer->count, kCalls);

    const report::ProfileDoc profile = profileView();
    const report::ProfileSpanRow *row = profile.findSpan("test.span.views");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, static_cast<std::uint64_t>(kCalls));
    EXPECT_GT(row->task_clock_ns, 0u);

    std::ostringstream trace_json;
    Tracer &tracer = Tracer::instance();
    writeChromeTrace(tracer.collect(), tracer.droppedEvents(), trace_json);
    util::json::Value trace;
    ASSERT_TRUE(util::json::parse(trace_json.str(), trace, &error)) << error;
    const util::json::Value *events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    int trace_events = 0;
    double trace_dur_s = 0.0;
    for (const util::json::Value &event : events->array()) {
        if (event.stringOr("name", "") == "test.span.views") {
            ++trace_events;
            trace_dur_s += event.numberOr("dur", -1.0) * 1e-6;
        }
    }
    EXPECT_EQ(trace_events, kCalls);
    // One pair of clock reads per scope feeds both the timer and the
    // trace event, so their totals agree to rounding.
    EXPECT_GT(timer->sum, 0.0);
    EXPECT_NEAR(timer->sum, trace_dur_s, 1e-9 * timer->sum);
}

TEST(SpanRecord, ExplicitTimersAreNotSpanRows)
{
    ProfGuard guard;
    setEnabled(true);
    registry().timer("test.bench.time.explicit").record(0.25);
    {
        KODAN_TRACE_SCOPE("test.span.listed");
    }
    setEnabled(false);
    const report::ProfileDoc doc = profileView();
    EXPECT_EQ(doc.findSpan("test.bench.time.explicit"), nullptr);
    const report::ProfileSpanRow *row = doc.findSpan("test.span.listed");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, 1u);
}

TEST(ProfSampler, SmokeProducesParseableFoldedStacks)
{
    if (!samplerSupported()) {
        GTEST_SKIP() << "sampler unsupported on this platform/build";
    }
    ProfGuard guard;
    SamplerOptions options;
    options.hz = 997;
    ASSERT_TRUE(startSampler(options));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
    double sink = 0.0;
    while (std::chrono::steady_clock::now() < deadline) {
        sink += burn();
    }
    stopSampler();
    EXPECT_NE(sink, 0.0);

    const ProfileSnapshot snapshot = snapshotProfile();
    EXPECT_GT(snapshot.samples, 10u);
    ASSERT_FALSE(snapshot.stacks.empty());
    ASSERT_FALSE(snapshot.frames.empty());
    EXPECT_EQ(snapshot.period_us, 1000000 / 997);

    // Folded format: `frame;frame;leaf count` per line, count numeric —
    // what flamegraph.pl and speedscope ingest.
    std::ostringstream os;
    writeFolded(snapshot, os);
    std::istringstream lines(os.str());
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_LT(space + 1, line.size()) << line;
        for (std::size_t i = space + 1; i < line.size(); ++i) {
            EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i])))
                << line;
        }
        // Frame names never embed ';' (the exporter rewrites them), so
        // the stack splits unambiguously.
        EXPECT_EQ(line.substr(0, space).find(";;"), std::string::npos);
        ++parsed;
    }
    EXPECT_EQ(parsed, snapshot.stacks.size());
}

/** Minimal span row for the synthetic diff tests. */
report::ProfileSpanRow
spanRow(const std::string &name, std::uint64_t calls,
        std::uint64_t task_clock_ns)
{
    report::ProfileSpanRow row;
    row.name = name;
    row.calls = calls;
    row.task_clock_ns = task_clock_ns;
    return row;
}

report::ProfileDoc
syntheticProfile(std::uint64_t gemm_ns)
{
    report::ProfileDoc doc;
    doc.period_us = 1003;
    doc.samples = 100;
    doc.threads = 1;
    doc.span_source = "rusage";
    doc.spans.push_back(spanRow("ml.kernels.gemm", 60, gemm_ns));
    doc.spans.push_back(
        spanRow("runtime.frame.process", 384, 150000000));
    return doc;
}

TEST(ProfDiff, RanksPessimizedKernelFirstAndFlagsIt)
{
    const report::ProfileDoc base = syntheticProfile(140000000);
    const report::ProfileDoc cur = syntheticProfile(290000000);
    const report::ProfileDiffResult diff =
        report::diffProfiles(base, cur, report::ProfileTolerances{});
    ASSERT_FALSE(diff.spans.empty());
    EXPECT_EQ(diff.spans.front().name, "ml.kernels.gemm");
    EXPECT_FALSE(diff.spans_use_cycles); // rusage runs rank by task-clock
    ASSERT_TRUE(diff.findings.hasRegression());
    EXPECT_EQ(diff.findings.findings.front().subject, "ml.kernels.gemm");
}

TEST(ProfDiff, ExactCallCountsGateDeterminism)
{
    const report::ProfileDoc base = syntheticProfile(140000000);
    report::ProfileDoc cur = syntheticProfile(140000000);
    cur.spans[0].calls = 61; // one extra kernel invocation
    const report::ProfileDiffResult diff =
        report::diffProfiles(base, cur, report::ProfileTolerances{});
    ASSERT_TRUE(diff.findings.hasRegression());
    EXPECT_NE(diff.findings.findings.front().message.find("calls"),
              std::string::npos);
}

TEST(ProfDiff, MissingSpanRowIsARegressionNewRowIsNot)
{
    const report::ProfileDoc base = syntheticProfile(140000000);
    report::ProfileDoc cur = syntheticProfile(140000000);
    cur.spans.erase(cur.spans.begin()); // ml.kernels.gemm vanished
    cur.spans.push_back(spanRow("ml.kernels.gemv", 10, 1000000));
    std::sort(cur.spans.begin(), cur.spans.end(),
              [](const report::ProfileSpanRow &a,
                 const report::ProfileSpanRow &b) {
                  return a.name < b.name;
              });
    const report::ProfileDiffResult diff =
        report::diffProfiles(base, cur, report::ProfileTolerances{});
    EXPECT_EQ(diff.findings.regressionCount(), 1u);
    bool saw_missing = false;
    bool saw_new_info = false;
    for (const report::Finding &finding : diff.findings.findings) {
        if (finding.subject == "ml.kernels.gemm" &&
            finding.severity == report::Severity::Regression) {
            saw_missing = true;
        }
        if (finding.subject == "ml.kernels.gemv" &&
            finding.severity == report::Severity::Info) {
            saw_new_info = true;
        }
    }
    EXPECT_TRUE(saw_missing);
    EXPECT_TRUE(saw_new_info);
}

TEST(ProfDiff, WideCostToleranceAbsorbsMachineDrift)
{
    const report::ProfileDoc base = syntheticProfile(140000000);
    const report::ProfileDoc cur = syntheticProfile(290000000);
    report::ProfileTolerances tol;
    tol.cost_rel = 100.0; // the cross-machine baseline setting
    const report::ProfileDiffResult diff =
        report::diffProfiles(base, cur, tol);
    EXPECT_FALSE(diff.findings.hasRegression());
    // Ranking still surfaces the slowdown even when tolerated.
    ASSERT_FALSE(diff.spans.empty());
    EXPECT_EQ(diff.spans.front().name, "ml.kernels.gemm");
}

} // namespace
} // namespace kodan::telemetry::prof
