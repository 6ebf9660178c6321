/**
 * @file
 * kodan-report engine suite: snapshot/journal parsing, tolerance-driven
 * diffing (identical runs pass, a 2x timer regression and a flipped
 * elision verdict fail and are named in the markdown).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "telemetry/report.hpp"

namespace kodan::telemetry::report {
namespace {

const char *kBaseSnapshot = R"({
  "metrics": [
    {"name": "runtime.frames.processed", "type": "counter", "value": 120},
    {"name": "runtime.frame.process", "type": "timer", "count": 120,
     "total_s": 0.064, "max_s": 0.001},
    {"name": "ground.downlink.bits_queued", "type": "gauge",
     "value": 123456.0},
    {"name": "runtime.frame.compute_time_s", "type": "histogram",
     "count": 120, "sum": 2209.34, "edges": [1.0, 10.0],
     "buckets": [0, 60, 60], "p50": 10.0, "p95": 10.0, "p99": 10.0}
  ]
})";

Snapshot
snapshotFromText(const std::string &text)
{
    Snapshot snapshot;
    std::string error;
    EXPECT_TRUE(parseSnapshot(text, snapshot, &error)) << error;
    return snapshot;
}

const char *kBaseJournal =
    "{\"kodan_journal\": 1, \"events\": 2, \"dropped\": 0}\n"
    "{\"seq\": 0, \"region\": 1, \"slot\": 0, \"ord\": 0, "
    "\"type\": \"runtime.batch.begin\", \"fields\": {}}\n"
    "{\"seq\": 1, \"region\": 1, \"slot\": 1, \"ord\": 0, "
    "\"type\": \"runtime.frame.elision\", \"fields\": "
    "{\"verdict\": \"partial\", \"tiles_elided\": 66}}\n";

JournalDoc
journalFromText(const std::string &text)
{
    JournalDoc doc;
    std::string error;
    EXPECT_TRUE(parseJournal(text, doc, &error)) << error;
    return doc;
}

TEST(Report, ParsesSnapshotReadings)
{
    const Snapshot snapshot = snapshotFromText(kBaseSnapshot);
    ASSERT_EQ(snapshot.metrics.size(), 4u);
    const MetricReading *counter =
        snapshot.find("runtime.frames.processed");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->type, "counter");
    EXPECT_EQ(counter->count, 120);
    const MetricReading *timer = snapshot.find("runtime.frame.process");
    ASSERT_NE(timer, nullptr);
    EXPECT_EQ(timer->sum, 0.064);
    EXPECT_EQ(timer->max, 0.001);
    EXPECT_EQ(snapshot.find("no.such.metric"), nullptr);
}

TEST(Report, IdenticalSnapshotsProduceNoFindings)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    const DiffResult diff = diffSnapshots(base, base, Tolerances{});
    EXPECT_FALSE(diff.hasRegression());
    EXPECT_TRUE(diff.findings.empty());
}

TEST(Report, DoubledTimerIsARegressionNamingTheMetric)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    Snapshot slow = base;
    for (MetricReading &m : slow.metrics) {
        if (m.type == "timer") {
            m.sum *= 2.0;
        }
    }
    const DiffResult diff = diffSnapshots(base, slow, Tolerances{});
    ASSERT_TRUE(diff.hasRegression());
    ASSERT_EQ(diff.regressionCount(), 1u);
    EXPECT_EQ(diff.findings[0].subject, "runtime.frame.process");
    EXPECT_NE(diff.findings[0].message.find("slowed"), std::string::npos);
}

TEST(Report, TimerWithinToleranceOrBelowFloorPasses)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    Snapshot slightly_slow = base;
    for (MetricReading &m : slightly_slow.metrics) {
        if (m.type == "timer") {
            m.sum *= 1.4; // default tolerance is +50%
        }
    }
    EXPECT_FALSE(
        diffSnapshots(base, slightly_slow, Tolerances{}).hasRegression());

    // Sub-floor timers never regress, even at 10x.
    Tolerances floor_tol;
    floor_tol.timer_floor_s = 1.0;
    Snapshot ten_x = base;
    for (MetricReading &m : ten_x.metrics) {
        if (m.type == "timer") {
            m.sum *= 10.0;
        }
    }
    EXPECT_FALSE(diffSnapshots(base, ten_x, floor_tol).hasRegression());
}

TEST(Report, CounterDriftIsARegressionUnlessTolerated)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    Snapshot drifted = base;
    for (MetricReading &m : drifted.metrics) {
        if (m.name == "runtime.frames.processed") {
            m.count += 1;
        }
    }
    // Default value tolerance is exact.
    EXPECT_TRUE(diffSnapshots(base, drifted, Tolerances{}).hasRegression());

    Tolerances loose;
    loose.overrides.emplace_back("runtime.frames.processed", 0.1);
    EXPECT_FALSE(diffSnapshots(base, drifted, loose).hasRegression());

    Tolerances ignoring;
    ignoring.ignore_prefixes.push_back("runtime.");
    EXPECT_FALSE(
        diffSnapshots(base, drifted, ignoring).hasRegression());
}

TEST(Report, MissingMetricIsARegressionNewMetricIsInfo)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    Snapshot cur = base;
    cur.metrics.erase(cur.metrics.begin()); // drop (sorted) first metric
    const DiffResult diff = diffSnapshots(base, cur, Tolerances{});
    ASSERT_EQ(diff.regressionCount(), 1u);
    EXPECT_NE(diff.findings[0].message.find("missing"),
              std::string::npos);

    const DiffResult reverse = diffSnapshots(cur, base, Tolerances{});
    EXPECT_FALSE(reverse.hasRegression());
    ASSERT_EQ(reverse.findings.size(), 1u);
    EXPECT_NE(reverse.findings[0].message.find("new metric"),
              std::string::npos);
}

TEST(Report, FlippedElisionVerdictFailsTheJournalDiff)
{
    const JournalDoc base = journalFromText(kBaseJournal);
    EXPECT_EQ(base.declared_events, 2u);
    ASSERT_EQ(base.events.size(), 2u);

    std::string flipped_text = kBaseJournal;
    const std::size_t at = flipped_text.find("partial");
    ASSERT_NE(at, std::string::npos);
    flipped_text.replace(at, 7, "full");
    const JournalDoc flipped = journalFromText(flipped_text);

    EXPECT_FALSE(diffJournals(base, base).hasRegression());
    const DiffResult diff = diffJournals(base, flipped);
    ASSERT_TRUE(diff.hasRegression());
    // The finding names the offending event and shows both verdicts.
    EXPECT_NE(diff.findings[0].subject.find("runtime.frame.elision"),
              std::string::npos);
    EXPECT_NE(diff.findings[0].message.find("partial"),
              std::string::npos);
    EXPECT_NE(diff.findings[0].message.find("full"), std::string::npos);
}

TEST(Report, JournalEventCountMismatchIsARegression)
{
    const JournalDoc base = journalFromText(kBaseJournal);
    JournalDoc truncated = base;
    truncated.events.pop_back();
    const DiffResult diff = diffJournals(base, truncated);
    ASSERT_TRUE(diff.hasRegression());
    EXPECT_NE(diff.findings[0].message.find("event count"),
              std::string::npos);
}

TEST(Report, MarkdownNamesVerdictAndOffenders)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    Snapshot slow = base;
    for (MetricReading &m : slow.metrics) {
        if (m.type == "timer") {
            m.sum *= 2.0;
        }
    }
    std::ostringstream regressed;
    writeMarkdown(diffSnapshots(base, slow, Tolerances{}), "a", "b",
                  regressed);
    EXPECT_NE(regressed.str().find("REGRESSION"), std::string::npos);
    EXPECT_NE(regressed.str().find("runtime.frame.process"),
              std::string::npos);

    std::ostringstream clean;
    writeMarkdown(diffSnapshots(base, base, Tolerances{}), "a", "b",
                  clean);
    EXPECT_NE(clean.str().find("Verdict: OK"), std::string::npos);
}

TEST(Report, MalformedInputsReportErrors)
{
    Snapshot snapshot;
    std::string error;
    EXPECT_FALSE(parseSnapshot("{}", snapshot, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseSnapshot("not json", snapshot, &error));

    JournalDoc doc;
    EXPECT_FALSE(parseJournal("", doc, &error));
    EXPECT_FALSE(parseJournal("{\"not_a_header\": 1}\n", doc, &error));

    EXPECT_FALSE(loadSnapshot("/no/such/file.json", snapshot, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace kodan::telemetry::report
