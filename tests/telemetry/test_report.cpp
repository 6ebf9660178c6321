/**
 * @file
 * kodan-report engine suite: the one reader (typing by marker), and
 * tolerance-driven diffing of snapshots, journals, alert streams and
 * time series (identical runs pass, a 2x timer regression and a
 * flipped elision verdict fail and are named in the markdown).
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
    EXPECT_TRUE(parse(text, snapshot, &error)) << error;
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
    EXPECT_TRUE(parse(text, doc, &error)) << error;
    return doc;
}

TEST(Report, ParsesSnapshotReadings)
{
    const Snapshot snapshot = snapshotFromText(kBaseSnapshot);
    ASSERT_EQ(snapshot.metrics.size(), 4u);
    const MetricReading *counter =
        findRecord(snapshot.metrics, "runtime.frames.processed");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->type, "counter");
    EXPECT_EQ(counter->count, 120);
    const MetricReading *timer =
        findRecord(snapshot.metrics, "runtime.frame.process");
    ASSERT_NE(timer, nullptr);
    EXPECT_EQ(timer->sum, 0.064);
    EXPECT_EQ(timer->max, 0.001);
    EXPECT_EQ(findRecord(snapshot.metrics, "no.such.metric"), nullptr);
}

TEST(Report, IdenticalSnapshotsProduceNoFindings)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    const DiffResult diff = report::diff(base, base, Tolerances{});
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
    const DiffResult diff = report::diff(base, slow, Tolerances{});
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
        report::diff(base, slightly_slow, Tolerances{}).hasRegression());

    // Sub-floor timers never regress, even at 10x.
    Tolerances floor_tol;
    floor_tol.timer_floor_s = 1.0;
    Snapshot ten_x = base;
    for (MetricReading &m : ten_x.metrics) {
        if (m.type == "timer") {
            m.sum *= 10.0;
        }
    }
    EXPECT_FALSE(report::diff(base, ten_x, floor_tol).hasRegression());
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
    EXPECT_TRUE(report::diff(base, drifted, Tolerances{}).hasRegression());

    Tolerances loose;
    loose.overrides.emplace_back("runtime.frames.processed", 0.1);
    EXPECT_FALSE(report::diff(base, drifted, loose).hasRegression());

    Tolerances ignoring;
    ignoring.ignore_prefixes.push_back("runtime.");
    EXPECT_FALSE(
        report::diff(base, drifted, ignoring).hasRegression());
}

TEST(Report, MissingMetricIsARegressionNewMetricIsInfo)
{
    const Snapshot base = snapshotFromText(kBaseSnapshot);
    Snapshot cur = base;
    cur.metrics.erase(cur.metrics.begin()); // drop (sorted) first metric
    const DiffResult diff = report::diff(base, cur, Tolerances{});
    ASSERT_EQ(diff.regressionCount(), 1u);
    EXPECT_NE(diff.findings[0].message.find("missing"),
              std::string::npos);

    const DiffResult reverse = report::diff(cur, base, Tolerances{});
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

    EXPECT_FALSE(report::diff(base, base, Tolerances{}).hasRegression());
    const DiffResult diff = report::diff(base, flipped, Tolerances{});
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
    const DiffResult diff = report::diff(base, truncated, Tolerances{});
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
    writeMarkdown(report::diff(base, slow, Tolerances{}), "a", "b",
                  regressed);
    EXPECT_NE(regressed.str().find("REGRESSION"), std::string::npos);
    EXPECT_NE(regressed.str().find("runtime.frame.process"),
              std::string::npos);

    std::ostringstream clean;
    writeMarkdown(report::diff(base, base, Tolerances{}), "a", "b",
                  clean);
    EXPECT_NE(clean.str().find("Verdict: OK"), std::string::npos);
}

const char *kBaseAlerts =
    "{\"kodan_alerts\":1,\"alerts\":2,\"firing\":2}\n"
    "{\"id\":1,\"rule\":\"storage.drop\",\"signal\":\"storage.dropped_bits\","
    "\"kind\":\"satellite\",\"entity\":3,\"state\":\"firing\","
    "\"first_bin\":71,\"last_bin\":95,\"first_t_s\":127800,"
    "\"last_t_s\":171000,\"peak\":14960000000,\"last\":14960000000,"
    "\"journal\":null,\"evidence\":[{\"bin\":71,\"value\":6880000000}]}\n"
    "{\"id\":2,\"rule\":\"downlink.absence\",\"signal\":\"downlink.bits\","
    "\"kind\":\"satellite\",\"entity\":3,\"state\":\"firing\","
    "\"first_bin\":71,\"last_bin\":95,\"first_t_s\":127800,"
    "\"last_t_s\":171000,\"peak\":81,\"last\":81,\"journal\":null,"
    "\"evidence\":[{\"bin\":71,\"value\":57}]}\n";

/** A third alert, resolved, for the insertion cases. */
const char *kExtraAlert =
    "\"rule\":\"queue.growth\",\"signal\":\"queue.bits\","
    "\"kind\":\"satellite\",\"entity\":5,\"state\":\"resolved\","
    "\"first_bin\":10,\"last_bin\":12,\"first_t_s\":18000,"
    "\"last_t_s\":21600,\"peak\":3,\"last\":1,\"journal\":null,"
    "\"evidence\":[{\"bin\":10,\"value\":3}]}\n";

AlertsDoc
alertsFromText(const std::string &text)
{
    AlertsDoc doc;
    std::string error;
    EXPECT_TRUE(parse(text, doc, &error)) << error;
    return doc;
}

/** Regressions in @p diff whose subject starts with @p prefix. */
std::size_t
regressionsNamed(const DiffResult &diff, const std::string &prefix)
{
    std::size_t n = 0;
    for (const Finding &finding : diff.findings) {
        if (finding.severity == Severity::Regression &&
            finding.subject.compare(0, prefix.size(), prefix) == 0) {
            ++n;
        }
    }
    return n;
}

TEST(Report, InsertedAlertIsOneDivergenceNotARenumberedTail)
{
    const AlertsDoc base = alertsFromText(kBaseAlerts);
    EXPECT_TRUE(report::diff(base, base, Tolerances{}).findings.empty());

    // The new alert took id 1, so every alert the baseline holds is
    // renumbered; the id is positional and left out of the comparison.
    std::string text = kBaseAlerts;
    text.replace(text.find("\"alerts\":2"), 10, "\"alerts\":3");
    text.replace(text.find("{\"id\":2"), 7, "{\"id\":3");
    text.replace(text.find("{\"id\":1"), 7, "{\"id\":2");
    text += std::string("{\"id\":1,") + kExtraAlert;
    const AlertsDoc cur = alertsFromText(text);
    ASSERT_EQ(cur.alerts.size(), 3u);
    const DiffResult diff = report::diff(base, cur, Tolerances{});
    ASSERT_EQ(diff.regressionCount(), 1u);
    EXPECT_EQ(diff.findings.size(), 1u);
    EXPECT_EQ(diff.findings[0].subject, "alerts");
    EXPECT_EQ(diff.findings[0].message, "alert count changed: 2 -> 3");
    EXPECT_EQ(regressionsNamed(diff, "alert #"), 0u);
}

TEST(Report, AlertFiringCountChangeIsARegression)
{
    const AlertsDoc base = alertsFromText(kBaseAlerts);
    std::string text = kBaseAlerts;
    text.replace(text.find("\"firing\":2"), 10, "\"firing\":1");
    const DiffResult diff =
        report::diff(base, alertsFromText(text), Tolerances{});
    ASSERT_EQ(diff.regressionCount(), 1u);
    EXPECT_EQ(diff.findings[0].subject, "alerts");
    EXPECT_EQ(diff.findings[0].message, "firing count changed: 2 -> 1");
}

TEST(Report, AlertCountChangeAndChangedAlertAreRegressions)
{
    const AlertsDoc base = alertsFromText(kBaseAlerts);
    AlertsDoc fewer = base;
    fewer.alerts.pop_back();
    const DiffResult count = report::diff(base, fewer, Tolerances{});
    ASSERT_EQ(count.regressionCount(), 1u);
    EXPECT_EQ(count.findings[0].message, "alert count changed: 2 -> 1");

    // One changed peak is one divergence naming the alert's position
    // and rule, with both canonical forms.
    std::string text = kBaseAlerts;
    text.replace(text.find("\"peak\":81"), 9, "\"peak\":82");
    const DiffResult changed =
        report::diff(base, alertsFromText(text), Tolerances{});
    ASSERT_EQ(changed.regressionCount(), 1u);
    EXPECT_EQ(changed.findings[0].subject, "alert #1 (downlink.absence)");
    EXPECT_NE(changed.findings[0].message.find("peak 81"),
              std::string::npos);
    EXPECT_NE(changed.findings[0].message.find("peak 82"),
              std::string::npos);
}

const char *kBaseSeries = R"({"kodan_timeseries": 1, "series": [
  {"name": "sim.dvd", "bin_s": 1800, "dropped_bins": 0, "bins": [
    {"bin": 0, "t_s": 0, "count": 1, "sum": 0.25, "min": 0.25, "max": 0.25},
    {"bin": 1, "t_s": 1800, "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5},
    {"bin": 2, "t_s": 3600, "count": 2, "sum": 1.5, "min": 0.5, "max": 1}
  ]},
  {"name": "sim.frames.observed", "bin_s": 1800, "dropped_bins": 0,
   "bins": [
    {"bin": 0, "t_s": 0, "count": 12, "sum": 12, "min": 1, "max": 1}
  ]}
]})";

TimeSeriesDoc
seriesFromText(const std::string &text)
{
    TimeSeriesDoc doc;
    std::string error;
    EXPECT_TRUE(parse(text, doc, &error)) << error;
    return doc;
}

/** Default tolerances with value_rel = @p rel. */
Tolerances
valueTolerance(double rel)
{
    Tolerances tol;
    tol.value_rel = rel;
    return tol;
}

/** kBaseSeries with its first @p from replaced by @p to. */
TimeSeriesDoc
editedSeries(const std::string &from, const std::string &to)
{
    std::string text = kBaseSeries;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    return seriesFromText(text);
}

TEST(Report, SeriesMissingBinIsARegression)
{
    const TimeSeriesDoc base = seriesFromText(kBaseSeries);
    EXPECT_TRUE(report::diff(base, base, Tolerances{}).findings.empty());
    TimeSeriesDoc cur = base;
    cur.series[0].bins.erase(cur.series[0].bins.begin() + 1);
    const DiffResult diff = report::diff(base, cur, Tolerances{});
    ASSERT_EQ(diff.regressionCount(), 2u);
    EXPECT_EQ(diff.findings[0].subject, "sim.dvd");
    EXPECT_EQ(diff.findings[0].message, "bin count changed: 3 -> 2");
    EXPECT_EQ(diff.findings[1].subject, "sim.dvd[bin 1]");
    EXPECT_EQ(diff.findings[1].message, "bin missing from current run");
}

TEST(Report, SeriesBinWidthChangeIsOneRegression)
{
    const TimeSeriesDoc base = seriesFromText(kBaseSeries);
    const DiffResult diff = report::diff(
        base, editedSeries("\"bin_s\": 1800", "\"bin_s\": 900"),
        Tolerances{});
    ASSERT_EQ(diff.regressionCount(), 1u);
    EXPECT_EQ(diff.findings[0].subject, "sim.dvd");
    EXPECT_EQ(diff.findings[0].message, "bin width changed: 1800 s -> 900 s");
}

TEST(Report, SeriesBinCountChangeIsARegressionEvenWhenTolerated)
{
    const TimeSeriesDoc base = seriesFromText(kBaseSeries);
    const TimeSeriesDoc cur = editedSeries("\"count\": 2, \"sum\": 1.5",
                                           "\"count\": 3, \"sum\": 1.5");
    const DiffResult diff = report::diff(base, cur, valueTolerance(0.5));
    ASSERT_EQ(diff.regressionCount(), 1u);
    EXPECT_EQ(diff.findings[0].subject, "sim.dvd[bin 2]");
    EXPECT_EQ(diff.findings[0].message, "count changed: 2 -> 3");
}

TEST(Report, SeriesSumOutsideToleranceIsARegression)
{
    const TimeSeriesDoc base = seriesFromText(kBaseSeries);
    const TimeSeriesDoc cur =
        editedSeries("\"sum\": 1.5", "\"sum\": 1.8");
    // Exact by default; a 20% drift passes a 25% tolerance, not a 10% one.
    const DiffResult exact = report::diff(base, cur, Tolerances{});
    ASSERT_EQ(exact.regressionCount(), 1u);
    EXPECT_EQ(exact.findings[0].subject, "sim.dvd[bin 2]");
    EXPECT_EQ(exact.findings[0].message, "sum changed: 1.5 -> 1.8 (+20.0%)");
    EXPECT_FALSE(
        report::diff(base, cur, valueTolerance(0.25)).hasRegression());
    EXPECT_TRUE(report::diff(base, cur, valueTolerance(0.1)).hasRegression());
}

TEST(Report, SeriesOnlyInCurrentRunIsInfo)
{
    const TimeSeriesDoc base = seriesFromText(kBaseSeries);
    TimeSeriesDoc fewer = base;
    fewer.series.pop_back();
    const DiffResult diff = report::diff(fewer, base, Tolerances{});
    EXPECT_FALSE(diff.hasRegression());
    ASSERT_EQ(diff.findings.size(), 1u);
    EXPECT_EQ(diff.findings[0].severity, Severity::Info);
    EXPECT_EQ(diff.findings[0].subject, "sim.frames.observed");
    EXPECT_EQ(diff.findings[0].message, "new series (absent from baseline)");

    const DiffResult reverse = report::diff(base, fewer, Tolerances{});
    ASSERT_EQ(reverse.regressionCount(), 1u);
    EXPECT_EQ(reverse.findings[0].message,
              "series present in baseline, missing from current run");
}

TEST(Report, SeriesBinOnlyInCurrentRunIsInfo)
{
    const TimeSeriesDoc base = seriesFromText(kBaseSeries);
    TimeSeriesDoc fewer = base;
    fewer.series[0].bins.pop_back();
    // The bin count change is the series' Regression; the extra bin
    // itself is Info, like every record the baseline lacks.
    const DiffResult diff = report::diff(fewer, base, Tolerances{});
    ASSERT_EQ(diff.findings.size(), 2u);
    EXPECT_EQ(diff.findings[0].severity, Severity::Regression);
    EXPECT_EQ(diff.findings[0].message, "bin count changed: 2 -> 3");
    EXPECT_EQ(diff.findings[1].severity, Severity::Info);
    EXPECT_EQ(diff.findings[1].subject, "sim.dvd[bin 2]");
    EXPECT_EQ(diff.findings[1].message, "new bin (absent from baseline)");
}

TEST(Report, ReaderTypesEachDocumentByItsMarker)
{
    Document doc;
    std::string error;
    ASSERT_TRUE(parse(kBaseJournal, doc, &error)) << error;
    EXPECT_STREQ(kindName(doc), "journal");
    ASSERT_TRUE(parse(kBaseAlerts, doc, &error)) << error;
    EXPECT_STREQ(kindName(doc), "alerts");
    ASSERT_TRUE(parse(kBaseSeries, doc, &error)) << error;
    EXPECT_STREQ(kindName(doc), "time series");
    ASSERT_TRUE(parse(kBaseSnapshot, doc, &error)) << error;
    EXPECT_STREQ(kindName(doc), "metrics snapshot");

    // A typed read of another type's document fails naming both.
    Snapshot snapshot;
    EXPECT_FALSE(parse(kBaseJournal, snapshot, &error));
    EXPECT_EQ(error, "expected a metrics snapshot, found a journal");

    // A pair of two types does not diff.
    Document journal;
    ASSERT_TRUE(parse(kBaseJournal, journal, &error)) << error;
    DiffResult out;
    EXPECT_FALSE(report::diff(journal, doc, Tolerances{}, out, &error));
    EXPECT_EQ(error, "cannot diff a journal against a metrics snapshot");
}

TEST(Report, MalformedInputsReportErrors)
{
    Snapshot snapshot;
    std::string error;
    EXPECT_FALSE(parse("{}", snapshot, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parse("not json", snapshot, &error));

    JournalDoc doc;
    EXPECT_FALSE(parse("", doc, &error));
    EXPECT_FALSE(parse("{\"not_a_header\": 1}\n", doc, &error));

    EXPECT_FALSE(load("/no/such/file.json", snapshot, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace kodan::telemetry::report
