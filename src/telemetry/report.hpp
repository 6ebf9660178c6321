/**
 * @file
 * kodan-report engine: one reader and one diff for every telemetry
 * artifact — metrics snapshots (writeMetricsJson), flight-recorder
 * journals (writeJournalJsonl), sim-time series (writeTimeSeriesJson),
 * health alerts (writeAlertsJsonl) and CPU profiles (writeProfileJson)
 * — plus the markdown summaries.
 *
 * The reader takes a document's type from its marker and reads every
 * integer field through one checked conversion. The diff compares two
 * documents of one type: records keyed by name (metrics, series and
 * their bins, profile spans and frames) through one keyed diff, the two
 * JSONL streams (journal, alerts) record by record, and measured time
 * (timers, span task-clock) under one rule.
 *
 * Lives in the kodan_telemetry library (not the CLI) so the gtest
 * targets exercise the exact code the `kodan-report` binary ships.
 */

#ifndef KODAN_TELEMETRY_REPORT_HPP
#define KODAN_TELEMETRY_REPORT_HPP

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace kodan::telemetry::report {

/** One metric parsed back from a snapshot JSON. */
struct MetricReading
{
    std::string name;
    std::string type;      ///< counter | gauge | histogram | timer
    std::int64_t count = 0; ///< counter value / histogram+timer count
    double sum = 0.0;       ///< gauge value / histogram sum / timer total_s
    double max = 0.0;       ///< timer max_s (0 otherwise)

    const std::string &key() const { return name; }
};

/** A parsed metrics snapshot, metrics sorted by name. */
struct Snapshot
{
    std::vector<MetricReading> metrics;
};

/** One flight-recorder event parsed back from the JSONL export. */
struct JournalLine
{
    std::uint64_t seq = 0;
    std::uint64_t region = 0;
    std::uint64_t slot = 0;
    std::uint64_t ord = 0;
    std::string type;
    std::string canonical; ///< re-serialized key+fields (diff unit)
};

/** A parsed journal export. */
struct JournalDoc
{
    std::uint64_t declared_events = 0;
    std::uint64_t dropped = 0;
    std::vector<JournalLine> events;
};

/** One merged bin parsed back from a time-series document. */
struct SeriesBinReading
{
    std::int64_t index = 0;
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    std::int64_t key() const { return index; }
};

/** One series parsed back from a time-series document, bins sorted by
 *  index. */
struct SeriesReading
{
    std::string name;
    double bin_s = 0.0;
    std::uint64_t dropped_bins = 0;
    std::vector<SeriesBinReading> bins;

    const std::string &key() const { return name; }
};

/** A parsed writeTimeSeriesJson document, series sorted by name. */
struct TimeSeriesDoc
{
    std::vector<SeriesReading> series;
};

/** One alert parsed back from the health plane's JSONL export. */
struct AlertReading
{
    std::uint64_t id = 0;
    std::string rule;
    std::string signal;
    std::string kind; ///< satellite | station | stage
    std::int64_t entity = 0;
    std::string state; ///< firing | resolved
    std::int64_t first_bin = 0;
    std::int64_t last_bin = 0;
    double first_t_s = 0.0;
    double last_t_s = 0.0;
    double peak = 0.0;
    double last = 0.0;
    bool has_journal = false;
    std::uint64_t journal_region = 0;
    std::uint64_t journal_slot = 0;
    std::uint64_t journal_ord_lo = 0;
    std::uint64_t journal_ord_hi = 0;
    /** (bin, value) evidence pairs. */
    std::vector<std::pair<std::int64_t, double>> evidence;
    /** Id-free re-serialization — the diff unit, so one new alert shows
     *  as one divergence instead of a tail of renumbered ids. */
    std::string canonical;
};

/** A parsed writeAlertsJsonl document. */
struct AlertsDoc
{
    std::uint64_t declared_alerts = 0;
    std::uint64_t firing = 0;
    std::vector<AlertReading> alerts;
};

/** One sampled frame parsed back from a profile JSON. */
struct ProfileFrame
{
    std::string name;
    std::uint64_t self = 0;  ///< samples with this frame on top
    std::uint64_t total = 0; ///< samples with this frame anywhere

    const std::string &key() const { return name; }
};

/** One span-counter row parsed back from a profile JSON. */
struct ProfileSpanRow
{
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t branch_misses = 0;
    std::uint64_t task_clock_ns = 0;

    const std::string &key() const { return name; }
};

/** A parsed writeProfileJson document (prof.hpp). */
struct ProfileDoc
{
    std::uint64_t period_us = 0;
    std::uint64_t samples = 0;
    std::uint64_t dropped = 0;
    std::uint64_t unregistered_hits = 0;
    std::uint64_t threads = 0;
    std::string span_source; ///< "perf_event" | "rusage" | "unresolved"
    /** Top frames in emitted (self-descending) order. */
    std::vector<ProfileFrame> frames;
    /** Span-counter rows sorted by name. */
    std::vector<ProfileSpanRow> spans;

    /** Seconds of CPU one sampled frame accounts for. */
    double frameSeconds(std::uint64_t sample_count) const;
};

/** Any one telemetry document. */
using Document =
    std::variant<Snapshot, JournalDoc, TimeSeriesDoc, AlertsDoc, ProfileDoc>;

/** The document's type in words ("journal", "profile", ...). */
const char *kindName(const Document &doc);

/**
 * The one reader. Parses @p text as the document its marker names — a
 * `kodan_journal` or `kodan_alerts` header line, a `kodan_timeseries`
 * or `kodan_profile` key, else a `metrics` array (a snapshot) — into
 * @p out, a Document or one of its types (which the text must then
 * be). Every count, index and id must be a finite integral number
 * inside its field's type; the error names the first field that is
 * not.
 */
template <class Doc>
bool parse(const std::string &text, Doc &out, std::string *error = nullptr);

/** Read @p path and parse() it; errors name the path. */
template <class Doc>
bool load(const std::string &path, Doc &out, std::string *error = nullptr);

/** The one record lookup: the record under @p key in @p records, which
 *  are sorted by key(), or nullptr. */
template <class Record, class Key>
const Record *
findRecord(const std::vector<Record> &records, const Key &key)
{
    const auto it = std::lower_bound(
        records.begin(), records.end(), key,
        [](const Record &record, const Key &k) { return record.key() < k; });
    return it != records.end() && it->key() == key ? &*it : nullptr;
}

/**
 * Diff tolerances. Values compare |cur - base| <= value_rel *
 * max(|base|, floor-ish epsilon). Measured time regresses only when it
 * got *slower* by more than timer_rel AND one reading clears
 * timer_floor_s (sub-floor times are scheduler noise).
 */
struct Tolerances
{
    /** Timers and span task-clock: allowed relative slowdown. */
    double timer_rel = 0.5;
    /** Counters, gauges, histograms, series bins and span calls:
     *  allowed relative delta. */
    double value_rel = 0.0;
    /** Timers and span task-clock: ignore both readings below this. */
    double timer_floor_s = 1e-3;
    /** Exact-name overrides of a record's relative tolerance. */
    std::vector<std::pair<std::string, double>> overrides;
    /** Record-name prefixes excluded from the diff entirely. */
    std::vector<std::string> ignore_prefixes;

    bool ignored(const std::string &name) const;
    /** The override for @p name, else timer_rel for measured time and
     *  value_rel for everything else. */
    double relFor(const std::string &name, bool measured_time) const;
};

/** Diff finding severity: Info never fails the run, Regression does. */
enum class Severity
{
    Info,
    Regression,
};

struct Finding
{
    Severity severity = Severity::Info;
    std::string subject; ///< record name or stream position
    std::string message; ///< human-readable delta
};

/** One row of a profile ranking. */
struct ProfileDeltaRow
{
    std::string name;
    double base_s = 0.0;  ///< base cost in seconds
    double cur_s = 0.0;   ///< current cost in seconds
    double delta_s = 0.0; ///< cur_s - base_s
    std::uint64_t base_calls = 0; ///< spans only
    std::uint64_t cur_calls = 0;  ///< spans only
    std::int64_t delta_cycles = 0; ///< spans only; 0 without perf_event
};

/** A profile pair's frames or spans, ranked by cost regression. */
struct Ranking
{
    std::string title; ///< e.g. "Spans by task-clock regression"
    bool spans = false; ///< span rows (with call and cycle columns)
    std::vector<ProfileDeltaRow> rows; ///< ranking key descending
};

struct DiffResult
{
    std::vector<Finding> findings;
    /** Profile pairs only: frames ranked by self-time regression, then
     *  spans by cycle regression (both runs read perf_event) or else by
     *  task-clock regression. */
    std::vector<Ranking> rankings;

    bool hasRegression() const;
    std::size_t regressionCount() const;
};

/**
 * Compare two documents of one type under @p tol.
 *
 * Keyed records (metrics, series, series bins, profile spans): one only
 * in the baseline is a Regression, one only in the current run is Info,
 * and one in both meets its type's rule — timers and span task-clock
 * the measured-time rule, every other value |cur - base| within
 * value_rel (series bin counts exactly). A metric's type change, a
 * series' bin width or bin count change are Regressions. Profile
 * frames only rank. The journal and alert streams compare record by
 * record in canonical form; any divergence or count change is a
 * Regression (so is a changed firing count; a changed dropped-event
 * count is Info). At most 5 divergences per stream, and 5 bins per
 * series, are listed; one finding counts the rest.
 */
DiffResult diff(const Snapshot &base, const Snapshot &cur,
                const Tolerances &tol);
DiffResult diff(const JournalDoc &base, const JournalDoc &cur,
                const Tolerances &tol);
DiffResult diff(const TimeSeriesDoc &base, const TimeSeriesDoc &cur,
                const Tolerances &tol);
DiffResult diff(const AlertsDoc &base, const AlertsDoc &cur,
                const Tolerances &tol);
DiffResult diff(const ProfileDoc &base, const ProfileDoc &cur,
                const Tolerances &tol);

/** Compare two documents and append the findings and rankings to
 *  @p out; false (with @p error) when they differ in type. */
bool diff(const Document &base, const Document &cur, const Tolerances &tol,
          DiffResult &out, std::string *error = nullptr);

/**
 * Markdown summary: verdict headline, each ranking's top 20 rows, then
 * a findings table naming each offending record.
 */
void writeMarkdown(const DiffResult &diff, const std::string &base_label,
                   const std::string &cur_label, std::ostream &os);

/** Markdown profile summary: header counts, top-K self-time frames,
 *  span-counter table (top K rows by task-clock). */
void writeProfileMarkdown(const ProfileDoc &doc,
                          const std::string &label, std::size_t top,
                          std::ostream &os);

} // namespace kodan::telemetry::report

#endif // KODAN_TELEMETRY_REPORT_HPP
