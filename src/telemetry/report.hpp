/**
 * @file
 * kodan-report engine: load metrics snapshots (writeMetricsJson output)
 * and flight-recorder journals (writeJournalJsonl output), diff two
 * runs with configurable tolerances, and emit a markdown summary.
 *
 * Lives in the kodan_telemetry library (not the CLI) so the gtest
 * targets exercise the exact code the `kodan-report` binary ships.
 */

#ifndef KODAN_TELEMETRY_REPORT_HPP
#define KODAN_TELEMETRY_REPORT_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
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
};

/** A parsed metrics snapshot, metrics sorted by name. */
struct Snapshot
{
    std::vector<MetricReading> metrics;

    /** Pointer to the named metric or nullptr. */
    const MetricReading *find(const std::string &name) const;
};

/** Parse the writeMetricsJson document in @p text. */
bool parseSnapshot(const std::string &text, Snapshot &out,
                   std::string *error = nullptr);

/** Read + parse a snapshot file. */
bool loadSnapshot(const std::string &path, Snapshot &out,
                  std::string *error = nullptr);

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

/** Parse a writeJournalJsonl document in @p text. */
bool parseJournal(const std::string &text, JournalDoc &out,
                  std::string *error = nullptr);

/** Read + parse a journal file. */
bool loadJournal(const std::string &path, JournalDoc &out,
                 std::string *error = nullptr);

/** One merged bin parsed back from a time-series document. */
struct SeriesBinReading
{
    std::int64_t index = 0;
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** One series parsed back from a time-series document. */
struct SeriesReading
{
    std::string name;
    double bin_s = 0.0;
    std::uint64_t dropped_bins = 0;
    std::vector<SeriesBinReading> bins;
};

/** A parsed writeTimeSeriesJson document, series sorted by name. */
struct TimeSeriesDoc
{
    std::vector<SeriesReading> series;

    /** Pointer to the named series or nullptr. */
    const SeriesReading *find(const std::string &name) const;
};

/** Parse the writeTimeSeriesJson document in @p text. */
bool parseTimeSeries(const std::string &text, TimeSeriesDoc &out,
                     std::string *error = nullptr);

/** Read + parse a time-series file. */
bool loadTimeSeries(const std::string &path, TimeSeriesDoc &out,
                    std::string *error = nullptr);

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

/** Parse a writeAlertsJsonl document in @p text. */
bool parseAlerts(const std::string &text, AlertsDoc &out,
                 std::string *error = nullptr);

/** Read + parse an alerts file. */
bool loadAlerts(const std::string &path, AlertsDoc &out,
                std::string *error = nullptr);

/** One sampled frame parsed back from a profile JSON. */
struct ProfileFrame
{
    std::string name;
    std::uint64_t self = 0;  ///< samples with this frame on top
    std::uint64_t total = 0; ///< samples with this frame anywhere
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
    /** Pointer to the named frame or nullptr. */
    const ProfileFrame *findFrame(const std::string &name) const;
    /** Pointer to the named span row or nullptr. */
    const ProfileSpanRow *findSpan(const std::string &name) const;
};

/** Parse the writeProfileJson document in @p text. */
bool parseProfile(const std::string &text, ProfileDoc &out,
                  std::string *error = nullptr);

/** Read + parse a profile file. */
bool loadProfile(const std::string &path, ProfileDoc &out,
                 std::string *error = nullptr);

/**
 * Diff tolerances. Relative tolerances compare
 * |cur - base| <= tol * max(|base|, floor-ish epsilon); a timer only
 * regresses when it got *slower* beyond tolerance AND both readings
 * clear timer_floor_s (sub-floor timers are scheduler noise).
 */
struct Tolerances
{
    double timer_rel = 0.5;    ///< timers: allowed relative slowdown
    double value_rel = 0.0;    ///< counters/gauges/histograms: rel delta
    double timer_floor_s = 1e-3; ///< ignore timers below this many seconds
    /** Exact-name overrides of the relative tolerance. */
    std::vector<std::pair<std::string, double>> overrides;
    /** Metric-name prefixes excluded from the diff entirely. */
    std::vector<std::string> ignore_prefixes;

    bool ignored(const std::string &name) const;
    double relFor(const MetricReading &metric) const;
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
    std::string subject; ///< metric name or journal event description
    std::string message; ///< human-readable delta
};

struct DiffResult
{
    std::vector<Finding> findings;

    bool hasRegression() const;
    std::size_t regressionCount() const;
};

/** Compare two metrics snapshots under @p tol. */
DiffResult diffSnapshots(const Snapshot &base, const Snapshot &cur,
                         const Tolerances &tol);

/**
 * Compare two journal event streams. Any divergence (count mismatch,
 * reordered/changed/missing event) is a Regression naming the first
 * differing events; at most @p max_reported divergences are listed.
 */
DiffResult diffJournals(const JournalDoc &base, const JournalDoc &cur,
                        std::size_t max_reported = 5);

/**
 * Compare two time-series documents bin by bin. A series or bin present
 * in the baseline but missing from the current run, a bin-width or
 * per-bin count mismatch, or a per-bin sum/min/max outside
 * |cur - base| <= bin_rel_tol * max(|base|, 1e-12) is a Regression
 * (the default tolerance of 0 demands bit-equal values — the series
 * are deterministic). At most @p max_reported offending bins are
 * listed per series.
 */
DiffResult diffTimeSeries(const TimeSeriesDoc &base,
                          const TimeSeriesDoc &cur,
                          double bin_rel_tol = 0.0,
                          std::size_t max_reported = 5);

/**
 * Compare two alert exports. The alert stream is deterministic, so any
 * divergence — count mismatch, or a changed/missing/new alert by
 * canonical form — is a Regression; at most @p max_reported divergences
 * are listed.
 */
DiffResult diffAlerts(const AlertsDoc &base, const AlertsDoc &cur,
                      std::size_t max_reported = 5);

/** Merge b's findings after a's. */
DiffResult mergeDiffs(DiffResult a, const DiffResult &b);

/* ------------------------------------------------------------------ */
/* Profile diff                                                        */
/* ------------------------------------------------------------------ */

/**
 * Profile-diff tolerances. Span call counts are deterministic
 * (calls_rel defaults to exact); span costs are wall/cycle noise-prone,
 * so cost_rel is wide by default and spans whose cost stays under
 * cost_floor_s on both sides never regress.
 */
struct ProfileTolerances
{
    double calls_rel = 0.0;    ///< span calls: allowed relative delta
    double cost_rel = 0.5;     ///< span cost: allowed relative slowdown
    double cost_floor_s = 1e-3; ///< ignore spans cheaper than this
};

/** One ranked row of a profile diff. */
struct ProfileDeltaRow
{
    std::string name;
    double base_s = 0.0;  ///< base cost in seconds
    double cur_s = 0.0;   ///< current cost in seconds
    double delta_s = 0.0; ///< cur_s - base_s (the ranking key)
    std::uint64_t base_calls = 0; ///< spans only
    std::uint64_t cur_calls = 0;  ///< spans only
    std::int64_t delta_cycles = 0; ///< spans only; 0 without perf_event
};

/**
 * A profile diff: sampled frames ranked by self-time regression and
 * span rows ranked by cost regression (cycles when both runs read
 * perf_event, task-clock otherwise), plus tolerance findings for the
 * regression gate (span calls drift, span cost slowdown, span rows
 * missing from the current run).
 */
struct ProfileDiffResult
{
    std::vector<ProfileDeltaRow> frames; ///< delta_s descending
    std::vector<ProfileDeltaRow> spans;  ///< delta_s descending
    bool spans_use_cycles = false; ///< span ranking used cycle counts
    DiffResult findings;
};

/** Compare two profiles under @p tol. */
ProfileDiffResult diffProfiles(const ProfileDoc &base,
                               const ProfileDoc &cur,
                               const ProfileTolerances &tol);

/** Markdown profile summary: header counts, top-K self-time frames,
 *  span-counter table (top K rows by task-clock). */
void writeProfileMarkdown(const ProfileDoc &doc,
                          const std::string &label, std::size_t top,
                          std::ostream &os);

/** Markdown profile-diff summary: top-K regressed frames and spans
 *  plus the findings table. */
void writeProfileDiffMarkdown(const ProfileDiffResult &diff,
                              const std::string &base_label,
                              const std::string &cur_label,
                              std::size_t top, std::ostream &os);

/**
 * Markdown summary: verdict headline then a findings table naming each
 * offending metric/event.
 */
void writeMarkdown(const DiffResult &diff, const std::string &base_label,
                   const std::string &cur_label, std::ostream &os);

} // namespace kodan::telemetry::report

#endif // KODAN_TELEMETRY_REPORT_HPP
