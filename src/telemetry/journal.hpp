/**
 * @file
 * Mission flight recorder: an append-only, per-thread-buffered,
 * deterministically-ordered structured event journal with a JSONL
 * export.
 *
 * Where the metrics registry answers "how much / how long", the journal
 * answers "what did the system decide": per-frame technique selections
 * and their data-value contribution, elision verdicts, contact windows,
 * downlink queue drains, sweep winners. `kodan-report` diffs two
 * journals to detect behavioral drift between runs.
 *
 * Determinism contract (proved by `ctest -L journal`, including under
 * KODAN_SANITIZE=thread):
 *  - Events carry an explicit logical ordering key (region, slot, ord)
 *    and no wall-clock data, so the exported bytes are a pure function
 *    of the computation.
 *  - A *region* is one deterministic unit of work — a batch runtime
 *    call, a mission run, a selection sweep. Regions are numbered in
 *    begin order; the repo's drivers begin them serially, so the
 *    numbering is reproducible. clearJournal() resets the numbering.
 *  - A *slot* is a work-item lane inside a region: slot 0 is the
 *    region's own lane (config, contact windows, the selected winner),
 *    and parallel work item i records into slot i + 1 via JournalScope.
 *  - `ord` counts the calling thread's emissions within its current
 *    (region, slot). A work item runs entirely on one thread and is a
 *    pure function of its index (the thread-pool facade contract), so
 *    each slot's ord sequence is invariant to KODAN_THREADS.
 * Export merges the per-thread buffers and sorts by (region, slot,
 * ord), reusing the shard-merge discipline of MetricsRegistry: hot-path
 * writes are uncontended, ordering is imposed deterministically at
 * collection time.
 *
 * Overhead contract: recording is off by default; every emission site
 * guards on journalEnabled() — one relaxed atomic load. Ring mode
 * (setJournalRingCapacity / KODAN_JOURNAL_RING) bounds memory by
 * dropping each thread's oldest events; retained events still sort
 * deterministically, but *which* events are retained then depends on
 * the thread layout, so byte-identity claims apply to the default
 * unbounded mode.
 */

#ifndef KODAN_TELEMETRY_JOURNAL_HPP
#define KODAN_TELEMETRY_JOURNAL_HPP

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace kodan::telemetry {

/** One typed key/value payload entry of a journal event. */
struct JournalField
{
    enum class Kind
    {
        Int,
        Float,
        Text,
    };

    std::string name;
    Kind kind = Kind::Int;
    std::int64_t i = 0;
    double f = 0.0;
    std::string s;

    bool operator==(const JournalField &other) const
    {
        return name == other.name && kind == other.kind && i == other.i &&
               f == other.f && s == other.s;
    }
};

/** One recorded semantic event. */
struct JournalEvent
{
    /** Deterministic region id (0 = ambient, outside any region). */
    std::uint64_t region = 0;
    /** Work-item lane within the region (0 = the region's own lane). */
    std::uint64_t slot = 0;
    /** Emission ordinal within (region, slot). */
    std::uint32_t ord = 0;
    /** Event type, `subsystem.noun.verb` like metric names. */
    std::string type;
    /** Payload in emission order (order is part of the export bytes). */
    std::vector<JournalField> fields;
};

/** Strict weak order of the deterministic export: (region, slot, ord),
 *  with type/payload as a total-order tiebreak for ambient events. */
bool journalEventBefore(const JournalEvent &a, const JournalEvent &b);

namespace detail {

/** Journal recording state (resolved from KODAN_JOURNAL once). */
extern std::atomic<int> g_journal_enabled;

bool resolveJournalEnabled();

/** The calling thread's current (region, slot, ord) cursor. */
struct JournalCursor
{
    std::uint64_t region = 0;
    std::uint64_t slot = 0;
    std::uint32_t ord = 0;
};

JournalCursor &journalCursor();

} // namespace detail

/**
 * Is journal recording enabled? Resolved from the KODAN_JOURNAL
 * environment toggle ("1"/"true"/"on") on first call; also enabled by
 * `--journal-out` (see telemetry::configureFromArgs). Independent of
 * the metrics toggle — a run may record either, both, or neither.
 */
inline bool
journalEnabled()
{
    const int state =
        detail::g_journal_enabled.load(std::memory_order_relaxed);
    if (state >= 0) {
        return state != 0;
    }
    return detail::resolveJournalEnabled();
}

/** Turn journal recording on or off in-process (tests, CLI flags). */
void setJournalEnabled(bool on);

/**
 * Bound each thread's buffer to @p events_per_thread events, dropping
 * the oldest beyond that (ring mode). 0 restores the unbounded default.
 * Also settable via the KODAN_JOURNAL_RING environment variable.
 */
void setJournalRingCapacity(std::size_t events_per_thread);

/** Current per-thread ring capacity (0 = unbounded). */
std::size_t journalRingCapacity();

/**
 * Live stream tap: append every event, as it commits, to the JSONL
 * file at @p path (no header line; one event object per line, no seq).
 * This is a *live view* for tailing tools (kodan-top --follow): lines
 * appear in arrival order, which depends on thread interleaving — the
 * deterministic record remains the collected/sorted export. An empty
 * path disables the tap. Also settable via KODAN_JOURNAL_STREAM.
 */
void setJournalStreamPath(const std::string &path);

/**
 * RAII bracket of one deterministic unit of work. Allocates the next
 * region id, emits a `<name>.begin` event, and routes the constructing
 * thread's events to the region's slot 0 until destruction (which
 * restores the previous cursor). A disabled journal makes this a no-op
 * with id() == 0.
 */
class JournalRegion
{
  public:
    explicit JournalRegion(const char *name);
    JournalRegion(const JournalRegion &) = delete;
    JournalRegion &operator=(const JournalRegion &) = delete;
    ~JournalRegion();

    /** The region id events should target (0 when not recording). */
    std::uint64_t id() const { return id_; }

  private:
    std::uint64_t id_ = 0;
    bool active_ = false;
    detail::JournalCursor saved_;
};

/**
 * RAII lane selector for one parallel work item: routes the calling
 * thread's events to (@p region, @p index + 1) and restores the
 * previous cursor on destruction. Construct inside the parallelFor
 * body, before any emission. No-op when the journal is disabled or
 * @p region is 0.
 */
class JournalScope
{
  public:
    JournalScope(std::uint64_t region, std::uint64_t index);

    /**
     * Re-entrant variant for chunked drivers: resume the lane's ordinal
     * at @p resume_ord instead of 0, so a work item that records across
     * several scope entries (one per time chunk) still produces one
     * monotone ord sequence. Read the ordinal to carry forward with
     * journalScopeOrd() before the scope closes.
     */
    JournalScope(std::uint64_t region, std::uint64_t index,
                 std::uint32_t resume_ord);
    JournalScope(const JournalScope &) = delete;
    JournalScope &operator=(const JournalScope &) = delete;
    ~JournalScope();

  private:
    bool active_ = false;
    detail::JournalCursor saved_;
};

/**
 * The calling thread's next emission ordinal within its current
 * (region, slot) — the value to pass as resume_ord when re-entering the
 * same lane later. 0 when the journal is disabled.
 */
std::uint32_t journalScopeOrd();

/**
 * Builder for one event; commits to the calling thread's buffer on
 * destruction. Emission sites guard on journalEnabled() themselves (the
 * builder re-checks and no-ops when disabled):
 *
 *   if (telemetry::journalEnabled()) {
 *       telemetry::JournalEventBuilder ev("runtime.frame.decision");
 *       ev.i64("discarded", n).f64("dvd_contribution", dvd);
 *   }
 */
class JournalEventBuilder
{
  public:
    explicit JournalEventBuilder(const char *type);
    JournalEventBuilder(const JournalEventBuilder &) = delete;
    JournalEventBuilder &operator=(const JournalEventBuilder &) = delete;
    ~JournalEventBuilder();

    JournalEventBuilder &i64(const char *name, std::int64_t value);
    JournalEventBuilder &f64(const char *name, double value);
    JournalEventBuilder &text(const char *name, std::string value);

  private:
    bool active_ = false;
    JournalEvent event_;
};

/** All recorded events, merged across threads and sorted
 *  deterministically (see journalEventBefore). */
std::vector<JournalEvent> collectJournal();

/** Events dropped by ring mode across all thread buffers. */
std::uint64_t journalDroppedEvents();

/** Drop all recorded events and restart region numbering at 1, so two
 *  identical instrumented runs export identical bytes. */
void clearJournal();

/**
 * Write events as JSONL: a header line
 *   {"kodan_journal": 1, "events": N, "dropped": D}
 * then one object per event with keys seq, region, slot, ord, type and
 * a nested "fields" object preserving emission order. Deterministic
 * events produce byte-identical output for any KODAN_THREADS.
 */
void writeJournalJsonl(const std::vector<JournalEvent> &events,
                       std::uint64_t dropped, std::ostream &os);

} // namespace kodan::telemetry

#endif // KODAN_TELEMETRY_JOURNAL_HPP
