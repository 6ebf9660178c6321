/**
 * @file
 * kodan::telemetry::prof — per-span hardware counter attribution.
 *
 * While the profiling plane is on, every `KODAN_TRACE_SCOPE` reads the
 * calling thread's counters (cycles, instructions, LLC misses, branch
 * misses, task-clock) at entry and exit and charges the deltas to its
 * span's record in the metrics registry (`Timer`), whose span rows the
 * profile document exports. Counters come from a per-thread
 * `perf_event_open` group when the kernel allows self-profiling; when
 * it does not (containers, CI, locked-down perf_event_paranoid), the
 * reader falls back to software counters (CLOCK_THREAD_CPUTIME_ID) and
 * the exported table is marked `source: "rusage"` so downstream diffs
 * know the hardware columns are absent rather than zero.
 *
 * Determinism contract: the counter columns go only to the profile;
 * the metrics snapshot exports a span's calls and wall time, which the
 * span records whether or not counters are read, so enabling them
 * never changes a byte of the metrics, the journal, or the time series
 * (bench_prof --verify). Span *call counts* are exact sharded integer
 * sums and are deterministic at any KODAN_THREADS; the counter columns
 * read real hardware and are not.
 *
 * Overhead: one relaxed atomic load per span while disabled; one group
 * `read(2)` (or one `clock_gettime` in fallback) per scope entry and
 * exit while enabled.
 */

#ifndef KODAN_TELEMETRY_PERF_COUNTERS_HPP
#define KODAN_TELEMETRY_PERF_COUNTERS_HPP

#include <atomic>
#include <cstdint>

namespace kodan::telemetry::prof {

/** Where counter values come from (process-wide, resolved on the first
 *  thread to read). */
enum class CounterSource
{
    /** Not yet resolved: no thread has read counters. */
    Unresolved,
    /** perf_event_open hardware group (all five columns live). */
    PerfEvent,
    /** Software fallback: thread CPU clock only; hardware columns 0. */
    Rusage,
};

/** One point-in-time reading of the calling thread's counters. */
struct CounterReading
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t branch_misses = 0;
    /** perf task-clock, or CLOCK_THREAD_CPUTIME_ID in fallback (ns). */
    std::uint64_t task_clock_ns = 0;
};

namespace detail {

/** 0 = off, 1 = on. Relaxed fast path mirror of metrics::g_enabled. */
extern std::atomic<int> g_counters_enabled;

} // namespace detail

/** Is per-span counter attribution on? One relaxed load. */
inline bool
countersEnabled()
{
    return detail::g_counters_enabled.load(std::memory_order_relaxed) !=
           0;
}

/** Turn per-span counter attribution on or off. */
void setCountersEnabled(bool on);

/** Resolved counter source ("perf_event" vs "rusage"); resolving reads
 *  the calling thread's counters once if no thread has yet. */
CounterSource counterSource();

/** "perf_event" / "rusage" / "unresolved". */
const char *counterSourceName();

/**
 * Test hook: force every subsequent perf_event_open attempt to fail
 * with @p err (e.g. ENOSYS, EACCES) so the rusage fallback path is
 * testable on hosts where perf_event works. 0 clears the hook. Only
 * affects threads that have not opened their counters yet, so tests
 * should exercise it from a fresh thread.
 */
void setPerfForceErrnoForTest(int err);

/** errno of the first failed perf_event_open (0 = none failed). */
int perfOpenErrno();

/**
 * Read the calling thread's counters now. Opens the per-thread
 * perf_event group lazily on first use (outside any signal context);
 * falls back to software counters on open failure. Never blocks on a
 * lock after the first call per thread.
 *
 * @return false only if even the fallback clock read failed.
 */
bool readThreadCounters(CounterReading &out);

} // namespace kodan::telemetry::prof

#endif // KODAN_TELEMETRY_PERF_COUNTERS_HPP
