/**
 * @file
 * kodan::telemetry::prof — in-process wall-clock sampling profiler.
 *
 * Each registered thread gets a POSIX interval timer
 * (`timer_create(CLOCK_MONOTONIC, SIGEV_THREAD_ID)`) that delivers
 * SIGPROF to that thread on a fixed period. The handler captures a
 * `backtrace()` into a pre-allocated per-thread ring of raw program
 * counters — no allocation, no locks, errno saved/restored — and
 * symbolization happens offline at flush (`dladdr` + demangle).
 * Exports are collapsed/folded stacks (flamegraph.pl / speedscope
 * ready) plus a top-N self/total JSON table, bundled with the span
 * table — the KODAN_TRACE_SCOPE records of the metrics registry, with
 * their counter columns (perf_counters.hpp) — into one profile
 * document.
 *
 * Signal-safety rules for the handler (enforced by review, asserted by
 * bench_prof): only `backtrace()` into a stack buffer (primed once at
 * start so libgcc's unwinder state is allocated outside signal
 * context), relaxed atomic ring bookkeeping, and errno save/restore.
 * No malloc, no locks, no iostream, no util::log.
 *
 * Determinism contract: the profiler writes nothing into the metrics
 * registry, the journal, the time series, or the health plane,
 * and never logs through util::log while armed (the telemetry log tap
 * counts warnings) — so journal/metrics/report bytes are bit-identical
 * with profiling on or off at any KODAN_THREADS (bench_prof --verify).
 *
 * Worker threads register through util::setWorkerStartHook, installed
 * when profiling is enabled (before any pool exists when enabled via
 * the harness flags); the sampler only observes threads that
 * registered.
 */

#ifndef KODAN_TELEMETRY_PROF_HPP
#define KODAN_TELEMETRY_PROF_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace kodan::telemetry::prof {

/** Sampler tuning. The default rate is a prime (997 Hz) so sampling
 *  never phase-locks with millisecond-periodic work. */
struct SamplerOptions
{
    int hz = 997;
    /** Frames kept per sample (deeper stacks are truncated). */
    int max_depth = 64;
    /** Per-thread ring capacity in words (1 MiB at the default). */
    std::size_t ring_words = std::size_t{1} << 17;
};

/** Can the sampler run at all? False under ThreadSanitizer (signal
 *  backtraces trip its interceptors) and on non-Linux hosts. Counter
 *  attribution (perf_counters.hpp) is independent and still works. */
bool samplerSupported();

/** Is the sampler currently armed? */
bool samplingActive();

/**
 * Install the SIGPROF handler, register the calling thread, and arm a
 * per-thread interval timer for every registered thread. Idempotent.
 *
 * @return true if sampling is running afterwards.
 */
bool startSampler(const SamplerOptions &options = {});

/** Disarm every per-thread timer (rings keep their samples). */
void stopSampler();

/**
 * Register the calling thread with the sampler: allocate its sample
 * ring and create (and, if sampling is active, arm) its interval
 * timer. Idempotent per thread; the timer is deleted automatically at
 * thread exit, the ring persists so its samples remain collectable.
 */
void registerThisThread();

/** One aggregated call stack, root first. */
struct ProfileStack
{
    std::vector<std::string> frames;
    std::uint64_t count = 0;
};

/** Per-frame flat totals. */
struct FrameStat
{
    std::string name;
    /** Samples with this frame on top. */
    std::uint64_t self = 0;
    /** Samples with this frame anywhere on the stack. */
    std::uint64_t total = 0;
};

/** Collected + symbolized view of every ring. */
struct ProfileSnapshot
{
    std::uint64_t samples = 0;
    std::uint64_t dropped = 0;
    /** Signals that landed on threads that never registered (or had
     *  already unregistered); diagnostic only. */
    std::uint64_t unregistered_hits = 0;
    int period_us = 0;
    std::size_t threads = 0;
    /** Sorted by joined frame names (deterministic output order). */
    std::vector<ProfileStack> stacks;
    /** Sorted by self desc, then name. */
    std::vector<FrameStat> frames;
};

/** Collect and symbolize all rings now (the sampler may keep running;
 *  samples pushed during collection land in the next snapshot). */
ProfileSnapshot snapshotProfile();

/** Drop all recorded samples (rings and timers persist). */
void resetProfile();

/** Folded stacks, one per line: `frame;frame;leaf count`. */
void writeFolded(const ProfileSnapshot &snapshot, std::ostream &os);

/**
 * The profile document:
 *   {"kodan_profile": 1, "period_us": ..., "samples": ...,
 *    "dropped": ..., "unregistered_hits": ..., "threads": ...,
 *    "frames": [{"name", "self", "total"}, ...],   // top N by self
 *    "spans": {"source": "perf_event"|"rusage",
 *              "rows": [{"name", "calls", "cycles", "instructions",
 *                        "llc_misses", "branch_misses",
 *                        "task_clock_ns"}, ...]}}
 */
void writeProfileJson(const ProfileSnapshot &snapshot, std::ostream &os,
                      std::size_t top_frames = 100);

/* ------------------------------------------------------------------ */
/* Harness integration (telemetry::configureFromArgs)                  */
/* ------------------------------------------------------------------ */

/** Is the profiling plane (sampler + span counters) on? */
bool profilingEnabled();

/**
 * Turn the profiling plane on/off: installs the worker-start hook,
 * enables span counter attribution, and starts/stops the sampler
 * (where supported; see samplerSupported()).
 */
void setProfilingEnabled(bool on);

/** Profile output path ("" = stderr summary at flush). */
std::string profileOutputPath();

/** Set/replace the profile JSON output path. */
void setProfileOutputPath(const std::string &path);

/**
 * Resolve the KODAN_PROF env toggle: "1"/"true"/"on" enables profiling
 * with a stderr summary, any other non-off value is used as the
 * output path (mirrors KODAN_ALERTS). KODAN_PROF_HZ overrides the
 * sampling rate. @return true if profiling is enabled afterwards.
 */
bool configureFromEnv();

/** Write the profile JSON to profileOutputPath() plus the folded
 *  stacks beside it (foo.json -> foo.folded), or a stderr summary when
 *  no path is set. Called from telemetry::writeOutputs(). */
void writeProfileOutputs();

} // namespace kodan::telemetry::prof

#endif // KODAN_TELEMETRY_PROF_HPP
