/**
 * @file
 * Scoped-span tracer with per-thread ring buffers and a Chrome
 * `trace_event` JSON export (load the file at chrome://tracing or
 * https://ui.perfetto.dev).
 *
 * Each thread records into its own fixed-capacity ring (oldest events
 * overwritten), registered with the global Tracer on first use. Buffers
 * are owned by the Tracer and never freed, so worker threads that exit
 * (e.g. when `util::setGlobalThreads` rebuilds the pool) leave their
 * events collectable. Timestamps are steady-clock microseconds since
 * tracer start — wall-clock data, intentionally outside the repo's
 * determinism contract.
 *
 * ScopedSpan (KODAN_TRACE_SCOPE) is the one span primitive: one pair of
 * clock reads feeds its record in the metrics registry and, while
 * telemetry is enabled, its trace event. It reads no clock while both
 * telemetry and the profiling plane are off.
 */

#ifndef KODAN_TELEMETRY_TRACE_HPP
#define KODAN_TELEMETRY_TRACE_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace kodan::telemetry {

/** One completed span or instant event. */
struct TraceEvent
{
    std::string name;
    /** Start, microseconds since tracer start. */
    double start_us = 0.0;
    /** Duration in microseconds; < 0 marks an instant event. */
    double dur_us = 0.0;
    /** Recording thread's trace id. */
    int tid = 0;
};

/**
 * Fixed-capacity overwrite-oldest event ring of one thread. Pushes are
 * effectively uncontended (only the owning thread writes); the mutex
 * exists so collect()/reset() from another thread are race-free.
 */
class TraceRing
{
  public:
    TraceRing(int tid, std::size_t capacity);

    void push(TraceEvent event);

    /** Events in recording order (oldest first). */
    std::vector<TraceEvent> events() const;

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const;

    void clear();

    int tid() const { return tid_; }

  private:
    mutable std::mutex mutex_;
    std::vector<TraceEvent> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    int tid_;
};

/**
 * The process-wide tracer: hands each thread its ring and merges them
 * for export.
 */
class Tracer
{
  public:
    /** Events each thread's ring holds before overwriting. */
    static constexpr std::size_t kRingCapacity = 8192;

    static Tracer &instance();

    /** The calling thread's ring (created and registered on first use). */
    TraceRing &threadRing();

    /** Record the completed span [@p start, @p end) on the calling
     *  thread. */
    void recordSpan(const char *name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end);

    /** Record an instant event on the calling thread. */
    void recordInstant(std::string name);

    /** All threads' events merged and sorted by start time. */
    std::vector<TraceEvent> collect() const;

    /** Total events overwritten across all rings. */
    std::uint64_t droppedEvents() const;

    /** Drop all recorded events (rings stay registered). */
    void reset();

  private:
    Tracer();

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<TraceRing>> rings_;
    int next_tid_ = 1;
};

/**
 * RAII span behind KODAN_TRACE_SCOPE. Armed while telemetry or the
 * profiling plane is on: it resolves its record through @p site (the
 * macro caches the registry lookup per call site), reads the steady
 * clock once at entry and once at exit, and reads the thread counters
 * around the scope only while the profiling plane is on. On exit it
 * writes calls, wall time and counter deltas into the record and, only
 * while telemetry is enabled, pushes a trace event with the same start
 * and duration. Disarmed, it costs two relaxed loads and allocates
 * nothing.
 */
class ScopedSpan
{
  public:
    template <typename Site>
    ScopedSpan(const char *name, Site &&site)
        : name_(name), trace_(enabled()),
          counters_(prof::countersEnabled())
    {
        if (!trace_ && !counters_) {
            return;
        }
        record_ = &site();
        counters_ = counters_ && prof::readThreadCounters(start_counters_);
        start_ = std::chrono::steady_clock::now();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (record_ == nullptr) {
            return;
        }
        const auto end = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(end - start_).count();
        prof::CounterReading end_counters;
        if (counters_ && prof::readThreadCounters(end_counters)) {
            record_->record(seconds, start_counters_, end_counters);
        } else {
            record_->record(seconds);
        }
        if (trace_) {
            Tracer::instance().recordSpan(name_, start_, end);
        }
    }

  private:
    const char *name_;
    Timer *record_ = nullptr;
    bool trace_;
    bool counters_;
    std::chrono::steady_clock::time_point start_;
    prof::CounterReading start_counters_;
};

} // namespace kodan::telemetry

#endif // KODAN_TELEMETRY_TRACE_HPP
