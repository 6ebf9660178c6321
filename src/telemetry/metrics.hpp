/**
 * @file
 * Process-wide metrics registry: counters, gauges, fixed-bucket
 * histograms, and timers.
 *
 * Hot-path writes go to lock-free per-thread shards (cache-line-padded
 * relaxed atomics indexed by a stable per-thread shard id), so
 * instrumented code running under `util::ThreadPool` never contends on
 * a registry lock. Snapshots merge the shards deterministically — in
 * shard-index order — so every integer-valued reading (counter values,
 * histogram bucket counts, timer call counts) is an exact sum that is
 * invariant to thread count and interleaving. Floating-point
 * accumulations (gauge adds, histogram sums) go through the
 * order-invariant fixed-point accumulator in exact_sum.hpp, so they are
 * *also* deterministic: the merged value depends only on the multiset
 * of recorded values, never on which thread fed which shard. Only timer
 * durations remain plain double sums — they read the wall clock and are
 * nondeterministic at the source.
 *
 * A timer is also the one record behind each `KODAN_TRACE_SCOPE` span:
 * the span writes its calls, wall time and (while the profiling plane
 * is on) thread-counter deltas into one shard of it, and the metrics
 * snapshot's timer rows, the profile's span table and — through the
 * same clock reads — the Chrome trace are views of that record.
 *
 * Telemetry is OFF by default. It costs one relaxed atomic load per
 * instrumentation site while disabled (see `enabled()`).
 */

#ifndef KODAN_TELEMETRY_METRICS_HPP
#define KODAN_TELEMETRY_METRICS_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "telemetry/exact_sum.hpp"
#include "telemetry/perf_counters.hpp"

namespace kodan::telemetry {

/** Per-thread shard slots per metric (threads hash onto these). */
constexpr int kMetricShards = 16;

namespace detail {

/** Stable shard index of the calling thread, in [0, kMetricShards). */
int threadShard();

/** One cache line holding one integer accumulator. */
struct alignas(64) IntShard
{
    std::atomic<std::int64_t> value{0};
};

/** Enable-state cell: -1 unresolved, 0 disabled, 1 enabled. */
extern std::atomic<int> g_enabled;

/** Resolve the KODAN_TELEMETRY environment toggle (first call only). */
bool resolveEnabled();

} // namespace detail

/**
 * Is telemetry recording enabled? Resolved from the KODAN_TELEMETRY
 * environment variable ("1"/"true"/"on") on first call; overridable via
 * setEnabled(). One relaxed load on the fast path.
 */
inline bool
enabled()
{
    const int state = detail::g_enabled.load(std::memory_order_relaxed);
    if (state >= 0) {
        return state != 0;
    }
    return detail::resolveEnabled();
}

/** Turn recording on or off in-process (tests, CLI flags). */
void setEnabled(bool on);

/**
 * Monotonically increasing integer total (events, items, bytes).
 */
class Counter
{
  public:
    /** Add @p delta to the calling thread's shard. */
    void add(std::int64_t delta)
    {
        shards_[detail::threadShard()].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    /** Deterministic total: shard sums in shard-index order. */
    std::int64_t value() const;

    /** Zero every shard. */
    void reset();

  private:
    detail::IntShard shards_[kMetricShards];
};

/**
 * A floating-point level: `set()` for sampled values (config, sizes),
 * `add()` for accumulated quantities (seconds, bits). Accumulation is
 * sharded through the order-invariant fixed-point accumulator
 * (exact_sum.hpp), so the merged value is deterministic at any
 * KODAN_THREADS. `set()` replaces everything accumulated so far; it is
 * for serial configuration-style writes, not hot paths.
 */
class Gauge
{
  public:
    void set(double value);

    void add(double delta)
    {
        shards_[detail::threadShard()].add(delta);
    }

    /** base (last set) + the exact fixed-point sum of every add. */
    double value() const;

    void reset();

  private:
    std::atomic<double> base_{0.0};
    detail::ExactShard shards_[kMetricShards];
};

/**
 * Fixed-bucket histogram. Bucket i counts values v with
 * edges[i-1] <= v < edges[i]; bucket edges.size() is the overflow
 * bucket. Edges are fixed at registration, so merges are element-wise
 * integer sums (deterministic).
 */
class Histogram
{
  public:
    /** @param edges Strictly increasing bucket upper bounds. */
    explicit Histogram(std::vector<double> edges);

    void record(double value);

    const std::vector<double> &edges() const { return edges_; }

    /** Per-bucket totals (edges.size() + 1 entries). */
    std::vector<std::int64_t> bucketCounts() const;

    /** Total recorded values. */
    std::int64_t count() const;

    /** Sum of recorded values (order-invariant fixed-point; see
     *  exact_sum.hpp — deterministic at any thread count). */
    double sum() const;

    void reset();

  private:
    struct Shard
    {
        std::unique_ptr<std::atomic<std::int64_t>[]> buckets;
        detail::IntShard count;
        detail::ExactShard sum;
    };

    std::vector<double> edges_;
    std::vector<Shard> shards_;
};

/**
 * Duration accumulator: call count, total seconds, max seconds, and the
 * thread-counter deltas a `KODAN_TRACE_SCOPE` span charges while the
 * profiling plane is on. Each shard is one cache line.
 */
class Timer
{
  public:
    void record(double seconds);

    /** record(@p seconds) plus @p end - @p start per counter column
     *  (saturating at 0). */
    void record(double seconds, const prof::CounterReading &start,
                const prof::CounterReading &end);

    std::int64_t count() const;
    double totalSeconds() const;
    double maxSeconds() const;
    prof::CounterReading counterTotals() const;

    void reset();

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::int64_t> count{0};
        std::atomic<double> total{0.0};
        std::atomic<double> max{0.0};
        std::atomic<std::uint64_t> cycles{0};
        std::atomic<std::uint64_t> instructions{0};
        std::atomic<std::uint64_t> llc_misses{0};
        std::atomic<std::uint64_t> branch_misses{0};
        std::atomic<std::uint64_t> task_clock_ns{0};
    };

    Shard shards_[kMetricShards];
};

/** One metric's merged reading. */
struct MetricSample
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
        Timer,
    };

    std::string name;
    Kind kind = Kind::Counter;
    /** Counter value / histogram count / timer call count. */
    std::int64_t count = 0;
    /** Gauge value / histogram sum / timer total seconds. */
    double sum = 0.0;
    /** Timer max seconds. */
    double max = 0.0;
    /** Timer recorded by a KODAN_TRACE_SCOPE span: a row of the
     *  profile's span table, with its counter totals. */
    bool span = false;
    prof::CounterReading counters;
    /** Histogram only. */
    std::vector<double> edges;
    std::vector<std::int64_t> buckets;
};

/** Point-in-time merged view of every registered metric. */
struct RegistrySnapshot
{
    /** Samples sorted by metric name. */
    std::vector<MetricSample> metrics;

    /** The sample named @p name, or nullptr. */
    const MetricSample *find(const std::string &name) const;
};

/**
 * Owns every metric. Registration is mutex-guarded and
 * idempotent-by-name; returned references stay valid for the process
 * lifetime (reset() zeroes values, never removes metrics). Call sites
 * cache the reference in a function-local static (the macros in
 * telemetry.hpp do this), so the lock is taken once per site.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** @param edges Used on first registration of @p name only. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> edges);
    Timer &timer(const std::string &name);
    /** The timer behind the KODAN_TRACE_SCOPE span @p name. */
    Timer &span(const std::string &name);

    /** Merged view of all metrics, sorted by name. */
    RegistrySnapshot snapshot() const;

    /** Zero every metric (registrations persist). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::unique_ptr<Timer>> timers_;
    std::set<std::string> spans_;
};

/** The process-wide registry. */
MetricsRegistry &registry();

} // namespace kodan::telemetry

#endif // KODAN_TELEMETRY_METRICS_HPP
