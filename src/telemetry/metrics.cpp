#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace kodan::telemetry {

namespace detail {

std::atomic<int> g_enabled{-1};

int
threadShard()
{
    static std::atomic<int> next_thread{0};
    thread_local const int shard =
        next_thread.fetch_add(1, std::memory_order_relaxed) %
        kMetricShards;
    return shard;
}

// Defined in telemetry.cpp (routes util::log Warn+ into the event
// stream); declared here so enable-time wiring stays in one place.
void installLogBridge();

namespace {

bool
envTruthy(const char *value)
{
    return value != nullptr &&
           (std::strcmp(value, "1") == 0 ||
            std::strcmp(value, "true") == 0 ||
            std::strcmp(value, "on") == 0);
}

} // namespace

bool
resolveEnabled()
{
    // Resolve once; a concurrent resolve settles on the same value
    // because the environment does not change under us.
    const bool on = envTruthy(std::getenv("KODAN_TELEMETRY"));
    int expected = -1;
    g_enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                      std::memory_order_relaxed);
    if (on) {
        installLogBridge();
    }
    return g_enabled.load(std::memory_order_relaxed) != 0;
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
    if (on) {
        detail::installLogBridge();
    }
}

std::int64_t
Counter::value() const
{
    std::int64_t total = 0;
    for (const auto &shard : shards_) {
        total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
}

void
Counter::reset()
{
    for (auto &shard : shards_) {
        shard.value.store(0, std::memory_order_relaxed);
    }
}

void
Gauge::set(double value)
{
    // Replace everything recorded so far: clear the accumulation shards
    // and store the new base. A serial-configuration write, not racing
    // concurrent add()s (see the class comment).
    for (auto &shard : shards_) {
        shard.reset();
    }
    base_.store(value, std::memory_order_relaxed);
}

double
Gauge::value() const
{
    detail::Fixed128 total;
    for (const auto &shard : shards_) {
        detail::addFixed(total, shard.read());
    }
    return base_.load(std::memory_order_relaxed) +
           detail::fromFixed(total);
}

void
Gauge::reset()
{
    set(0.0);
}

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)), shards_(kMetricShards)
{
    assert(std::is_sorted(edges_.begin(), edges_.end()));
    for (auto &shard : shards_) {
        shard.buckets =
            std::make_unique<std::atomic<std::int64_t>[]>(edges_.size() +
                                                          1);
    }
}

void
Histogram::record(double value)
{
    // Bucket = first edge strictly greater than the value; values at an
    // edge land in the bucket whose lower bound is that edge.
    const std::size_t bucket = static_cast<std::size_t>(
        std::upper_bound(edges_.begin(), edges_.end(), value) -
        edges_.begin());
    Shard &shard = shards_[static_cast<std::size_t>(
        detail::threadShard())];
    shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    shard.count.value.fetch_add(1, std::memory_order_relaxed);
    shard.sum.add(value);
}

std::vector<std::int64_t>
Histogram::bucketCounts() const
{
    std::vector<std::int64_t> totals(edges_.size() + 1, 0);
    for (const auto &shard : shards_) {
        for (std::size_t b = 0; b < totals.size(); ++b) {
            totals[b] += shard.buckets[b].load(std::memory_order_relaxed);
        }
    }
    return totals;
}

std::int64_t
Histogram::count() const
{
    std::int64_t total = 0;
    for (const auto &shard : shards_) {
        total += shard.count.value.load(std::memory_order_relaxed);
    }
    return total;
}

double
Histogram::sum() const
{
    detail::Fixed128 total;
    for (const auto &shard : shards_) {
        detail::addFixed(total, shard.sum.read());
    }
    return detail::fromFixed(total);
}

void
Histogram::reset()
{
    for (auto &shard : shards_) {
        for (std::size_t b = 0; b <= edges_.size(); ++b) {
            shard.buckets[b].store(0, std::memory_order_relaxed);
        }
        shard.count.value.store(0, std::memory_order_relaxed);
        shard.sum.reset();
    }
}

void
Timer::record(double seconds)
{
    Shard &shard = shards_[detail::threadShard()];
    shard.count.fetch_add(1, std::memory_order_relaxed);
    double total = shard.total.load(std::memory_order_relaxed);
    while (!shard.total.compare_exchange_weak(
        total, total + seconds, std::memory_order_relaxed)) {
    }
    double max = shard.max.load(std::memory_order_relaxed);
    while (seconds > max &&
           !shard.max.compare_exchange_weak(max, seconds,
                                            std::memory_order_relaxed)) {
    }
}

namespace {

void
addDelta(std::atomic<std::uint64_t> &column, std::uint64_t start,
         std::uint64_t end)
{
    if (end > start) {
        column.fetch_add(end - start, std::memory_order_relaxed);
    }
}

} // namespace

void
Timer::record(double seconds, const prof::CounterReading &start,
              const prof::CounterReading &end)
{
    record(seconds);
    Shard &shard = shards_[detail::threadShard()];
    addDelta(shard.cycles, start.cycles, end.cycles);
    addDelta(shard.instructions, start.instructions, end.instructions);
    addDelta(shard.llc_misses, start.llc_misses, end.llc_misses);
    addDelta(shard.branch_misses, start.branch_misses, end.branch_misses);
    addDelta(shard.task_clock_ns, start.task_clock_ns, end.task_clock_ns);
}

std::int64_t
Timer::count() const
{
    std::int64_t total = 0;
    for (const auto &shard : shards_) {
        total += shard.count.load(std::memory_order_relaxed);
    }
    return total;
}

double
Timer::totalSeconds() const
{
    double total = 0.0;
    for (const auto &shard : shards_) {
        total += shard.total.load(std::memory_order_relaxed);
    }
    return total;
}

double
Timer::maxSeconds() const
{
    double max = 0.0;
    for (const auto &shard : shards_) {
        max = std::max(max, shard.max.load(std::memory_order_relaxed));
    }
    return max;
}

prof::CounterReading
Timer::counterTotals() const
{
    prof::CounterReading total;
    for (const auto &shard : shards_) {
        total.cycles += shard.cycles.load(std::memory_order_relaxed);
        total.instructions +=
            shard.instructions.load(std::memory_order_relaxed);
        total.llc_misses += shard.llc_misses.load(std::memory_order_relaxed);
        total.branch_misses +=
            shard.branch_misses.load(std::memory_order_relaxed);
        total.task_clock_ns +=
            shard.task_clock_ns.load(std::memory_order_relaxed);
    }
    return total;
}

void
Timer::reset()
{
    for (auto &shard : shards_) {
        shard.count.store(0, std::memory_order_relaxed);
        shard.total.store(0.0, std::memory_order_relaxed);
        shard.max.store(0.0, std::memory_order_relaxed);
        shard.cycles.store(0, std::memory_order_relaxed);
        shard.instructions.store(0, std::memory_order_relaxed);
        shard.llc_misses.store(0, std::memory_order_relaxed);
        shard.branch_misses.store(0, std::memory_order_relaxed);
        shard.task_clock_ns.store(0, std::memory_order_relaxed);
    }
}

const MetricSample *
RegistrySnapshot::find(const std::string &name) const
{
    for (const auto &sample : metrics) {
        if (sample.name == name) {
            return &sample;
        }
    }
    return nullptr;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Counter>();
    }
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Gauge>();
    }
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> edges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Histogram>(std::move(edges));
    }
    return *slot;
}

Timer &
MetricsRegistry::timer(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = timers_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Timer>();
    }
    return *slot;
}

Timer &
MetricsRegistry::span(const std::string &name)
{
    Timer &record = timer(name);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(name);
    return record;
}

RegistrySnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RegistrySnapshot snap;
    for (const auto &[name, counter] : counters_) {
        MetricSample sample;
        sample.name = name;
        sample.kind = MetricSample::Kind::Counter;
        sample.count = counter->value();
        snap.metrics.push_back(std::move(sample));
    }
    for (const auto &[name, gauge] : gauges_) {
        MetricSample sample;
        sample.name = name;
        sample.kind = MetricSample::Kind::Gauge;
        sample.sum = gauge->value();
        snap.metrics.push_back(std::move(sample));
    }
    for (const auto &[name, histogram] : histograms_) {
        MetricSample sample;
        sample.name = name;
        sample.kind = MetricSample::Kind::Histogram;
        sample.count = histogram->count();
        sample.sum = histogram->sum();
        sample.edges = histogram->edges();
        sample.buckets = histogram->bucketCounts();
        snap.metrics.push_back(std::move(sample));
    }
    for (const auto &[name, timer] : timers_) {
        MetricSample sample;
        sample.name = name;
        sample.kind = MetricSample::Kind::Timer;
        sample.count = timer->count();
        sample.sum = timer->totalSeconds();
        sample.max = timer->maxSeconds();
        sample.span = spans_.count(name) != 0;
        sample.counters = timer->counterTotals();
        snap.metrics.push_back(std::move(sample));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_) {
        counter->reset();
    }
    for (auto &[name, gauge] : gauges_) {
        gauge->reset();
    }
    for (auto &[name, histogram] : histograms_) {
        histogram->reset();
    }
    for (auto &[name, timer] : timers_) {
        timer->reset();
    }
}

MetricsRegistry &
registry()
{
    // Leaked on purpose: metric references handed to call-site statics
    // must stay valid through every destructor and atexit handler.
    static MetricsRegistry *instance = new MetricsRegistry();
    return *instance;
}

} // namespace kodan::telemetry
