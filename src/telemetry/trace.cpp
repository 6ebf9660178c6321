#include "telemetry/trace.hpp"

#include <algorithm>

namespace kodan::telemetry {

TraceRing::TraceRing(int tid, std::size_t capacity)
    : ring_(capacity), capacity_(capacity), tid_(tid)
{
}

void
TraceRing::push(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) {
        ++size_;
    } else {
        ++dropped_;
    }
}

std::vector<TraceEvent>
TraceRing::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(size_);
    const std::size_t first = (head_ + capacity_ - size_) % capacity_;
    for (std::size_t i = 0; i < size_; ++i) {
        out.push_back(ring_[(first + i) % capacity_]);
    }
    return out;
}

std::uint64_t
TraceRing::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
TraceRing::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now())
{
}

Tracer &
Tracer::instance()
{
    // Leaked on purpose: rings referenced from thread_locals and atexit
    // exporters must outlive every other destructor.
    static Tracer *tracer = new Tracer();
    return *tracer;
}

TraceRing &
Tracer::threadRing()
{
    thread_local TraceRing *ring = [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        rings_.push_back(
            std::make_unique<TraceRing>(next_tid_++, kRingCapacity));
        return rings_.back().get();
    }();
    return *ring;
}

void
Tracer::recordSpan(const char *name,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end)
{
    using Micros = std::chrono::duration<double, std::micro>;
    TraceEvent event;
    event.name = name;
    event.start_us = Micros(start - epoch_).count();
    event.dur_us = Micros(end - start).count();
    TraceRing &ring = threadRing();
    event.tid = ring.tid();
    ring.push(std::move(event));
}

void
Tracer::recordInstant(std::string name)
{
    TraceEvent event;
    event.name = std::move(name);
    event.start_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
    event.dur_us = -1.0;
    TraceRing &ring = threadRing();
    event.tid = ring.tid();
    ring.push(std::move(event));
}

std::vector<TraceEvent>
Tracer::collect() const
{
    std::vector<TraceEvent> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &ring : rings_) {
            auto events = ring->events();
            all.insert(all.end(),
                       std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.start_us < b.start_us;
                     });
    return all;
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &ring : rings_) {
        total += ring->dropped();
    }
    return total;
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &ring : rings_) {
        ring->clear();
    }
}

} // namespace kodan::telemetry
