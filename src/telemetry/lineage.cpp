#include "telemetry/lineage.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "telemetry/export.hpp"

namespace kodan::telemetry {

namespace detail {

std::atomic<int> g_lineage_enabled{-1};

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
resolveLineageEnabled()
{
    const bool on = envTruthy(std::getenv("KODAN_LINEAGE"));
    int expected = -1;
    g_lineage_enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                              std::memory_order_relaxed);
    return g_lineage_enabled.load(std::memory_order_relaxed) != 0;
}

} // namespace detail

namespace {

/** One thread's span buffer (same shape as JournalBuffer). */
class LineageBuffer
{
  public:
    void push(const LineageSpan &span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span);
    }

    void collectInto(std::vector<LineageSpan> &out) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.insert(out.end(), spans_.begin(), spans_.end());
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.clear();
    }

  private:
    mutable std::mutex mutex_;
    std::vector<LineageSpan> spans_;
};

class LineageStore
{
  public:
    static LineageStore &instance()
    {
        // Leaked on purpose (thread_local pointers + atexit writers).
        static LineageStore *store = new LineageStore();
        return *store;
    }

    LineageBuffer &threadBuffer()
    {
        thread_local LineageBuffer *buffer = [this] {
            auto owned = std::make_unique<LineageBuffer>();
            LineageBuffer *raw = owned.get();
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::move(owned));
            return raw;
        }();
        return *buffer;
    }

    std::vector<LineageSpan> collect() const
    {
        std::vector<LineageSpan> spans;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            buffer->collectInto(spans);
        }
        std::sort(spans.begin(), spans.end(),
                  [](const LineageSpan &a, const LineageSpan &b) {
                      if (a.frame_id != b.frame_id) {
                          return a.frame_id < b.frame_id;
                      }
                      if (a.stage != b.stage) {
                          return a.stage < b.stage;
                      }
                      return a.t_s < b.t_s;
                  });
        return spans;
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            buffer->clear();
        }
    }

  private:
    LineageStore() = default;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<LineageBuffer>> buffers_;
};

} // namespace

const char *
lineageStageName(LineageStage stage)
{
    switch (stage) {
      case LineageStage::Captured:
        return "captured";
      case LineageStage::Decided:
        return "decided";
      case LineageStage::Enqueued:
        return "enqueued";
      case LineageStage::Contact:
        return "contact";
      case LineageStage::Downlinked:
        return "downlinked";
      case LineageStage::Received:
        return "received";
    }
    return "?";
}

bool
lineageStageFromName(const std::string &name, LineageStage &out)
{
    for (int i = 0; i < kLineageStageCount; ++i) {
        const auto stage = static_cast<LineageStage>(i);
        if (name == lineageStageName(stage)) {
            out = stage;
            return true;
        }
    }
    return false;
}

void
setLineageEnabled(bool on)
{
    detail::g_lineage_enabled.store(on ? 1 : 0,
                                    std::memory_order_relaxed);
}

void
recordLineageSpan(std::uint64_t frame_id, LineageStage stage, double t_s)
{
    if (!lineageEnabled()) {
        return;
    }
    LineageSpan span;
    span.frame_id = frame_id;
    span.stage = stage;
    span.t_s = t_s;
    LineageStore::instance().threadBuffer().push(span);
}

std::vector<LineageSpan>
collectLineage()
{
    return LineageStore::instance().collect();
}

void
clearLineage()
{
    LineageStore::instance().clear();
}

void
writeLineageJsonl(const std::vector<LineageSpan> &spans, std::ostream &os)
{
    os << "{\"kodan_lineage\": 1, \"spans\": " << spans.size() << "}\n";
    for (const LineageSpan &span : spans) {
        os << "{\"frame\": " << span.frame_id << ", \"sat\": "
           << lineageSatellite(span.frame_id) << ", \"ord\": "
           << lineageOrdinal(span.frame_id) << ", \"stage\": \""
           << lineageStageName(span.stage) << "\", \"t_s\": "
           << jsonNumber(span.t_s) << "}\n";
    }
}

double
FrameLineage::endToEndS() const
{
    return complete() ? at(LineageStage::Received) -
                            at(LineageStage::Captured)
                      : 0.0;
}

double
FrameLineage::dataAgeAtDownlinkS() const
{
    return stamped(LineageStage::Downlinked)
               ? at(LineageStage::Downlinked) - at(LineageStage::Captured)
               : 0.0;
}

double
FrameLineage::computeS() const
{
    return stamped(LineageStage::Decided)
               ? at(LineageStage::Decided) - at(LineageStage::Captured)
               : 0.0;
}

double
FrameLineage::contactWaitS() const
{
    if (!stamped(LineageStage::Contact) ||
        !stamped(LineageStage::Enqueued)) {
        return 0.0;
    }
    return std::max(0.0, at(LineageStage::Contact) -
                             at(LineageStage::Enqueued));
}

double
FrameLineage::queueWaitS() const
{
    if (!stamped(LineageStage::Downlinked) ||
        !stamped(LineageStage::Enqueued)) {
        return 0.0;
    }
    const double transmit_from =
        stamped(LineageStage::Contact)
            ? std::max(at(LineageStage::Enqueued),
                       at(LineageStage::Contact))
            : at(LineageStage::Enqueued);
    return std::max(0.0, at(LineageStage::Downlinked) - transmit_from);
}

std::vector<FrameLineage>
assembleLineage(const std::vector<LineageSpan> &spans)
{
    std::map<std::uint64_t, FrameLineage> by_frame;
    for (const LineageSpan &span : spans) {
        FrameLineage &frame = by_frame[span.frame_id];
        frame.frame_id = span.frame_id;
        const int stage = static_cast<int>(span.stage);
        frame.t[stage] = span.t_s;
        frame.has[stage] = true;
    }
    std::vector<FrameLineage> frames;
    frames.reserve(by_frame.size());
    for (const auto &[id, frame] : by_frame) {
        frames.push_back(frame);
    }
    return frames;
}

std::string
LineageStats::dominantStage() const
{
    if (downlinked <= 0) {
        return "none";
    }
    std::string name = "compute";
    double best = mean_compute_s;
    if (mean_contact_wait_s > best) {
        best = mean_contact_wait_s;
        name = "contact-wait";
    }
    if (mean_queue_wait_s > best) {
        name = "queue-wait";
    }
    return name;
}

LineageStats
summarizeLineage(const std::vector<FrameLineage> &frames)
{
    LineageStats stats;
    stats.frames = static_cast<std::int64_t>(frames.size());
    double sum_e2e = 0.0;
    double sum_age = 0.0;
    double sum_compute = 0.0;
    double sum_contact = 0.0;
    double sum_queue = 0.0;
    for (const FrameLineage &frame : frames) {
        if (!frame.stamped(LineageStage::Downlinked)) {
            continue;
        }
        ++stats.downlinked;
        const double e2e = frame.complete() ? frame.endToEndS()
                                            : frame.dataAgeAtDownlinkS();
        sum_e2e += e2e;
        stats.max_end_to_end_s = std::max(stats.max_end_to_end_s, e2e);
        sum_age += frame.dataAgeAtDownlinkS();
        sum_compute += frame.computeS();
        sum_contact += frame.contactWaitS();
        sum_queue += frame.queueWaitS();
    }
    if (stats.downlinked > 0) {
        const double n = static_cast<double>(stats.downlinked);
        stats.mean_end_to_end_s = sum_e2e / n;
        stats.mean_data_age_s = sum_age / n;
        stats.mean_compute_s = sum_compute / n;
        stats.mean_contact_wait_s = sum_contact / n;
        stats.mean_queue_wait_s = sum_queue / n;
    }
    return stats;
}

} // namespace kodan::telemetry
