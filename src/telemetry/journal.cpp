#include "telemetry/journal.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>

#include "telemetry/export.hpp"

namespace kodan::telemetry {

namespace detail {

std::atomic<int> g_journal_enabled{-1};

JournalCursor &
journalCursor()
{
    thread_local JournalCursor cursor;
    return cursor;
}

namespace {

bool
envTruthy(const char *value)
{
    return value != nullptr &&
           (std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0 ||
            std::strcmp(value, "on") == 0);
}

} // namespace

bool
resolveJournalEnabled()
{
    const bool on = envTruthy(std::getenv("KODAN_JOURNAL"));
    int expected = -1;
    g_journal_enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                              std::memory_order_relaxed);
    return g_journal_enabled.load(std::memory_order_relaxed) != 0;
}

} // namespace detail

namespace {

/**
 * Append one event as a JSON object minus its opening brace (no seq, no
 * trailing newline):
 * "region": R, "slot": S, "ord": O, "type": "...", "fields": {...}}.
 * Shared by the sorted JSONL export and the live stream tap so both
 * produce identical field formatting.
 */
void
appendJournalEventBody(std::string &out, const JournalEvent &event)
{
    out += "\"region\": ";
    out += std::to_string(event.region);
    out += ", \"slot\": ";
    out += std::to_string(event.slot);
    out += ", \"ord\": ";
    out += std::to_string(event.ord);
    out += ", \"type\": \"";
    appendJsonEscaped(out, event.type);
    out += "\", \"fields\": {";
    for (std::size_t i = 0; i < event.fields.size(); ++i) {
        const JournalField &field = event.fields[i];
        out += i > 0 ? ", \"" : "\"";
        appendJsonEscaped(out, field.name);
        out += "\": ";
        switch (field.kind) {
          case JournalField::Kind::Int:
            out += std::to_string(field.i);
            break;
          case JournalField::Kind::Float:
            appendNumber(out, field.f);
            break;
          case JournalField::Kind::Text:
            out += '"';
            appendJsonEscaped(out, field.s);
            out += '"';
            break;
        }
    }
    out += "}}";
}

/**
 * One thread's append buffer. Only the owning thread pushes; the mutex
 * makes collect()/clear() from other threads race-free (same shape as
 * TraceRing). Ring capacity is read from the shared atomic at push time
 * so mode changes apply to existing buffers.
 */
class JournalBuffer
{
  public:
    void push(JournalEvent event, std::size_t capacity)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (capacity > 0) {
            while (events_.size() >= capacity) {
                events_.pop_front();
                ++dropped_;
            }
        }
        events_.push_back(std::move(event));
    }

    void collectInto(std::vector<JournalEvent> &out) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.insert(out.end(), events_.begin(), events_.end());
    }

    std::uint64_t dropped() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return dropped_;
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.clear();
        dropped_ = 0;
    }

  private:
    mutable std::mutex mutex_;
    std::deque<JournalEvent> events_;
    std::uint64_t dropped_ = 0;
};

/**
 * Owns every thread's buffer (never freed, so exiting pool workers
 * leave their events collectable) and the region counter.
 */
class JournalStore
{
  public:
    static JournalStore &instance()
    {
        // Leaked on purpose: thread_local buffer pointers and atexit
        // writers must outlive static destruction order.
        static JournalStore *store = new JournalStore();
        return *store;
    }

    JournalBuffer &threadBuffer()
    {
        thread_local JournalBuffer *buffer = [this] {
            auto owned = std::make_unique<JournalBuffer>();
            JournalBuffer *raw = owned.get();
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::move(owned));
            return raw;
        }();
        return *buffer;
    }

    std::uint64_t nextRegion()
    {
        return next_region_.fetch_add(1, std::memory_order_relaxed);
    }

    std::vector<JournalEvent> collect() const
    {
        std::vector<JournalEvent> events;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            buffer->collectInto(events);
        }
        std::sort(events.begin(), events.end(), journalEventBefore);
        return events;
    }

    std::uint64_t dropped() const
    {
        std::uint64_t total = 0;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            total += buffer->dropped();
        }
        return total;
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            buffer->clear();
        }
        next_region_.store(1, std::memory_order_relaxed);
    }

    void setRingCapacity(std::size_t capacity)
    {
        ring_capacity_.store(capacity, std::memory_order_relaxed);
        ring_resolved_.store(true, std::memory_order_relaxed);
    }

    void setStreamPath(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(stream_mutex_);
        stream_.reset();
        if (!path.empty()) {
            stream_ = std::make_unique<std::ofstream>(
                path, std::ios::out | std::ios::app);
        }
        stream_on_.store(stream_ != nullptr && !!*stream_,
                         std::memory_order_relaxed);
        stream_resolved_.store(true, std::memory_order_relaxed);
    }

    bool streamOn()
    {
        if (!stream_resolved_.load(std::memory_order_relaxed)) {
            const char *env = std::getenv("KODAN_JOURNAL_STREAM");
            setStreamPath(env != nullptr ? env : "");
        }
        return stream_on_.load(std::memory_order_relaxed);
    }

    void streamEvent(const JournalEvent &event)
    {
        std::lock_guard<std::mutex> lock(stream_mutex_);
        if (stream_ == nullptr || !*stream_) {
            return;
        }
        std::string line = "{";
        appendJournalEventBody(line, event);
        line += '\n';
        *stream_ << line;
        stream_->flush();
    }

    std::size_t ringCapacity()
    {
        if (!ring_resolved_.load(std::memory_order_relaxed)) {
            std::size_t from_env = 0;
            if (const char *env = std::getenv("KODAN_JOURNAL_RING")) {
                from_env = static_cast<std::size_t>(
                    std::strtoull(env, nullptr, 10));
            }
            setRingCapacity(from_env);
        }
        return ring_capacity_.load(std::memory_order_relaxed);
    }

  private:
    JournalStore() = default;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<JournalBuffer>> buffers_;
    std::atomic<std::uint64_t> next_region_{1};
    std::atomic<std::size_t> ring_capacity_{0};
    std::atomic<bool> ring_resolved_{false};
    std::mutex stream_mutex_;
    std::unique_ptr<std::ofstream> stream_;
    std::atomic<bool> stream_on_{false};
    std::atomic<bool> stream_resolved_{false};
};

int
compareFields(const std::vector<JournalField> &a,
              const std::vector<JournalField> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].name != b[i].name) {
            return a[i].name < b[i].name ? -1 : 1;
        }
        if (a[i].kind != b[i].kind) {
            return a[i].kind < b[i].kind ? -1 : 1;
        }
        if (a[i].i != b[i].i) {
            return a[i].i < b[i].i ? -1 : 1;
        }
        if (a[i].f != b[i].f) {
            return a[i].f < b[i].f ? -1 : 1;
        }
        if (a[i].s != b[i].s) {
            return a[i].s < b[i].s ? -1 : 1;
        }
    }
    if (a.size() != b.size()) {
        return a.size() < b.size() ? -1 : 1;
    }
    return 0;
}

} // namespace

bool
journalEventBefore(const JournalEvent &a, const JournalEvent &b)
{
    if (a.region != b.region) {
        return a.region < b.region;
    }
    if (a.slot != b.slot) {
        return a.slot < b.slot;
    }
    if (a.ord != b.ord) {
        return a.ord < b.ord;
    }
    // Ambient events (no scope) can collide on the key; fall back to a
    // total order over content so the export is still reproducible when
    // the colliding events themselves are deterministic.
    if (a.type != b.type) {
        return a.type < b.type;
    }
    return compareFields(a.fields, b.fields) < 0;
}

void
setJournalEnabled(bool on)
{
    detail::g_journal_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void
setJournalRingCapacity(std::size_t events_per_thread)
{
    JournalStore::instance().setRingCapacity(events_per_thread);
}

std::size_t
journalRingCapacity()
{
    return JournalStore::instance().ringCapacity();
}

void
setJournalStreamPath(const std::string &path)
{
    JournalStore::instance().setStreamPath(path);
}

JournalRegion::JournalRegion(const char *name)
{
    if (!journalEnabled()) {
        return;
    }
    JournalStore &store = JournalStore::instance();
    id_ = store.nextRegion();
    active_ = true;
    detail::JournalCursor &cursor = detail::journalCursor();
    saved_ = cursor;
    cursor = {id_, 0, 0};
    JournalEventBuilder(
        (std::string(name) + ".begin").c_str());
}

JournalRegion::~JournalRegion()
{
    if (active_) {
        detail::journalCursor() = saved_;
    }
}

JournalScope::JournalScope(std::uint64_t region, std::uint64_t index)
{
    if (region == 0 || !journalEnabled()) {
        return;
    }
    active_ = true;
    detail::JournalCursor &cursor = detail::journalCursor();
    saved_ = cursor;
    cursor = {region, index + 1, 0};
}

JournalScope::JournalScope(std::uint64_t region, std::uint64_t index,
                           std::uint32_t resume_ord)
{
    if (region == 0 || !journalEnabled()) {
        return;
    }
    active_ = true;
    detail::JournalCursor &cursor = detail::journalCursor();
    saved_ = cursor;
    cursor = {region, index + 1, resume_ord};
}

JournalScope::~JournalScope()
{
    if (active_) {
        detail::journalCursor() = saved_;
    }
}

std::uint32_t
journalScopeOrd()
{
    if (!journalEnabled()) {
        return 0;
    }
    return detail::journalCursor().ord;
}

JournalEventBuilder::JournalEventBuilder(const char *type)
{
    if (!journalEnabled()) {
        return;
    }
    active_ = true;
    detail::JournalCursor &cursor = detail::journalCursor();
    event_.region = cursor.region;
    event_.slot = cursor.slot;
    event_.ord = cursor.ord++;
    event_.type = type;
}

JournalEventBuilder::~JournalEventBuilder()
{
    if (!active_) {
        return;
    }
    JournalStore &store = JournalStore::instance();
    if (store.streamOn()) {
        store.streamEvent(event_);
    }
    store.threadBuffer().push(std::move(event_), store.ringCapacity());
}

JournalEventBuilder &
JournalEventBuilder::i64(const char *name, std::int64_t value)
{
    if (active_) {
        JournalField field;
        field.name = name;
        field.kind = JournalField::Kind::Int;
        field.i = value;
        event_.fields.push_back(std::move(field));
    }
    return *this;
}

JournalEventBuilder &
JournalEventBuilder::f64(const char *name, double value)
{
    if (active_) {
        JournalField field;
        field.name = name;
        field.kind = JournalField::Kind::Float;
        field.f = value;
        event_.fields.push_back(std::move(field));
    }
    return *this;
}

JournalEventBuilder &
JournalEventBuilder::text(const char *name, std::string value)
{
    if (active_) {
        JournalField field;
        field.name = name;
        field.kind = JournalField::Kind::Text;
        field.s = std::move(value);
        event_.fields.push_back(std::move(field));
    }
    return *this;
}

std::vector<JournalEvent>
collectJournal()
{
    return JournalStore::instance().collect();
}

std::uint64_t
journalDroppedEvents()
{
    return JournalStore::instance().dropped();
}

void
clearJournal()
{
    JournalStore::instance().clear();
}

void
writeJournalJsonl(const std::vector<JournalEvent> &events,
                  std::uint64_t dropped, std::ostream &os)
{
    os << "{\"kodan_journal\": 1, \"events\": " << events.size()
       << ", \"dropped\": " << dropped << "}\n";
    // One reused line buffer, one write per event: the export never
    // holds more than one event's text.
    std::string line;
    for (std::size_t seq = 0; seq < events.size(); ++seq) {
        line.assign("{\"seq\": ");
        line += std::to_string(seq);
        line += ", ";
        appendJournalEventBody(line, events[seq]);
        line += '\n';
        os.write(line.data(), static_cast<std::streamsize>(line.size()));
    }
}

} // namespace kodan::telemetry
