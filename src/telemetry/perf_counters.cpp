#include "telemetry/perf_counters.hpp"

#include <cerrno>
#include <time.h>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define KODAN_PROF_HAVE_PERF_EVENT 1
#else
#define KODAN_PROF_HAVE_PERF_EVENT 0
#endif

namespace kodan::telemetry::prof {

namespace detail {

std::atomic<int> g_counters_enabled{0};

} // namespace detail

namespace {

/** -1 unresolved, else static_cast<int>(CounterSource). */
std::atomic<int> g_source{static_cast<int>(CounterSource::Unresolved)};
std::atomic<int> g_force_errno{0};
std::atomic<int> g_open_errno{0};

/** Number of group members: task-clock leader + four hardware events.
 *  Creation order fixes the read() layout below. */
constexpr int kGroupSize = 5;

std::uint64_t
threadClockNs()
{
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
        return 0;
    }
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

#if KODAN_PROF_HAVE_PERF_EVENT

int
perfEventOpen(perf_event_attr *attr, int group_fd)
{
    const int forced = g_force_errno.load(std::memory_order_relaxed);
    if (forced != 0) {
        errno = forced;
        return -1;
    }
    return static_cast<int>(syscall(SYS_perf_event_open, attr,
                                    /*pid=*/0, /*cpu=*/-1, group_fd,
                                    /*flags=*/0UL));
}

#endif // KODAN_PROF_HAVE_PERF_EVENT

/**
 * Per-thread counter file descriptors. Opened lazily on the first
 * readThreadCounters() call in each thread (never from a signal
 * handler); closed when the thread exits. A failed open — or a process
 * already resolved to the rusage source — leaves hw=false and the
 * thread reads the software clock instead.
 */
struct ThreadCounters
{
    bool tried = false;
    bool hw = false;
    int fds[kGroupSize] = {-1, -1, -1, -1, -1};

    ~ThreadCounters() { close(); }

    void close()
    {
#if KODAN_PROF_HAVE_PERF_EVENT
        for (int i = kGroupSize - 1; i >= 0; --i) {
            if (fds[i] >= 0) {
                ::close(fds[i]);
                fds[i] = -1;
            }
        }
#endif
        hw = false;
    }

    void open()
    {
        tried = true;
#if KODAN_PROF_HAVE_PERF_EVENT
        // Once one thread resolved to the software source, keep the
        // whole table homogeneous: mixing ns-only rows with
        // hardware rows would make the columns incomparable.
        if (g_source.load(std::memory_order_relaxed) ==
            static_cast<int>(CounterSource::Rusage)) {
            return;
        }
        struct Spec
        {
            std::uint32_t type;
            std::uint64_t config;
        };
        // Leader first: task-clock is a software event the kernel can
        // always schedule, so the hardware members ride in its group.
        static const Spec kSpecs[kGroupSize] = {
            {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
        };
        for (int i = 0; i < kGroupSize; ++i) {
            perf_event_attr attr{};
            attr.size = sizeof(attr);
            attr.type = kSpecs[i].type;
            attr.config = kSpecs[i].config;
            attr.read_format = PERF_FORMAT_GROUP;
            attr.exclude_kernel = 1;
            attr.exclude_hv = 1;
            fds[i] = perfEventOpen(&attr, i == 0 ? -1 : fds[0]);
            if (fds[i] < 0) {
                // All-or-nothing: a partial group (e.g. no LLC event
                // in a VM) would silently zero some columns, which is
                // exactly what the rusage marker exists to prevent.
                int expected = 0;
                g_open_errno.compare_exchange_strong(
                    expected, errno, std::memory_order_relaxed);
                close();
                resolve(CounterSource::Rusage);
                return;
            }
        }
        hw = true;
        resolve(CounterSource::PerfEvent);
#else
        resolve(CounterSource::Rusage);
#endif
    }

    static void resolve(CounterSource source)
    {
        int expected = static_cast<int>(CounterSource::Unresolved);
        g_source.compare_exchange_strong(expected,
                                         static_cast<int>(source),
                                         std::memory_order_relaxed);
    }

    bool read(CounterReading &out)
    {
        if (!tried) {
            open();
        }
#if KODAN_PROF_HAVE_PERF_EVENT
        if (hw) {
            struct
            {
                std::uint64_t nr;
                std::uint64_t values[kGroupSize];
            } buf{};
            const ssize_t got = ::read(fds[0], &buf, sizeof(buf));
            if (got == static_cast<ssize_t>(sizeof(buf)) &&
                buf.nr == kGroupSize) {
                out.task_clock_ns = buf.values[0];
                out.cycles = buf.values[1];
                out.instructions = buf.values[2];
                out.llc_misses = buf.values[3];
                out.branch_misses = buf.values[4];
                return true;
            }
            // A failing read (fd revoked, etc.) demotes this thread to
            // the software clock rather than returning zeros.
            close();
        }
#endif
        out = CounterReading{};
        out.task_clock_ns = threadClockNs();
        return true;
    }
};

thread_local ThreadCounters t_counters;

} // namespace

void
setCountersEnabled(bool on)
{
    detail::g_counters_enabled.store(on ? 1 : 0,
                                     std::memory_order_relaxed);
}

CounterSource
counterSource()
{
    const int state = g_source.load(std::memory_order_relaxed);
    if (state != static_cast<int>(CounterSource::Unresolved)) {
        return static_cast<CounterSource>(state);
    }
    // Resolve by opening on the calling thread (flush-time callers).
    CounterReading probe;
    readThreadCounters(probe);
    return static_cast<CounterSource>(
        g_source.load(std::memory_order_relaxed));
}

const char *
counterSourceName()
{
    switch (counterSource()) {
    case CounterSource::PerfEvent:
        return "perf_event";
    case CounterSource::Rusage:
        return "rusage";
    case CounterSource::Unresolved:
        break;
    }
    return "unresolved";
}

void
setPerfForceErrnoForTest(int err)
{
    g_force_errno.store(err, std::memory_order_relaxed);
    if (err != 0) {
        // Let the next open re-resolve so a fresh thread exercises the
        // forced failure instead of inheriting the previous verdict.
        g_source.store(static_cast<int>(CounterSource::Unresolved),
                       std::memory_order_relaxed);
        g_open_errno.store(0, std::memory_order_relaxed);
    }
}

int
perfOpenErrno()
{
    return g_open_errno.load(std::memory_order_relaxed);
}

bool
readThreadCounters(CounterReading &out)
{
    return t_counters.read(out);
}

} // namespace kodan::telemetry::prof
