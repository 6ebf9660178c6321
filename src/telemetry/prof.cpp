#include "telemetry/prof.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include <signal.h>
#include <time.h>

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/syscall.h>
#include <unistd.h>
#define KODAN_PROF_HAVE_SAMPLER 1
#else
#define KODAN_PROF_HAVE_SAMPLER 0
#endif

#if defined(__SANITIZE_THREAD__)
#define KODAN_PROF_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KODAN_PROF_TSAN 1
#endif
#endif
#ifndef KODAN_PROF_TSAN
#define KODAN_PROF_TSAN 0
#endif

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf_counters.hpp"
#include "util/thread_pool.hpp"

namespace kodan::telemetry::prof {

namespace {

/**
 * Per-thread sample storage: a flat word array of [depth, pc...]
 * records. Single writer (the owning thread, from signal context),
 * readers snapshot up to the release-stored `used` watermark, so a
 * record is visible only after all its words are. Drop-newest on
 * overflow with a counter.
 */
struct SampleRing
{
    std::vector<std::uintptr_t> words;
    std::atomic<std::size_t> used{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> dropped{0};
};

struct ThreadRec
{
    long tid = 0;
#if KODAN_PROF_HAVE_SAMPLER
    timer_t timer{};
#endif
    bool timer_ok = false;
    bool timer_armed = false;
    std::unique_ptr<SampleRing> ring;
};

std::mutex g_threads_mutex;
/** Owns every registered thread's state; rings are never freed so
 *  exited threads' samples stay collectable (same model as the trace
 *  rings). Leaked on purpose so the atexit exporter can still collect
 *  after static destruction begins. Guarded by g_threads_mutex. */
std::vector<std::unique_ptr<ThreadRec>> &
threadRecs()
{
    static auto *recs = new std::vector<std::unique_ptr<ThreadRec>>();
    return *recs;
}

std::atomic<bool> g_sampling{false};
std::atomic<bool> g_handler_installed{false};
std::atomic<int> g_period_us{1003};
std::atomic<int> g_max_depth{64};
std::atomic<std::size_t> g_ring_words{std::size_t{1} << 17};
std::atomic<std::uint64_t> g_unregistered_hits{0};

std::atomic<bool> g_prof_enabled{false};
std::atomic<int> g_hz_override{0};
std::mutex g_path_mutex;
std::string g_profile_path; // guarded by g_path_mutex

thread_local SampleRing *t_ring = nullptr;
thread_local ThreadRec *t_rec = nullptr;

#if KODAN_PROF_HAVE_SAMPLER

/** SIGPROF handler: signal-safe by construction — a backtrace() into a
 *  stack buffer (primed at startSampler), relaxed/release atomics on a
 *  pre-allocated ring, errno save/restore. Nothing else. */
void
samplerHandler(int /*signo*/, siginfo_t * /*info*/, void * /*ctx*/)
{
    const int saved_errno = errno;
    SampleRing *ring = t_ring;
    if (ring == nullptr) {
        // A queued signal can outlive its thread's unregistration.
        g_unregistered_hits.fetch_add(1, std::memory_order_relaxed);
        errno = saved_errno;
        return;
    }
    if (g_sampling.load(std::memory_order_relaxed)) {
        // +2: the two leading frames are this handler and the kernel's
        // signal trampoline; skip them so stacks start at the
        // interrupted frame.
        constexpr int kSkip = 2;
        void *frames[256];
        const int limit = std::min(
            g_max_depth.load(std::memory_order_relaxed) + kSkip, 256);
        int depth = ::backtrace(frames, limit);
        int skip = depth > kSkip ? kSkip : 0;
        const std::size_t need =
            static_cast<std::size_t>(depth - skip) + 1;
        const std::size_t used =
            ring->used.load(std::memory_order_relaxed);
        if (depth <= skip || used + need > ring->words.size()) {
            ring->dropped.fetch_add(1, std::memory_order_relaxed);
        } else {
            ring->words[used] =
                static_cast<std::uintptr_t>(depth - skip);
            for (int i = skip; i < depth; ++i) {
                ring->words[used + 1 +
                            static_cast<std::size_t>(i - skip)] =
                    reinterpret_cast<std::uintptr_t>(frames[i]);
            }
            ring->used.store(used + need, std::memory_order_release);
            ring->samples.fetch_add(1, std::memory_order_relaxed);
        }
    }
    errno = saved_errno;
}

void
setTimer(ThreadRec *rec, int period_us)
{
    if (!rec->timer_ok) {
        return;
    }
    itimerspec spec{};
    const long ns = static_cast<long>(period_us) * 1000L;
    spec.it_interval.tv_sec = ns / 1000000000L;
    spec.it_interval.tv_nsec = ns % 1000000000L;
    spec.it_value = spec.it_interval;
    timer_settime(rec->timer, 0, &spec, nullptr);
    rec->timer_armed = period_us != 0;
}

void
disarmTimer(ThreadRec *rec)
{
    if (!rec->timer_ok || !rec->timer_armed) {
        return;
    }
    itimerspec spec{};
    timer_settime(rec->timer, 0, &spec, nullptr);
    rec->timer_armed = false;
}

#endif // KODAN_PROF_HAVE_SAMPLER

/** Deletes the thread's timer at thread exit; the ring stays behind in
 *  threadRecs() so its samples remain collectable. */
struct ThreadExitGuard
{
    ~ThreadExitGuard()
    {
#if KODAN_PROF_HAVE_SAMPLER
        std::lock_guard<std::mutex> lock(g_threads_mutex);
        if (t_rec != nullptr && t_rec->timer_ok) {
            timer_delete(t_rec->timer);
            t_rec->timer_ok = false;
            t_rec->timer_armed = false;
        }
#endif
        // Clear the handler's view last: a still-queued SIGPROF after
        // timer_delete lands as an unregistered hit, not a ring push.
        t_ring = nullptr;
        t_rec = nullptr;
    }
};

void
workerStartHook()
{
    if (profilingEnabled()) {
        registerThisThread();
    }
}

/** foo.json -> foo<suffix>; anything else gets <suffix> appended. */
std::string
siblingPathFor(const std::string &path, const char *sibling)
{
    const std::string suffix = ".json";
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        return path.substr(0, path.size() - suffix.size()) + sibling;
    }
    return path + sibling;
}

#if KODAN_PROF_HAVE_SAMPLER

/** Return-address -> display name. backtrace() records the address
 *  after the call, so look up pc-1 to land inside the call site. ';'
 *  is the folded-stack separator, so it is scrubbed from names. */
std::string
symbolizePc(std::uintptr_t pc)
{
    std::string name;
    Dl_info info{};
    const void *lookup = reinterpret_cast<const void *>(pc - 1);
    if (dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
        int status = -1;
        char *demangled = abi::__cxa_demangle(info.dli_sname, nullptr,
                                              nullptr, &status);
        if (status == 0 && demangled != nullptr) {
            name = demangled;
        } else {
            name = info.dli_sname;
        }
        std::free(demangled);
    } else if (info.dli_fname != nullptr) {
        const char *base = std::strrchr(info.dli_fname, '/');
        std::ostringstream os;
        os << (base != nullptr ? base + 1 : info.dli_fname) << "+0x"
           << std::hex
           << (pc - reinterpret_cast<std::uintptr_t>(info.dli_fbase));
        name = os.str();
    } else {
        std::ostringstream os;
        os << "0x" << std::hex << pc;
        name = os.str();
    }
    std::replace(name.begin(), name.end(), ';', ':');
    return name;
}

#endif // KODAN_PROF_HAVE_SAMPLER

} // namespace

bool
samplerSupported()
{
#if KODAN_PROF_HAVE_SAMPLER && !KODAN_PROF_TSAN
    return true;
#else
    return false;
#endif
}

bool
samplingActive()
{
    return g_sampling.load(std::memory_order_relaxed);
}

void
registerThisThread()
{
#if KODAN_PROF_HAVE_SAMPLER
    if (!samplerSupported() || t_ring != nullptr) {
        return;
    }
    auto rec = std::make_unique<ThreadRec>();
    rec->tid = static_cast<long>(syscall(SYS_gettid));
    rec->ring = std::make_unique<SampleRing>();
    rec->ring->words.assign(
        g_ring_words.load(std::memory_order_relaxed), 0);

    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = static_cast<pid_t>(rec->tid);
    rec->timer_ok =
        timer_create(CLOCK_MONOTONIC, &sev, &rec->timer) == 0;

    ThreadRec *raw = nullptr;
    {
        std::lock_guard<std::mutex> lock(g_threads_mutex);
        threadRecs().push_back(std::move(rec));
        raw = threadRecs().back().get();
        t_rec = raw;
        t_ring = raw->ring.get();
        if (g_sampling.load(std::memory_order_relaxed)) {
            setTimer(raw, g_period_us.load(std::memory_order_relaxed));
        }
    }
    thread_local ThreadExitGuard guard;
    (void)guard;
#endif
}

bool
startSampler(const SamplerOptions &options)
{
    if (!samplerSupported()) {
        return false;
    }
#if KODAN_PROF_HAVE_SAMPLER
    if (g_sampling.load(std::memory_order_relaxed)) {
        return true;
    }
    const int hz = options.hz > 0 ? options.hz : 997;
    g_period_us.store(std::max(1, 1000000 / hz),
                      std::memory_order_relaxed);
    g_max_depth.store(std::clamp(options.max_depth, 4, 250),
                      std::memory_order_relaxed);
    g_ring_words.store(std::max<std::size_t>(options.ring_words, 1024),
                       std::memory_order_relaxed);

    // Prime libgcc's unwinder (first backtrace() may allocate) outside
    // signal context, once, before any handler can run.
    {
        void *prime[4];
        ::backtrace(prime, 4);
    }
    if (!g_handler_installed.exchange(true)) {
        struct sigaction sa{};
        sa.sa_sigaction = &samplerHandler;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        if (sigaction(SIGPROF, &sa, nullptr) != 0) {
            g_handler_installed.store(false);
            return false;
        }
    }
    registerThisThread();
    g_sampling.store(true, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(g_threads_mutex);
        for (auto &rec : threadRecs()) {
            if (rec->timer_ok && !rec->timer_armed) {
                setTimer(rec.get(),
                         g_period_us.load(std::memory_order_relaxed));
            }
        }
    }
    return true;
#else
    return false;
#endif
}

void
stopSampler()
{
#if KODAN_PROF_HAVE_SAMPLER
    if (!g_sampling.exchange(false, std::memory_order_relaxed)) {
        return;
    }
    std::lock_guard<std::mutex> lock(g_threads_mutex);
    for (auto &rec : threadRecs()) {
        disarmTimer(rec.get());
    }
#endif
}

ProfileSnapshot
snapshotProfile()
{
    ProfileSnapshot snapshot;
    snapshot.period_us = g_period_us.load(std::memory_order_relaxed);
    snapshot.unregistered_hits =
        g_unregistered_hits.load(std::memory_order_relaxed);
#if KODAN_PROF_HAVE_SAMPLER
    // Aggregate identical pc stacks first so each unique pc is
    // symbolized once.
    std::map<std::vector<std::uintptr_t>, std::uint64_t> pc_stacks;
    {
        std::lock_guard<std::mutex> lock(g_threads_mutex);
        snapshot.threads = threadRecs().size();
        for (const auto &rec : threadRecs()) {
            const SampleRing &ring = *rec->ring;
            snapshot.samples +=
                ring.samples.load(std::memory_order_relaxed);
            snapshot.dropped +=
                ring.dropped.load(std::memory_order_relaxed);
            const std::size_t used =
                ring.used.load(std::memory_order_acquire);
            std::size_t idx = 0;
            while (idx < used) {
                const std::size_t depth =
                    static_cast<std::size_t>(ring.words[idx]);
                if (depth == 0 || idx + 1 + depth > used) {
                    break;
                }
                std::vector<std::uintptr_t> stack(
                    ring.words.begin() +
                        static_cast<std::ptrdiff_t>(idx + 1),
                    ring.words.begin() +
                        static_cast<std::ptrdiff_t>(idx + 1 + depth));
                ++pc_stacks[std::move(stack)];
                idx += 1 + depth;
            }
        }
    }

    std::map<std::uintptr_t, std::string> symbols;
    std::map<std::string, FrameStat> frames;
    for (const auto &[pcs, count] : pc_stacks) {
        ProfileStack stack;
        stack.count = count;
        // The ring stores leaf-first (backtrace order); folded stacks
        // and the frame table want root-first.
        stack.frames.reserve(pcs.size());
        for (auto it = pcs.rbegin(); it != pcs.rend(); ++it) {
            auto cached = symbols.find(*it);
            if (cached == symbols.end()) {
                cached =
                    symbols.emplace(*it, symbolizePc(*it)).first;
            }
            stack.frames.push_back(cached->second);
        }
        std::set<std::string> seen;
        for (const std::string &frame : stack.frames) {
            if (seen.insert(frame).second) {
                frames[frame].total += count;
            }
        }
        frames[stack.frames.back()].self += count;
        snapshot.stacks.push_back(std::move(stack));
    }
    std::sort(snapshot.stacks.begin(), snapshot.stacks.end(),
              [](const ProfileStack &a, const ProfileStack &b) {
                  return a.frames < b.frames;
              });
    snapshot.frames.reserve(frames.size());
    for (auto &[name, stat] : frames) {
        stat.name = name;
        snapshot.frames.push_back(std::move(stat));
    }
    std::sort(snapshot.frames.begin(), snapshot.frames.end(),
              [](const FrameStat &a, const FrameStat &b) {
                  if (a.self != b.self) {
                      return a.self > b.self;
                  }
                  return a.name < b.name;
              });
#endif
    return snapshot;
}

void
resetProfile()
{
    std::lock_guard<std::mutex> lock(g_threads_mutex);
    for (auto &rec : threadRecs()) {
        SampleRing &ring = *rec->ring;
        ring.used.store(0, std::memory_order_relaxed);
        ring.samples.store(0, std::memory_order_relaxed);
        ring.dropped.store(0, std::memory_order_relaxed);
    }
    g_unregistered_hits.store(0, std::memory_order_relaxed);
}

void
writeFolded(const ProfileSnapshot &snapshot, std::ostream &os)
{
    for (const ProfileStack &stack : snapshot.stacks) {
        for (std::size_t i = 0; i < stack.frames.size(); ++i) {
            if (i != 0) {
                os << ';';
            }
            os << stack.frames[i];
        }
        os << ' ' << stack.count << '\n';
    }
}

void
writeProfileJson(const ProfileSnapshot &snapshot, std::ostream &os,
                 std::size_t top_frames)
{
    const RegistrySnapshot metrics = registry().snapshot();
    os << "{\"kodan_profile\": 1, \"period_us\": "
       << snapshot.period_us << ", \"samples\": " << snapshot.samples
       << ", \"dropped\": " << snapshot.dropped
       << ", \"unregistered_hits\": " << snapshot.unregistered_hits
       << ", \"threads\": " << snapshot.threads << ",\n \"frames\": [";
    const std::size_t count =
        std::min(top_frames, snapshot.frames.size());
    for (std::size_t i = 0; i < count; ++i) {
        const FrameStat &frame = snapshot.frames[i];
        if (i != 0) {
            os << ',';
        }
        os << "\n  {\"name\": \"" << jsonEscape(frame.name)
           << "\", \"self\": " << frame.self
           << ", \"total\": " << frame.total << "}";
    }
    // The span table: the KODAN_TRACE_SCOPE records of the metrics
    // registry (explicit Timer::record timers are not spans).
    os << "\n ],\n \"spans\": {\"source\": \"" << counterSourceName()
       << "\", \"rows\": [";
    bool first_row = true;
    for (const MetricSample &row : metrics.metrics) {
        if (!row.span) {
            continue;
        }
        os << (first_row ? "" : ",") << "\n  {\"name\": \""
           << jsonEscape(row.name) << "\", \"calls\": " << row.count
           << ", \"cycles\": " << row.counters.cycles
           << ", \"instructions\": " << row.counters.instructions
           << ", \"llc_misses\": " << row.counters.llc_misses
           << ", \"branch_misses\": " << row.counters.branch_misses
           << ", \"task_clock_ns\": " << row.counters.task_clock_ns << "}";
        first_row = false;
    }
    os << "\n ]}}\n";
}

bool
profilingEnabled()
{
    return g_prof_enabled.load(std::memory_order_relaxed);
}

void
setProfilingEnabled(bool on)
{
    if (on == profilingEnabled()) {
        return;
    }
    if (on) {
        g_prof_enabled.store(true, std::memory_order_relaxed);
        util::setWorkerStartHook(&workerStartHook);
        setCountersEnabled(true);
        if (samplerSupported()) {
            SamplerOptions options;
            const int hz =
                g_hz_override.load(std::memory_order_relaxed);
            if (hz > 0) {
                options.hz = hz;
            }
            startSampler(options);
        }
    } else {
        stopSampler();
        setCountersEnabled(false);
        g_prof_enabled.store(false, std::memory_order_relaxed);
    }
}

std::string
profileOutputPath()
{
    std::lock_guard<std::mutex> lock(g_path_mutex);
    return g_profile_path;
}

void
setProfileOutputPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(g_path_mutex);
    g_profile_path = path;
}

bool
configureFromEnv()
{
    if (const char *hz = std::getenv("KODAN_PROF_HZ")) {
        const int value = std::atoi(hz);
        if (value > 0) {
            g_hz_override.store(value, std::memory_order_relaxed);
        }
    }
    const char *env = std::getenv("KODAN_PROF");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0 ||
        std::strcmp(env, "false") == 0 || std::strcmp(env, "off") == 0) {
        return profilingEnabled();
    }
    if (std::strcmp(env, "1") != 0 && std::strcmp(env, "true") != 0 &&
        std::strcmp(env, "on") != 0) {
        // Path-like value doubles as the output path (KODAN_ALERTS
        // convention).
        setProfileOutputPath(env);
    }
    setProfilingEnabled(true);
    return true;
}

void
writeProfileOutputs()
{
    const ProfileSnapshot snapshot = snapshotProfile();
    const std::string path = profileOutputPath();
    if (path.empty()) {
        std::cerr << "[kodan-prof] " << snapshot.samples
                  << " sample(s) across " << snapshot.threads
                  << " thread(s), " << snapshot.dropped
                  << " dropped; counters: " << counterSourceName()
                  << " (set --profile-out <path> for the JSON + "
                     "folded stacks)\n";
        const std::size_t top =
            std::min<std::size_t>(5, snapshot.frames.size());
        for (std::size_t i = 0; i < top; ++i) {
            std::cerr << "[kodan-prof]   self=" << snapshot.frames[i].self
                      << " total=" << snapshot.frames[i].total << "  "
                      << snapshot.frames[i].name << "\n";
        }
        return;
    }
    std::ofstream profile_file(path);
    if (!profile_file) {
        std::cerr << "[kodan-prof] cannot write " << path << "\n";
    } else {
        writeProfileJson(snapshot, profile_file);
        std::cerr << "[kodan-prof] wrote profile (" << snapshot.samples
                  << " samples, counters: " << counterSourceName()
                  << ") to " << path << "\n";
    }
    const std::string folded_path = siblingPathFor(path, ".folded");
    std::ofstream folded_file(folded_path);
    if (!folded_file) {
        std::cerr << "[kodan-prof] cannot write " << folded_path
                  << "\n";
    } else {
        writeFolded(snapshot, folded_file);
        std::cerr << "[kodan-prof] wrote " << snapshot.stacks.size()
                  << " folded stack(s) to " << folded_path << "\n";
    }
}

} // namespace kodan::telemetry::prof
