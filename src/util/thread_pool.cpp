#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

namespace kodan::util {

namespace {

std::atomic<void (*)()> g_worker_start_hook{nullptr};

/** Run the installed worker-start hook (no-op when none). */
void
runWorkerStartHook()
{
    if (void (*hook)() =
            g_worker_start_hook.load(std::memory_order_acquire)) {
        hook();
    }
}

} // namespace

void
setWorkerStartHook(void (*hook)())
{
    g_worker_start_hook.store(hook, std::memory_order_release);
}

ThreadPool::ThreadPool(int threads)
{
    const int count = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        workers_.emplace_back([this] {
            runWorkerStartHook();
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                // stopping_ with a drained queue: exit.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::runBatch(std::size_t count,
                     const std::function<void(std::size_t)> &task)
{
    if (count == 0) {
        return;
    }

    // Shared batch state; tasks may outlive this stack frame only if the
    // caller stops waiting, which cannot happen (we block below), but the
    // shared_ptr keeps the destruction-while-busy path trivially safe.
    struct Batch
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t count;
        const std::function<void(std::size_t)> *task;
        std::mutex mutex;
        std::condition_variable finished;
        std::exception_ptr error;
    };
    auto batch = std::make_shared<Batch>();
    batch->count = count;
    batch->task = &task;

    auto drain = [](const std::shared_ptr<Batch> &b) {
        while (true) {
            const std::size_t i =
                b->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= b->count) {
                return;
            }
            try {
                (*b->task)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(b->mutex);
                if (!b->error) {
                    b->error = std::current_exception();
                }
            }
            if (b->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                b->count) {
                std::lock_guard<std::mutex> lock(b->mutex);
                b->finished.notify_all();
            }
        }
    };

    // One helper per worker is enough: each helper loops until the index
    // space is exhausted.
    const std::size_t helpers =
        std::max<std::size_t>(1, std::min(count, workers_.size()));
    for (std::size_t h = 0; h + 1 < helpers; ++h) {
        enqueue([batch, drain] { drain(batch); });
    }
    // The calling thread participates, so progress never depends on pool
    // capacity and nested batches cannot deadlock.
    drain(batch);

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->finished.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) ==
               batch->count;
    });
    if (batch->error) {
        std::rethrow_exception(batch->error);
    }
}

namespace {

int
environmentThreads()
{
    if (const char *env = std::getenv("KODAN_THREADS")) {
        try {
            return std::max(1, std::stoi(env));
        } catch (...) {
            // Fall through to hardware concurrency on unparsable values.
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/** Global pool, rebuilt when the requested thread count changes. */
struct GlobalPool
{
    std::mutex mutex;
    int override_threads = 0; // 0 = use environment
    std::unique_ptr<ThreadPool> pool;

    static GlobalPool &instance()
    {
        static GlobalPool global;
        return global;
    }

    int threadCount()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return override_threads > 0 ? override_threads
                                    : environmentThreads();
    }

    ThreadPool &acquire(int threads)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!pool || pool->threadCount() != threads) {
            pool.reset(); // join the old workers first
            pool = std::make_unique<ThreadPool>(threads);
        }
        return *pool;
    }
};

} // namespace

int
globalThreadCount()
{
    return GlobalPool::instance().threadCount();
}

void
setGlobalThreads(int threads)
{
    std::lock_guard<std::mutex> lock(GlobalPool::instance().mutex);
    GlobalPool::instance().override_threads = std::max(0, threads);
}

void
parallelForChunks(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)> &fn,
                  const ParallelOptions &options)
{
    if (n == 0) {
        return;
    }
    const int threads =
        options.threads > 0 ? options.threads : globalThreadCount();
    const std::size_t grain = std::max<std::size_t>(1, options.grain);
    const std::size_t max_chunks = (n + grain - 1) / grain;
    const std::size_t chunks =
        std::min<std::size_t>(static_cast<std::size_t>(threads),
                              max_chunks);
    if (threads <= 1 || chunks <= 1) {
        fn(0, n); // serial fast path, on the caller's stack
        return;
    }
    // Even partition: chunk boundaries depend only on (n, chunks).
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.reserve(chunks);
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t size = base + (c < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + size);
        begin += size;
    }
    GlobalPool::instance().acquire(threads).runBatch(
        ranges.size(), [&](std::size_t c) {
            fn(ranges[c].first, ranges[c].second);
        });
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            const ParallelOptions &options)
{
    parallelForChunks(
        n,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                fn(i);
            }
        },
        options);
}

} // namespace kodan::util
