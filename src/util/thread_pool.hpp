/**
 * @file
 * Deterministic parallel execution layer: a shared worker pool plus a
 * small parallelFor / parallelMapReduce facade.
 *
 * Design contract (enforced by tests/core/test_parallel_equivalence.cpp):
 * parallel output is bit-identical to serial output for ANY thread
 * count. The facade guarantees this by construction —
 *   - work items are pure functions of their index (callers must not
 *     share mutable state across items);
 *   - per-item results are stored at their index, never in completion
 *     order;
 *   - reductions run serially, in index order, after all items finish.
 * Chunk boundaries and thread count therefore affect scheduling only,
 * never results.
 *
 * The thread count defaults to the KODAN_THREADS environment variable
 * (falling back to std::thread::hardware_concurrency). At one thread the
 * facade runs inline on the caller's stack with no pool interaction, so
 * `KODAN_THREADS=1` reproduces the historical serial execution exactly.
 */

#ifndef KODAN_UTIL_THREAD_POOL_HPP
#define KODAN_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace kodan::util {

/**
 * A fixed-size worker pool with a FIFO task queue.
 *
 * The destructor drains the queue: tasks already enqueued run to
 * completion before the workers join, so destroying a busy pool never
 * abandons work and never deadlocks.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; values < 1 are clamped to 1. A pool
     *        with one worker still runs tasks on that worker (use the
     *        facade below for the inline serial fast path).
     */
    explicit ThreadPool(int threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Joins after draining all enqueued tasks. */
    ~ThreadPool();

    /** Number of worker threads. */
    int threadCount() const { return static_cast<int>(workers_.size()); }

    /** Enqueue a fire-and-forget task. */
    void enqueue(std::function<void()> task);

    /**
     * Run @p task(i) for every i in [0, count) across the pool and block
     * until all complete. The calling thread participates, so a batch
     * never deadlocks even on a single-worker pool. The first exception
     * thrown by any task is rethrown here (remaining tasks still run).
     */
    void runBatch(std::size_t count,
                  const std::function<void(std::size_t)> &task);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

/** Tuning knobs of a facade call. */
struct ParallelOptions
{
    /**
     * Worker threads to use; 0 means the global default (KODAN_THREADS
     * or hardware concurrency). 1 forces the inline serial path.
     */
    int threads = 0;
    /** Minimum items per chunk (coarsens scheduling, never results). */
    std::size_t grain = 1;
};

/**
 * Install a hook invoked at the start of every worker thread spawned by
 * ThreadPool — used by telemetry::prof to register new threads with
 * the sampling profiler. The hook must be installed before the threads
 * it should observe are spawned (the harness installs it in
 * configureFromArgs, ahead of any pool construction). Pass nullptr to
 * clear.
 */
void setWorkerStartHook(void (*hook)());

/**
 * Thread count of the global pool: the last setGlobalThreads() override,
 * else KODAN_THREADS, else hardware concurrency (at least 1).
 */
int globalThreadCount();

/**
 * Override the global thread count (primarily for tests sweeping thread
 * counts). Pass 0 to restore the environment-derived default. Rebuilds
 * the shared pool on next use; not safe to call while a facade call is
 * in flight on another thread.
 */
void setGlobalThreads(int threads);

/**
 * Run @p fn(i) for every i in [0, n). Items may run on any thread in any
 * order; @p fn must not share mutable state across items. Blocks until
 * all items finish; rethrows the first exception.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 const ParallelOptions &options = {});

/**
 * Chunked variant: @p fn(begin, end) over a partition of [0, n). Use
 * when per-item dispatch overhead matters; the partition is a scheduling
 * detail and carries no determinism obligations (results must not depend
 * on chunk boundaries).
 */
void parallelForChunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &fn,
    const ParallelOptions &options = {});

/**
 * Map every index through @p map in parallel, then fold the results into
 * @p init serially in index order via @p reduce(acc, value). Because the
 * reduction order is fixed, the result is bit-identical to the serial
 * loop `for i: reduce(acc, map(i))` for any thread count.
 */
template <typename T, typename Map, typename Reduce>
T
parallelMapReduce(std::size_t n, T init, Map &&map, Reduce &&reduce,
                  const ParallelOptions &options = {})
{
    using Mapped = decltype(map(std::size_t{0}));
    std::vector<std::optional<Mapped>> slots(n);
    parallelFor(
        n, [&](std::size_t i) { slots[i].emplace(map(i)); }, options);
    T acc = std::move(init);
    for (auto &slot : slots) {
        reduce(acc, std::move(*slot));
    }
    return acc;
}

} // namespace kodan::util

#endif // KODAN_UTIL_THREAD_POOL_HPP
