/**
 * @file
 * Data plane vs batch scheduler: wall-clock over the same deployed
 * runtime, at KODAN_THREADS=1 so the numbers isolate the data-plane
 * win (burst-batched inference, allocation-free steady state) from
 * outer parallelism. Three workloads:
 *
 *   runtime_batch   Runtime::processFrames (the reference scheduler:
 *                   one frame per burst, a fresh FrameWork each)
 *   staged_burst1   PipelineRuntime, burst=1 (recycled FrameWorks alone)
 *   staged_burst8   PipelineRuntime, burst=8 (the default: recycled
 *                   FrameWorks + cross-frame burst-batched inference)
 *
 * Both schedulers run the same stages, lazy tiling included, so the
 * data-plane win is what scheduling alone buys: no per-frame
 * allocation and one inference call per model per burst instead of
 * per frame. Wall-clock is taken as the best of three timed
 * repetitions per path to keep the gate meaningful on noisy shared
 * machines.
 *
 * Every staged result is cross-checked bit-exactly against the batch
 * report while it is being timed; a divergence exits 1 — the data
 * plane's whole contract is that it changes the schedule, never the
 * bits. A final run through LoadGenerator reports sustained frames/s.
 *
 * The allocation guard re-runs the warmed burst-8 pipeline with a
 * counting operator new and exits 1 if the steady state heap-allocates
 * at all — the zero-copy claim, enforced.
 *
 * Results go to stdout and BENCH_dataplane.run.json (in
 * KODAN_BENCH_CSV_DIR when set, else the bench cache directory).
 *
 * --assert-speedup enforces the acceptance floor (staged_burst8 >=
 * 1.05x runtime_batch); left off in the timer-tolerant regression
 * smoke where wall-clock is too noisy to gate on. --stats turns on
 * the data plane's per-stage timers (`pipeline.stage.*_s`).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/runtime.hpp"
#include "pipeline/loadgen.hpp"
#include "pipeline/pipeline_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

// ---------------------------------------------------------------------
// Counting allocator: every global new/delete in the binary funnels
// through here. Counting is off except inside the guard phase, so the
// override costs one relaxed load per allocation elsewhere.

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void *
countedAlloc(std::size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    }
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
countedAllocAligned(std::size_t size, std::size_t align)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    }
    const std::size_t rounded = (size + align - 1) / align * align;
    void *p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

// ---------------------------------------------------------------------

namespace {

using namespace kodan;

double
timeSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}


struct Measurement
{
    std::string workload;
    double batch_seconds = 0.0;
    double staged_seconds = 0.0;
    double speedup = 0.0;
    double fps = 0.0; // staged-path throughput
};

core::TransformOptions
sweepOptions()
{
    core::TransformOptions options;
    options.train_frames = 40;
    options.val_frames = 24;
    options.specialize.max_train_blocks = 16000;
    return options;
}

bool
sameReport(const core::FrameReport &a, const core::FrameReport &b)
{
    return a.compute_time == b.compute_time &&
           a.product_fraction == b.product_fraction &&
           a.product_high_fraction == b.product_high_fraction &&
           a.tiles_discarded == b.tiles_discarded &&
           a.tiles_downlinked == b.tiles_downlinked &&
           a.tiles_modeled == b.tiles_modeled &&
           a.cells.tp() == b.cells.tp() && a.cells.fp() == b.cells.fp() &&
           a.cells.tn() == b.cells.tn() && a.cells.fn() == b.cells.fn();
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    bool assert_speedup = false;
    bool stats = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--assert-speedup") {
            assert_speedup = true;
        } else if (arg == "--stats") {
            stats = true;
        }
    }
    bench::banner("Data plane vs batch scheduler",
                  "the data-plane layer of DESIGN.md; no paper figure");

    // Per-core comparison: outer parallelism belongs to
    // bench_parallel_speedup; here one lane runs every frame so the
    // delta is pure scheduling (recycling + burst batching).
    util::setGlobalThreads(1);

    // The deployed runtime the two schedulers share: tier-4 transform +
    // selection on the standard Landsat profile, as bench_ml_kernels.
    const data::GeoModel world;
    const core::Transformer transformer(sweepOptions());
    const auto shared = transformer.prepareData(world);
    const auto profile = core::SystemProfile::landsat8(
        hw::Target::Orin15W, shared.prevalence);
    const auto artifacts =
        transformer.transformApp(core::Application{4}, shared);
    const auto selected = transformer.select(artifacts, profile);
    const core::Runtime runtime(selected.logic, shared.engine.get(),
                                &artifacts.zoo, hw::Target::Orin15W);

    // Frame set: the validation pool replicated 8x (192 frames) — big
    // enough that steady state dominates warm-up.
    std::vector<data::FrameSample> frames;
    for (int rep = 0; rep < 8; ++rep) {
        frames.insert(frames.end(), shared.val.begin(),
                      shared.val.end());
    }
    const int reps = 3;
    const int tries = 3;

    core::FrameReport report_batch;
    report_batch = runtime.processFrames(frames); // warm

    const std::size_t bursts[] = {1, 8};
    std::vector<pipeline::PipelineRuntime *> pipelines;
    pipeline::PipelineRuntime::Options base_options;
    base_options.workers = 1;
    base_options.stats = stats;
    for (const std::size_t burst : bursts) {
        auto options = base_options;
        options.burst = burst;
        auto *staged = new pipeline::PipelineRuntime(runtime, options);
        pipelines.push_back(staged);
        // Warm run doubles as the equivalence check.
        const auto warm = staged->processFrames(frames);
        if (!sameReport(warm, report_batch)) {
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: staged "
                         "burst="
                      << burst << " disagrees with the batch path\n";
            return 1;
        }
    }

    // Timing: tries are interleaved across paths (batch, then each
    // staged config, repeated) so slow machine phases hit every path
    // alike; each path keeps its best try.
    double batch_seconds = 0.0;
    std::vector<double> staged_seconds(std::size(bursts), 0.0);
    core::FrameReport report_staged;
    for (int attempt = 0; attempt < tries; ++attempt) {
        const double b = timeSeconds([&] {
            for (int r = 0; r < reps; ++r) {
                report_batch = runtime.processFrames(frames);
            }
        });
        batch_seconds =
            attempt == 0 ? b : std::min(batch_seconds, b);
        for (std::size_t p = 0; p < pipelines.size(); ++p) {
            const double s = timeSeconds([&] {
                for (int r = 0; r < reps; ++r) {
                    report_staged = pipelines[p]->processFrames(frames);
                }
            });
            staged_seconds[p] =
                attempt == 0 ? s : std::min(staged_seconds[p], s);
            if (!sameReport(report_staged, report_batch)) {
                std::cerr << "[kodan-bench] DETERMINISM VIOLATION: "
                             "staged burst="
                          << bursts[p] << " diverged while being timed\n";
                return 1;
            }
        }
    }

    std::vector<Measurement> measurements;
    for (std::size_t p = 0; p < pipelines.size(); ++p) {
        Measurement mm;
        mm.workload = "staged_burst" + std::to_string(bursts[p]);
        mm.batch_seconds = batch_seconds;
        mm.staged_seconds = staged_seconds[p];
        mm.speedup = mm.staged_seconds > 0.0
                         ? mm.batch_seconds / mm.staged_seconds
                         : 0.0;
        mm.fps = mm.staged_seconds > 0.0
                     ? static_cast<double>(frames.size()) * reps /
                           mm.staged_seconds
                     : 0.0;
        measurements.push_back(mm);
    }

    // Sustained rate: offer 2x the materialized set through the
    // cycling load generator in one run.
    pipeline::LoadGenerator loadgen(frames);
    const auto load =
        loadgen.run(*pipelines.back(), frames.size() * 2);

    // ---- Allocation guard: the warmed burst-8 pipeline must not
    // touch the heap in steady state. Telemetry is switched off for
    // the guarded run (journal buffers legitimately grow), making this
    // a pure data-plane property: the lane's FrameWorks, the report
    // vector, and the scratch arenas are all warm.
    const bool telemetry_was_enabled = telemetry::enabled();
    const bool journal_was_enabled = telemetry::journalEnabled();
    telemetry::setEnabled(false);
    telemetry::setJournalEnabled(false);
    pipelines.back()->processFrames(frames); // warm telemetry-off path
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    const auto guarded = pipelines.back()->processFrames(frames);
    g_count_allocs.store(false);
    telemetry::setEnabled(telemetry_was_enabled);
    telemetry::setJournalEnabled(journal_was_enabled);
    const std::uint64_t steady_allocs = g_alloc_count.load();
    if (!sameReport(guarded, report_batch)) {
        std::cerr << "[kodan-bench] DETERMINISM VIOLATION: guarded run "
                     "disagrees with the batch path\n";
        return 1;
    }
    if (steady_allocs != 0) {
        std::cerr << "[kodan-bench] ALLOCATION GUARD FAILED: "
                  << steady_allocs
                  << " heap allocations in a warmed steady-state run "
                     "(expected 0)\n";
        return 1;
    }

    util::setGlobalThreads(0);

    // Feed the measurements into the telemetry snapshot so the
    // check_regressions.sh baseline diff sees them: wall-clock as timers
    // (diffed with the machine-noise tolerance), derived ratios under
    // bench.dataplane.ratio.* (excluded from the diff).
    if (telemetry::enabled()) {
        auto &reg = telemetry::registry();
        reg.timer("bench.dataplane.time.runtime_batch")
            .record(batch_seconds);
        for (const auto &m : measurements) {
            reg.timer("bench.dataplane.time." + m.workload)
                .record(m.staged_seconds);
            reg.gauge("bench.dataplane.ratio." + m.workload + ".speedup")
                .set(m.speedup);
            reg.gauge("bench.dataplane.ratio." + m.workload + ".fps")
                .set(m.fps);
        }
        reg.timer("bench.dataplane.time.loadgen").record(load.seconds);
        reg.gauge("bench.dataplane.ratio.loadgen.fps").set(load.fps);
    }

    util::TablePrinter table(
        {"workload", "batch (s)", "staged (s)", "speedup", "frames/s"});
    for (const auto &m : measurements) {
        table.addRow({m.workload,
                      util::TablePrinter::fmt(m.batch_seconds, 3),
                      util::TablePrinter::fmt(m.staged_seconds, 3),
                      util::TablePrinter::fmt(m.speedup, 2),
                      util::TablePrinter::fmt(m.fps, 1)});
    }
    table.addRow({"loadgen_openloop", "-",
                  util::TablePrinter::fmt(load.seconds, 3), "-",
                  util::TablePrinter::fmt(load.fps, 1)});
    table.print(std::cout);
    std::cout << "\nAll workloads at KODAN_THREADS=1, one worker; every "
                 "staged report verified bit-identical to the batch "
                 "path. Steady-state heap allocations: "
              << steady_allocs << ".\n";
    bench::emitCsv("bench_dataplane", table);

    // JSON run record.
    const std::string path = bench::runRecordPath("dataplane");
    std::ofstream json(path);
    if (json) {
        json << "{\n  \"steady_state_allocs\": " << steady_allocs
             << ",\n  \"loadgen_fps\": " << load.fps
             << ",\n  \"measurements\": [\n";
        for (std::size_t i = 0; i < measurements.size(); ++i) {
            const auto &m = measurements[i];
            json << "    {\"workload\": \"" << m.workload
                 << "\", \"batch_seconds\": " << m.batch_seconds
                 << ", \"staged_seconds\": " << m.staged_seconds
                 << ", \"speedup\": " << m.speedup
                 << ", \"fps\": " << m.fps << "}"
                 << (i + 1 < measurements.size() ? "," : "") << "\n";
        }
        json << "  ]\n}\n";
        std::cerr << "[kodan-bench] wrote " << path << "\n";
    }

    int status = 0;
    if (assert_speedup) {
        const double floor = 1.05;
        for (const auto &m : measurements) {
            if (m.workload == "staged_burst8" && m.speedup < floor) {
                std::cerr << "[kodan-bench] SPEEDUP FLOOR MISSED: "
                          << m.workload << " " << m.speedup << "x < "
                          << floor << "x\n";
                status = 1;
            }
        }
        if (status == 0) {
            std::cout << "Speedup floor met (staged_burst8 >= " << floor
                      << "x) and steady state allocation-free.\n";
        }
    }
    for (auto *p : pipelines) {
        delete p;
    }
    return status;
}
