/**
 * @file
 * Equivalence suite for the deterministic parallel execution layer: the
 * transformer sweep, the batch runtime, and the coverage analysis must
 * produce BIT-IDENTICAL results at any thread count (the mission
 * engine's own thread × shard grid lives in test_constellation.cpp).
 * Doubles are compared with exact equality on purpose — the
 * facade's ordered reduction makes that a hard guarantee, and anything
 * weaker would let nondeterminism silently invalidate regenerated
 * figures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "core/kodan.hpp"
#include "fixture.hpp"
#include "sim/coverage.hpp"
#include "sim/mission.hpp"
#include "util/thread_pool.hpp"

namespace kodan::core {
namespace {

using kodan::testing::smallFrames;
using kodan::testing::smallOptions;

/** Thread counts exercised against the serial (1-thread) baseline. */
const std::vector<int> kThreadCounts = {1, 2, 7};

/** Restores the global thread default when a test exits. */
class ThreadGuard
{
  public:
    ~ThreadGuard() { util::setGlobalThreads(0); }
};

std::string
serializeTables(const AppArtifacts &artifacts)
{
    std::ostringstream os;
    for (const auto &table : artifacts.tables) {
        saveTable(os, table);
    }
    for (const auto &table : artifacts.direct_tables) {
        saveTable(os, table);
    }
    os << artifacts.direct_tiles_per_frame << "\n";
    return os.str();
}

void
expectSameReport(const FrameReport &a, const FrameReport &b)
{
    EXPECT_EQ(a.compute_time, b.compute_time);
    EXPECT_EQ(a.product_fraction, b.product_fraction);
    EXPECT_EQ(a.product_high_fraction, b.product_high_fraction);
    EXPECT_EQ(a.tiles_discarded, b.tiles_discarded);
    EXPECT_EQ(a.tiles_downlinked, b.tiles_downlinked);
    EXPECT_EQ(a.tiles_modeled, b.tiles_modeled);
    EXPECT_EQ(a.cells.tp(), b.cells.tp());
    EXPECT_EQ(a.cells.fp(), b.cells.fp());
    EXPECT_EQ(a.cells.tn(), b.cells.tn());
    EXPECT_EQ(a.cells.fn(), b.cells.fn());
}

TEST(ParallelEquivalence, TransformerSweepIsBitIdenticalAcrossThreads)
{
    ThreadGuard guard;
    const data::GeoModel geo;
    const Transformer transformer(smallOptions());
    auto [train, val] = smallFrames(geo);
    const auto shared =
        transformer.prepareData(std::move(train), std::move(val));
    const auto profile =
        SystemProfile::landsat8(hw::Target::Orin15W, shared.prevalence);

    std::string baseline_tables;
    SweepResult baseline;
    for (int threads : kThreadCounts) {
        util::setGlobalThreads(threads);
        const auto artifacts =
            transformer.transformApp(Application{4}, shared);
        const std::string tables = serializeTables(artifacts);
        const SweepResult result = transformer.select(artifacts, profile);
        if (threads == 1) {
            baseline_tables = tables;
            baseline = result;
            continue;
        }
        // Measured tables (precision-17 text round-trips doubles
        // exactly, so string equality is bit equality).
        EXPECT_EQ(tables, baseline_tables) << threads << " threads";
        // Selected logic.
        EXPECT_EQ(result.logic.tiles_per_side,
                  baseline.logic.tiles_per_side);
        ASSERT_EQ(result.logic.per_context.size(),
                  baseline.logic.per_context.size());
        for (std::size_t c = 0; c < result.logic.per_context.size();
             ++c) {
            EXPECT_TRUE(result.logic.per_context[c] ==
                        baseline.logic.per_context[c])
                << "context " << c << " at " << threads << " threads";
        }
        // Projected outcome, bitwise.
        EXPECT_EQ(result.outcome.dvd, baseline.outcome.dvd);
        EXPECT_EQ(result.outcome.frame_time, baseline.outcome.frame_time);
        EXPECT_EQ(result.outcome.bits_sent, baseline.outcome.bits_sent);
        EXPECT_EQ(result.outcome.high_bits_sent,
                  baseline.outcome.high_bits_sent);
        ASSERT_EQ(result.per_tiling.size(), baseline.per_tiling.size());
        for (std::size_t i = 0; i < result.per_tiling.size(); ++i) {
            EXPECT_EQ(result.per_tiling[i].first,
                      baseline.per_tiling[i].first);
            EXPECT_EQ(result.per_tiling[i].second.dvd,
                      baseline.per_tiling[i].second.dvd);
        }
    }
}

/** Sets the process's default precision for a scope, then restores
 *  the one it found (KODAN_QUANT may have set it). */
class DefaultPrecision
{
  public:
    explicit DefaultPrecision(ml::Precision p) : saved_(ml::precision())
    {
        ml::setPrecision(p);
    }
    ~DefaultPrecision() { ml::setPrecision(saved_); }
    DefaultPrecision(const DefaultPrecision &) = delete;
    DefaultPrecision &operator=(const DefaultPrecision &) = delete;

  private:
    ml::Precision saved_;
};

TEST(Transformer, QuantGateLeavesProcessPrecisionAlone)
{
    // The int8 tolerance gate measures each entry's fp64 net and its
    // int8 sibling by naming them. If it flipped the process's precision
    // instead, every other thread's inference would run int8 meanwhile.
    const auto &pipeline = kodan::testing::SharedPipeline::instance();
    ASSERT_TRUE(pipeline.transformer.options().specialize.quantize);
    const DefaultPrecision fp64(ml::Precision::Fp64);
    std::atomic<long> samples{0};
    std::atomic<long> int8_reads{0};
    std::jthread sampler([&](const std::stop_token &stop) {
        while (!stop.stop_requested()) {
            if (ml::precision() == ml::Precision::Int8) {
                ++int8_reads;
            }
            ++samples;
            std::this_thread::yield();
        }
    });
    const auto artifacts =
        pipeline.transformer.transformApp(Application{4}, pipeline.shared);
    sampler.request_stop();
    sampler.join();
    EXPECT_GT(samples.load(), 0);
    EXPECT_EQ(int8_reads.load(), 0)
        << "the gate switched the process to int8";
    EXPECT_EQ(ml::precision(), ml::Precision::Fp64);
    bool any_sibling = false;
    for (const auto &entry : artifacts.zoo.entries) {
        any_sibling = any_sibling || entry.quant != nullptr;
    }
    EXPECT_TRUE(any_sibling) << "the gate kept no int8 sibling";
}

TEST(ParallelEquivalence, ConcurrentTransformAppsMatchSerial)
{
    // The figure bundle transforms its apps side by side on the pool;
    // each app's tables must be the bytes it measures alone.
    ThreadGuard guard;
    const auto &pipeline = kodan::testing::SharedPipeline::instance();
    const std::vector<int> tiers = {1, 2, 3, 4};
    std::vector<std::string> serial(tiers.size());
    util::setGlobalThreads(1);
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        serial[i] = serializeTables(pipeline.transformer.transformApp(
            Application{tiers[i]}, pipeline.shared));
    }
    util::setGlobalThreads(4);
    std::vector<std::string> concurrent(tiers.size());
    util::parallelFor(tiers.size(), [&](std::size_t i) {
        concurrent[i] = serializeTables(pipeline.transformer.transformApp(
            Application{tiers[i]}, pipeline.shared));
    });
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        EXPECT_EQ(concurrent[i], serial[i]) << "app " << tiers[i];
    }
}

TEST(ParallelEquivalence, BatchRuntimeMatchesSerialLoop)
{
    ThreadGuard guard;
    const auto &pipeline = kodan::testing::SharedPipeline::instance();
    SelectionLogic logic;
    logic.tiles_per_side = 6;
    logic.per_context.assign(
        pipeline.shared.partition.context_count,
        {ActionKind::RunModel, pipeline.app4.zoo.reference});
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::Orin15W);

    // Serial reference: per-frame loop + ordered aggregate.
    util::setGlobalThreads(1);
    std::vector<FrameReport> reports;
    for (const auto &frame : pipeline.shared.val) {
        reports.push_back(runtime.processFrame(frame));
    }
    const FrameReport serial = Runtime::aggregate(reports);

    for (int threads : kThreadCounts) {
        util::setGlobalThreads(threads);
        const FrameReport batch =
            runtime.processFrames(pipeline.shared.val);
        SCOPED_TRACE(std::to_string(threads) + " threads");
        expectSameReport(batch, serial);
    }
}

TEST(ParallelEquivalence, CoverageIsThreadCountInvariant)
{
    ThreadGuard guard;
    const auto config = sim::MissionConfig::landsatConstellation(4);
    const sense::WrsGrid grid;

    util::setGlobalThreads(1);
    const auto baseline = sim::uniqueSceneCoverage(
        config.satellites, config.camera, grid, 6.0 * 3600.0);
    for (int threads : kThreadCounts) {
        util::setGlobalThreads(threads);
        const auto result = sim::uniqueSceneCoverage(
            config.satellites, config.camera, grid, 6.0 * 3600.0);
        EXPECT_EQ(result.total_frames, baseline.total_frames);
        EXPECT_EQ(result.unique_scenes, baseline.unique_scenes);
        EXPECT_EQ(result.grid_scenes, baseline.grid_scenes);
    }
}

// ---------------------------------------------------------------------
// Aggregation bug class: chunked merging must not average means over
// unequal chunks, and tile counters must survive mission-scale totals.

TEST(ParallelEquivalence, ChunkedAggregationMatchesFlatAggregation)
{
    // Synthesize per-frame reports with distinguishable values.
    std::vector<FrameReport> reports;
    for (int i = 0; i < 23; ++i) {
        FrameReport report;
        report.compute_time = 1.0 + 0.37 * i;
        report.product_fraction = 0.01 * i;
        report.product_high_fraction = 0.005 * i;
        report.tiles_discarded = i;
        report.tiles_downlinked = 2 * i;
        report.tiles_modeled = 3 * i + 1;
        report.cells.addWeighted(true, true, 10 + i);
        report.cells.addWeighted(true, false, 5 + i);
        report.cells.addWeighted(false, false, 100 - i);
        reports.push_back(report);
    }
    const FrameReport flat = Runtime::aggregate(reports);

    // Adversarial partitions: singleton, lopsided, prime-sized chunks.
    for (const std::vector<std::size_t> &sizes :
         {std::vector<std::size_t>{1, 22},
          std::vector<std::size_t>{22, 1},
          std::vector<std::size_t>{7, 7, 7, 2},
          std::vector<std::size_t>{3, 5, 11, 4},
          std::vector<std::size_t>{23}}) {
        FrameReport merged;
        std::size_t merged_frames = 0;
        std::size_t offset = 0;
        for (std::size_t size : sizes) {
            const std::vector<FrameReport> chunk(
                reports.begin() + static_cast<std::ptrdiff_t>(offset),
                reports.begin() +
                    static_cast<std::ptrdiff_t>(offset + size));
            merged = Runtime::mergeAggregates(merged, merged_frames,
                                              Runtime::aggregate(chunk),
                                              size);
            merged_frames += size;
            offset += size;
        }
        ASSERT_EQ(merged_frames, reports.size());
        // Weighted merging is algebraically exact; floating point gets
        // a tight relative tolerance because addition re-associates.
        EXPECT_NEAR(merged.compute_time, flat.compute_time,
                    1e-12 * flat.compute_time);
        EXPECT_NEAR(merged.product_fraction, flat.product_fraction,
                    1e-12);
        EXPECT_NEAR(merged.product_high_fraction,
                    flat.product_high_fraction, 1e-12);
        EXPECT_EQ(merged.tiles_discarded, flat.tiles_discarded);
        EXPECT_EQ(merged.tiles_downlinked, flat.tiles_downlinked);
        EXPECT_EQ(merged.tiles_modeled, flat.tiles_modeled);
        EXPECT_EQ(merged.cells.tp(), flat.cells.tp());
        EXPECT_EQ(merged.cells.fp(), flat.cells.fp());
        EXPECT_EQ(merged.cells.tn(), flat.cells.tn());
        EXPECT_EQ(merged.cells.fn(), flat.cells.fn());
    }
}

TEST(ParallelEquivalence, MeanOfMeansWouldHaveBeenWrong)
{
    // Documents the bug class mergeAggregates() exists to avoid: naive
    // (a + b) / 2 on unequal chunks is measurably wrong.
    FrameReport a;
    a.compute_time = 10.0; // aggregate of 1 frame
    FrameReport b;
    b.compute_time = 2.0; // aggregate of 9 frames
    const FrameReport merged = Runtime::mergeAggregates(a, 1, b, 9);
    EXPECT_DOUBLE_EQ(merged.compute_time, (10.0 + 9 * 2.0) / 10.0);
    EXPECT_NE(merged.compute_time, (10.0 + 2.0) / 2.0);
}

TEST(ParallelEquivalence, TileCountersSurviveMissionScaleTotals)
{
    // 121 tiles/frame over ~18M frames overflows 32-bit counters; the
    // aggregate must hold mission-scale sums exactly.
    FrameReport a;
    a.tiles_modeled = std::int64_t{2} * 1000 * 1000 * 1000;
    FrameReport b = a;
    const FrameReport total = Runtime::aggregate({a, b});
    EXPECT_EQ(total.tiles_modeled,
              std::int64_t{4} * 1000 * 1000 * 1000);
    const FrameReport merged = Runtime::mergeAggregates(a, 1, b, 1);
    EXPECT_EQ(merged.tiles_modeled,
              std::int64_t{4} * 1000 * 1000 * 1000);
}

} // namespace
} // namespace kodan::core
