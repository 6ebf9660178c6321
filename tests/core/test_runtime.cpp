/** @file Unit tests for the deployed runtime. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cmath>
#include <string>

#include "core/runtime.hpp"
#include "data/generator.hpp"
#include "data/tiler.hpp"
#include "fixture.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace kodan::core {
namespace {

using kodan::testing::SharedPipeline;

SelectionLogic
allModelLogic(const SharedPipeline &pipeline, int tiles_per_side = 6)
{
    SelectionLogic logic;
    logic.tiles_per_side = tiles_per_side;
    logic.per_context.assign(pipeline.shared.partition.context_count,
                             {ActionKind::RunModel,
                              pipeline.app4.zoo.reference});
    return logic;
}

TEST(Runtime, ComputeTimeMatchesCostModel)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto logic = allModelLogic(pipeline);
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::Orin15W);
    const auto report =
        runtime.processFrame(pipeline.shared.val.front());
    // The cost model at the active precision, for the entry every tile
    // runs: under KODAN_QUANT=int8 a calibrated sibling runs quantized.
    const ZooEntry &entry =
        pipeline.app4.zoo.entries[pipeline.app4.zoo.reference];
    ASSERT_EQ(entry.tier, 4);
    const std::size_t params = hw::CostModel::tierParamCount(entry.tier);
    const double model_time =
        entry.runsQuantized()
            ? hw::CostModel::modelTimeQuant(params, hw::Target::Orin15W)
            : hw::CostModel::modelTime(params, hw::Target::Orin15W);
    const double expected =
        36.0 *
        (hw::CostModel::contextEngineTime(hw::Target::Orin15W) + model_time);
    EXPECT_NEAR(report.compute_time, expected, 1e-9);
    EXPECT_EQ(report.tiles_modeled, 36);
    EXPECT_EQ(report.tiles_discarded, 0);
}

TEST(Runtime, DiscardEverythingEmitsNothing)
{
    const auto &pipeline = SharedPipeline::instance();
    SelectionLogic logic;
    logic.tiles_per_side = 4;
    logic.per_context.assign(pipeline.shared.partition.context_count,
                             {ActionKind::Discard, -1});
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::Orin15W);
    const auto report = runtime.processFrame(pipeline.shared.val[1]);
    EXPECT_DOUBLE_EQ(report.product_fraction, 0.0);
    EXPECT_EQ(report.tiles_discarded, 16);
    // Engine still runs on every tile.
    EXPECT_NEAR(report.compute_time,
                16.0 *
                    hw::CostModel::contextEngineTime(hw::Target::Orin15W),
                1e-9);
}

TEST(Runtime, DownlinkEverythingEmitsWholeFrame)
{
    const auto &pipeline = SharedPipeline::instance();
    SelectionLogic logic;
    logic.tiles_per_side = 4;
    logic.per_context.assign(pipeline.shared.partition.context_count,
                             {ActionKind::Downlink, -1});
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::I7_7800);
    const auto &frame = pipeline.shared.val[2];
    const auto report = runtime.processFrame(frame);
    EXPECT_NEAR(report.product_fraction, 1.0, 1e-9);
    EXPECT_NEAR(report.product_high_fraction, frame.highValueFraction(),
                1e-9);
}

TEST(Runtime, ProductFractionsConsistentWithConfusion)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto logic = allModelLogic(pipeline);
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::Gtx1070Ti);
    const auto &frame = pipeline.shared.val[3];
    const auto report = runtime.processFrame(frame);
    const double cells = static_cast<double>(frame.cellCount());
    EXPECT_NEAR(report.product_fraction,
                (report.cells.tp() + report.cells.fp()) / cells, 1e-9);
    EXPECT_NEAR(report.product_high_fraction, report.cells.tp() / cells,
                1e-9);
}

TEST(Runtime, ModelDecisionsBeatChance)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto logic = allModelLogic(pipeline);
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::Gtx1070Ti);
    std::vector<FrameReport> reports;
    for (const auto &frame : pipeline.shared.val) {
        reports.push_back(runtime.processFrame(frame));
    }
    const auto total = Runtime::aggregate(reports);
    EXPECT_GT(total.cells.accuracy(), 0.7);
    EXPECT_GT(total.cells.precision(), total.cells.prevalence());
}

TEST(Runtime, AggregateAveragesTime)
{
    FrameReport a;
    a.compute_time = 2.0;
    a.product_fraction = 0.5;
    a.tiles_modeled = 3;
    FrameReport b;
    b.compute_time = 4.0;
    b.product_fraction = 0.1;
    b.tiles_modeled = 5;
    const auto total = Runtime::aggregate({a, b});
    EXPECT_DOUBLE_EQ(total.compute_time, 3.0);
    EXPECT_DOUBLE_EQ(total.product_fraction, 0.3);
    EXPECT_EQ(total.tiles_modeled, 8);
}

TEST(Runtime, AgreesWithAnalyticProjection)
{
    // The analytic evaluateLogic() projection and the concrete runtime
    // must agree on frame time and product volumes (same tiles, same
    // models, same engine).
    const auto &pipeline = SharedPipeline::instance();
    const auto logic = allModelLogic(pipeline);
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::Orin15W);
    std::vector<FrameReport> reports;
    for (const auto &frame : pipeline.shared.val) {
        reports.push_back(runtime.processFrame(frame));
    }
    const auto measured = Runtime::aggregate(reports);

    // Find the matching table (36 tiles/frame).
    const ContextActionTable *table = nullptr;
    for (const auto &candidate : pipeline.app4.tables) {
        if (candidate.tiles_per_side == 6) {
            table = &candidate;
        }
    }
    ASSERT_NE(table, nullptr);
    SystemProfile profile;
    profile.target = hw::Target::Orin15W;
    profile.frame_deadline = 1.0e9; // irrelevant here
    profile.frames_per_day = 1.0;
    profile.frame_bits = 1.0;
    profile.downlink_bits_per_day = 1.0e12;
    const auto projected =
        evaluateLogic(profile, *table, logic.per_context, true, false);

    EXPECT_NEAR(projected.frame_time, measured.compute_time, 1e-6);
    EXPECT_NEAR(projected.bits_sent, measured.product_fraction, 0.01);
    EXPECT_NEAR(projected.high_bits_sent, measured.product_high_fraction,
                0.01);
    EXPECT_NEAR(projected.cell_accuracy, measured.cells.accuracy(), 0.01);
}

TEST(Runtime, EmptyBatchEmitsNoTelemetry)
{
    // An empty batch must be a true no-op: no `runtime.batch` journal
    // region, no zero-frame aggregate event, no batched-frames count —
    // idle pollers must not pollute the flight recorder.
    const auto &pipeline = SharedPipeline::instance();
    const auto logic = allModelLogic(pipeline);
    const Runtime runtime(logic, pipeline.shared.engine.get(),
                          &pipeline.app4.zoo, hw::Target::Orin15W);

    telemetry::setEnabled(true);
    telemetry::setJournalEnabled(true);
    telemetry::resetAll();
    const FrameReport report = runtime.processFrames({});
    EXPECT_EQ(report.compute_time, 0.0);
    EXPECT_EQ(report.tiles_modeled, 0);
    EXPECT_TRUE(telemetry::collectJournal().empty());
    const auto snapshot = telemetry::registry().snapshot();
    if (const auto *batched = snapshot.find("runtime.frames.batched")) {
        EXPECT_EQ(batched->count, 0);
    }
    if (const auto *timer = snapshot.find("runtime.batch.process")) {
        EXPECT_EQ(timer->count, 0);
    }
    telemetry::resetAll();
    telemetry::setEnabled(false);
    telemetry::setJournalEnabled(false);
}

TEST(Runtime, LazyTilingMatchesEagerTilingOracle)
{
    // processFrame tiles lazily (stats first, block decimation only for
    // modeled tiles). The oracle tiles eagerly with Tiler::tile, as the
    // training path does, then runs the same classify, infer, and elide
    // steps; the reports must agree bit for bit on every frame. The
    // logic mixes every action kind and several zoo models.
    const auto &pipeline = SharedPipeline::instance();
    const int models = static_cast<int>(pipeline.app4.zoo.entries.size());
    SelectionLogic logic;
    logic.tiles_per_side = 6;
    for (int c = 0; c < pipeline.shared.partition.context_count; ++c) {
        switch (c % 4) {
          case 0:
            logic.per_context.push_back({ActionKind::Discard, -1});
            break;
          case 1:
            logic.per_context.push_back({ActionKind::Downlink, -1});
            break;
          default:
            logic.per_context.push_back({ActionKind::RunModel, c % models});
            break;
        }
    }
    const ContextEngine &engine = *pipeline.shared.engine;
    const Runtime runtime(logic, &engine, &pipeline.app4.zoo,
                          hw::Target::Orin15W);
    const data::Tiler tiler(logic.tiles_per_side);

    FrameReport totals;
    for (std::size_t f = 0; f < pipeline.shared.val.size(); ++f) {
        SCOPED_TRACE("frame " + std::to_string(f));
        const data::FrameSample &frame = pipeline.shared.val[f];
        FrameWork eager;
        eager.frame = &frame;
        eager.tiles = tiler.tile(frame);
        engine.classifyBatch(eager.tiles, eager.contexts);
        eager.keep.resize(eager.tiles.size() * data::kBlocksPerTile);
        runtime.stageInfer(&eager, 1);
        runtime.stageElide(eager);
        const FrameReport &want = eager.report;

        const FrameReport got = runtime.processFrame(frame);
        EXPECT_EQ(got.compute_time, want.compute_time);
        EXPECT_EQ(got.product_fraction, want.product_fraction);
        EXPECT_EQ(got.product_high_fraction, want.product_high_fraction);
        EXPECT_EQ(got.tiles_discarded, want.tiles_discarded);
        EXPECT_EQ(got.tiles_downlinked, want.tiles_downlinked);
        EXPECT_EQ(got.tiles_modeled, want.tiles_modeled);
        EXPECT_EQ(got.cells.tp(), want.cells.tp());
        EXPECT_EQ(got.cells.fp(), want.cells.fp());
        EXPECT_EQ(got.cells.tn(), want.cells.tn());
        EXPECT_EQ(got.cells.fn(), want.cells.fn());
        totals.tiles_discarded += want.tiles_discarded;
        totals.tiles_downlinked += want.tiles_downlinked;
        totals.tiles_modeled += want.tiles_modeled;
    }
    EXPECT_GT(totals.tiles_discarded, 0);
    EXPECT_GT(totals.tiles_downlinked, 0);
    EXPECT_GT(totals.tiles_modeled, 0);
}

/**
 * The per-cell elide loop Runtime::stageElide ran before it counted
 * cells per tile, kept as the oracle: one ConfusionStats::add per cell,
 * locating each modeled cell's block with blockOfCell().
 */
FrameReport
perCellElide(const FrameWork &work, const SelectionLogic &logic,
             const SpecializedZoo &zoo, hw::Target target)
{
    FrameReport report;
    const auto &tiles = work.tiles;
    const double frame_cells =
        static_cast<double>(work.frame->cellCount());
    const double engine_time = hw::CostModel::contextEngineTime(target);

    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const auto &tile = tiles[t];
        report.compute_time += engine_time;
        const Action &action = logic.per_context[work.contexts[t]];
        const double tile_cells = static_cast<double>(tile.cellCount());

        switch (action.kind) {
          case ActionKind::Discard: {
            ++report.tiles_discarded;
            for (int r = 0; r < tile.cell_rows; ++r) {
                for (int c = 0; c < tile.cell_cols; ++c) {
                    report.cells.add(false, !tile.cloudyLocal(r, c));
                }
            }
            break;
          }
          case ActionKind::Downlink: {
            ++report.tiles_downlinked;
            double high_cells = 0.0;
            for (int r = 0; r < tile.cell_rows; ++r) {
                for (int c = 0; c < tile.cell_cols; ++c) {
                    const bool high = !tile.cloudyLocal(r, c);
                    report.cells.add(true, high);
                    if (high) {
                        high_cells += 1.0;
                    }
                }
            }
            report.product_fraction += tile_cells / frame_cells;
            report.product_high_fraction += high_cells / frame_cells;
            break;
          }
          case ActionKind::RunModel: {
            ++report.tiles_modeled;
            const ZooEntry &entry = zoo.entries[action.model];
            const std::size_t params =
                hw::CostModel::tierParamCount(entry.tier);
            report.compute_time +=
                entry.runsQuantized()
                    ? hw::CostModel::modelTimeQuant(params, target)
                    : hw::CostModel::modelTime(params, target);
            const std::uint8_t *keep =
                work.keep.data() + t * data::kBlocksPerTile;
            for (int r = 0; r < tile.cell_rows; ++r) {
                for (int c = 0; c < tile.cell_cols; ++c) {
                    const bool kept = keep[tile.blockOfCell(r, c)] != 0;
                    const bool high = !tile.cloudyLocal(r, c);
                    report.cells.add(kept, high);
                    if (kept) {
                        report.product_fraction += 1.0 / frame_cells;
                        if (high) {
                            report.product_high_fraction +=
                                1.0 / frame_cells;
                        }
                    }
                }
            }
            break;
          }
        }
    }
    return report;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

TEST(Runtime, ElideMatchesPerCellOracle)
{
    // stageElide counts cells per tile and block; the oracle adds them
    // one by one. Every report field must agree bit for bit, on the
    // fixture's 44-cell frames and on 88-cell (deployed size) frames,
    // at the paper's four tilings plus T = 8 on 44 cells (5-6 cells
    // per tile side, fewer than the 8 blocks), with the models' own
    // keep flags, with random ones, and on undecimated tiles.
    const auto &pipeline = SharedPipeline::instance();
    const SpecializedZoo &zoo = pipeline.app4.zoo;
    const int models = static_cast<int>(zoo.entries.size());
    const int contexts = pipeline.shared.partition.context_count;
    const ContextEngine &engine = *pipeline.shared.engine;

    data::DatasetParams params;
    params.seed = 88;
    data::DatasetGenerator generator(pipeline.geo, params);
    std::vector<data::FrameSample> frames88;
    for (int f = 0; f < 3; ++f) {
        frames88.push_back(generator.makeFrame(0.3 * f - 0.4, 0.9 * f,
                                               60.0 * f));
    }
    util::Rng rng(2026);
    FrameReport totals;
    for (const std::vector<data::FrameSample> *frames :
         std::array<const std::vector<data::FrameSample> *, 2>{
             &pipeline.shared.val, &frames88}) {
        for (const int t_count : {11, 6, 4, 3, 8}) {
            if (t_count == 8 && frames == &frames88) {
                continue;
            }
            // Every action kind, and several models; the offset moves
            // the kinds across contexts from one tiling to the next.
            SelectionLogic logic;
            logic.tiles_per_side = t_count;
            for (int c = 0; c < contexts; ++c) {
                const int pick = (c + t_count) % 4;
                logic.per_context.push_back(
                    pick == 0   ? Action{ActionKind::Discard, -1}
                    : pick == 1 ? Action{ActionKind::Downlink, -1}
                                : Action{ActionKind::RunModel,
                                         (c + pick) % models});
            }
            const Runtime runtime(logic, &engine, &zoo, hw::Target::Orin15W);
            for (std::size_t f = 0; f < frames->size(); ++f) {
                SCOPED_TRACE("grid " +
                             std::to_string((*frames)[f].grid) + ", T " +
                             std::to_string(t_count) + ", frame " +
                             std::to_string(f));
                FrameWork work;
                runtime.stageTileClassify((*frames)[f], work);
                runtime.stageInfer(&work, 1);
                // Tiles straight from statsInto, never decimated, as a
                // traced replay hands them to stageElide.
                FrameWork stats_only;
                stats_only.frame = work.frame;
                data::Tiler(t_count).statsInto(*work.frame,
                                               stats_only.tiles);
                stats_only.contexts = work.contexts;
                for (int pass = 0; pass < 3; ++pass) {
                    if (pass == 1) {
                        for (auto &k : work.keep) {
                            k = rng.uniform() < 0.5 ? 1 : 0;
                        }
                    }
                    FrameWork &elided = pass == 2 ? stats_only : work;
                    stats_only.keep = work.keep;
                    runtime.stageElide(elided);
                    const FrameReport &got = elided.report;
                    const FrameReport want = perCellElide(
                        work, logic, zoo, hw::Target::Orin15W);
                    EXPECT_TRUE(sameBits(got.compute_time,
                                         want.compute_time));
                    EXPECT_TRUE(sameBits(got.product_fraction,
                                         want.product_fraction));
                    EXPECT_TRUE(sameBits(got.product_high_fraction,
                                         want.product_high_fraction));
                    EXPECT_EQ(got.tiles_discarded, want.tiles_discarded);
                    EXPECT_EQ(got.tiles_downlinked, want.tiles_downlinked);
                    EXPECT_EQ(got.tiles_modeled, want.tiles_modeled);
                    EXPECT_EQ(got.cells.tp(), want.cells.tp());
                    EXPECT_EQ(got.cells.fp(), want.cells.fp());
                    EXPECT_EQ(got.cells.tn(), want.cells.tn());
                    EXPECT_EQ(got.cells.fn(), want.cells.fn());
                    totals.tiles_discarded += want.tiles_discarded;
                    totals.tiles_downlinked += want.tiles_downlinked;
                    totals.tiles_modeled += want.tiles_modeled;
                }
            }
        }
    }
    EXPECT_GT(totals.tiles_discarded, 0);
    EXPECT_GT(totals.tiles_downlinked, 0);
    EXPECT_GT(totals.tiles_modeled, 0);
}

// ---------------------------------------------------------------------
// Property: aggregate() then chunk-merge via mergeAggregates() equals
// flat aggregate() for ANY split of the batch — count-weighted
// associativity. Random splits, including empty chunks on either side,
// probe the space the hand-picked partitions above cannot.

FrameReport
randomReport(util::Rng &rng)
{
    FrameReport report;
    report.compute_time = rng.uniform(0.1, 50.0);
    report.product_fraction = rng.uniform();
    report.product_high_fraction =
        report.product_fraction * rng.uniform();
    report.tiles_discarded = rng.uniformInt(0, 121);
    report.tiles_downlinked = rng.uniformInt(0, 121);
    report.tiles_modeled = rng.uniformInt(0, 121);
    report.cells.addWeighted(true, true, rng.uniformInt(0, 4000));
    report.cells.addWeighted(true, false, rng.uniformInt(0, 4000));
    report.cells.addWeighted(false, true, rng.uniformInt(0, 4000));
    report.cells.addWeighted(false, false, rng.uniformInt(0, 4000));
    return report;
}

TEST(Runtime, MergeAggregatesIsCountWeightedAssociativeUnderRandomSplits)
{
    util::Rng rng(20260809);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 40));
        std::vector<FrameReport> reports;
        reports.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            reports.push_back(randomReport(rng));
        }
        const FrameReport flat = Runtime::aggregate(reports);

        // Random partition into chunks, deliberately allowing empty
        // chunks: a zero-frame side must pass through the other side's
        // aggregate EXACTLY (mergeAggregates short-circuits, so not
        // even FP rounding may change).
        FrameReport merged;
        std::size_t merged_frames = 0;
        std::size_t offset = 0;
        while (offset < reports.size() || merged_frames == 0) {
            const std::size_t remaining = reports.size() - offset;
            const std::size_t size = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(remaining)));
            const std::vector<FrameReport> chunk(
                reports.begin() + static_cast<std::ptrdiff_t>(offset),
                reports.begin() +
                    static_cast<std::ptrdiff_t>(offset + size));
            const FrameReport chunk_total = Runtime::aggregate(chunk);
            const FrameReport next = Runtime::mergeAggregates(
                merged, merged_frames, chunk_total, size);
            if (size == 0) {
                // Zero-frame side: bit-exact passthrough.
                EXPECT_EQ(next.compute_time, merged.compute_time);
                EXPECT_EQ(next.product_fraction,
                          merged.product_fraction);
                EXPECT_EQ(next.tiles_modeled, merged.tiles_modeled);
            }
            if (merged_frames == 0) {
                EXPECT_EQ(next.compute_time, chunk_total.compute_time);
            }
            merged = next;
            merged_frames += size;
            offset += size;
            if (offset >= reports.size() && merged_frames > 0) {
                break;
            }
        }
        ASSERT_EQ(merged_frames, reports.size());

        // Counts are integer-exact; means re-associate FP addition, so
        // they get a tight relative tolerance.
        EXPECT_EQ(merged.tiles_discarded, flat.tiles_discarded);
        EXPECT_EQ(merged.tiles_downlinked, flat.tiles_downlinked);
        EXPECT_EQ(merged.tiles_modeled, flat.tiles_modeled);
        EXPECT_EQ(merged.cells.tp(), flat.cells.tp());
        EXPECT_EQ(merged.cells.fp(), flat.cells.fp());
        EXPECT_EQ(merged.cells.tn(), flat.cells.tn());
        EXPECT_EQ(merged.cells.fn(), flat.cells.fn());
        EXPECT_NEAR(merged.compute_time, flat.compute_time,
                    1e-11 * std::max(1.0, flat.compute_time));
        EXPECT_NEAR(merged.product_fraction, flat.product_fraction,
                    1e-11);
        EXPECT_NEAR(merged.product_high_fraction,
                    flat.product_high_fraction, 1e-11);
    }
}

} // namespace
} // namespace kodan::core
