#include "core/runtime.hpp"

#include <array>
#include <cassert>

#include "data/tiler.hpp"
#include "ml/kernels.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::core {

Runtime::Runtime(const SelectionLogic &logic, const ContextEngine *engine,
                 const SpecializedZoo *zoo, hw::Target target)
    : logic_(logic), engine_(engine), zoo_(zoo), target_(target)
{
    assert(engine != nullptr);
    assert(zoo != nullptr);
    assert(static_cast<int>(logic_.per_context.size()) ==
           engine->contextCount());
}

FrameReport
Runtime::processFrame(const data::FrameSample &frame) const
{
    KODAN_TRACE_SCOPE("runtime.frame.process");
    FrameWork work;
    stageTileClassify(frame, work);
    stageInfer(&work, 1);
    stageElide(work);
    stageRecord(work);
    return work.report;
}

void
Runtime::stageTileClassify(const data::FrameSample &frame,
                           FrameWork &work) const
{
    work.frame = &frame;
    const data::Tiler tiler(logic_.tiles_per_side);
    tiler.statsInto(frame, work.tiles);
    // One batched engine forward over the frame's tiles; identical
    // context ids to the per-tile classify calls.
    engine_->classifyBatch(work.tiles, work.contexts);
    // Decimate the modeled tiles now, while the frame the stats pass
    // just read is still in cache.
    for (std::size_t t = 0; t < work.tiles.size(); ++t) {
        if (logic_.per_context[work.contexts[t]].kind ==
            ActionKind::RunModel) {
            data::Tiler::decimate(work.tiles[t]);
        }
    }
    // Sized here so the infer stage writes straight into it; entries of
    // elided tiles stay unwritten (and unread).
    work.keep.resize(work.tiles.size() * data::kBlocksPerTile);
}

void
Runtime::stageInfer(FrameWork *works, std::size_t count) const
{
    auto &arena = ml::kernels::scratch();
    const int models = static_cast<int>(zoo_->entries.size());
    const auto runs = [&](const FrameWork &work, std::size_t t, int m) {
        const Action &action = logic_.per_context[work.contexts[t]];
        return action.kind == ActionKind::RunModel && action.model == m;
    };

    // The fill and scatter passes iterate in the same (frame, tile)
    // order, so row offsets agree.
    for (int m = 0; m < models; ++m) {
        std::size_t model_tiles = 0;
        for (std::size_t i = 0; i < count; ++i) {
            for (std::size_t t = 0; t < works[i].tiles.size(); ++t) {
                model_tiles += runs(works[i], t, m) ? 1 : 0;
            }
        }
        if (model_tiles == 0) {
            continue;
        }
        const std::size_t rows = model_tiles * data::kBlocksPerTile;
        ml::kernels::Scratch::Frame scratch_frame(arena);
        double *scaled =
            arena.alloc(rows * static_cast<std::size_t>(
                                   data::kBlockInputDim));
        std::size_t row = 0;
        for (std::size_t i = 0; i < count; ++i) {
            FrameWork &work = works[i];
            for (std::size_t t = 0; t < work.tiles.size(); ++t) {
                if (!runs(work, t, m)) {
                    continue;
                }
                assert(!work.tiles[t].block_features.empty());
                zoo_->tileInputs(work.tiles[t],
                                 scaled + row * static_cast<std::size_t>(
                                                    data::kBlockInputDim));
                row += data::kBlocksPerTile;
            }
        }
        assert(row == rows);
        double *probs = arena.alloc(rows);
        zoo_->predictRows(m, scaled, rows, probs);
        row = 0;
        for (std::size_t i = 0; i < count; ++i) {
            FrameWork &work = works[i];
            for (std::size_t t = 0; t < work.tiles.size(); ++t) {
                if (runs(work, t, m)) {
                    keepFromProbs(probs + row, data::kBlocksPerTile,
                                  work.keep.data() +
                                      t * data::kBlocksPerTile);
                    row += data::kBlocksPerTile;
                }
            }
        }
    }
}

void
Runtime::keepFromProbs(const double *probs, std::size_t count,
                       std::uint8_t *keep)
{
    for (std::size_t i = 0; i < count; ++i) {
        keep[i] = probs[i] < 0.5 ? 1 : 0;
    }
}

void
Runtime::stageElide(FrameWork &work) const
{
    FrameReport &report = work.report;
    report = FrameReport{};
    const auto &tiles = work.tiles;
    const double frame_cells =
        static_cast<double>(work.frame->cellCount());
    const double cell_share = 1.0 / frame_cells;
    const double engine_time = hw::CostModel::contextEngineTime(target_);
    std::array<int, data::kBlocksPerTile> block_high{};
    std::array<int, data::kBlocksPerTile> block_cells{};

    // Cells are counted per tile from the truth mask and entered into
    // the confusion with addWeighted. The product fractions take the
    // same additions, in the same order, as a cell-by-cell pass: a
    // Downlink tile adds its cell share once, and a modeled tile adds
    // 1.0 / frame_cells once per kept (and per kept high-value) cell.
    // Those addends are all one value, so only their count matters.
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const auto &tile = tiles[t];
        report.compute_time += engine_time;
        const int ctx = work.contexts[t];
        const Action &action = logic_.per_context[ctx];
        const int cells = tile.cellCount();

        switch (action.kind) {
          case ActionKind::Discard: {
            ++report.tiles_discarded;
            const int high = tile.highCells();
            report.cells.addWeighted(false, true, high);
            report.cells.addWeighted(false, false, cells - high);
            break;
          }
          case ActionKind::Downlink: {
            ++report.tiles_downlinked;
            const int high = tile.highCells();
            report.cells.addWeighted(true, true, high);
            report.cells.addWeighted(true, false, cells - high);
            report.product_fraction +=
                static_cast<double>(cells) / frame_cells;
            report.product_high_fraction +=
                static_cast<double>(high) / frame_cells;
            break;
          }
          case ActionKind::RunModel: {
            ++report.tiles_modeled;
            assert(action.model >= 0 &&
                   action.model <
                       static_cast<int>(zoo_->entries.size()));
            const ZooEntry &entry = zoo_->entries[action.model];
            const std::size_t params =
                hw::CostModel::tierParamCount(entry.tier);
            report.compute_time +=
                entry.runsQuantized()
                    ? hw::CostModel::modelTimeQuant(params, target_)
                    : hw::CostModel::modelTime(params, target_);
            const std::uint8_t *keep =
                work.keep.data() + t * data::kBlocksPerTile;
            tile.blockTruth(block_high, block_cells);
            int high = 0;
            int kept = 0;
            int kept_high = 0;
            // Branch-free: keep flags follow cloud edges, which a
            // branch predicts poorly.
            for (int b = 0; b < data::kBlocksPerTile; ++b) {
                const int kept_block = keep[b] != 0 ? 1 : 0;
                high += block_high[b];
                kept += kept_block * block_cells[b];
                kept_high += kept_block * block_high[b];
            }
            report.cells.addWeighted(true, true, kept_high);
            report.cells.addWeighted(true, false, kept - kept_high);
            report.cells.addWeighted(false, true, high - kept_high);
            report.cells.addWeighted(false, false,
                                     cells - kept - (high - kept_high));
            for (int k = 0; k < kept; ++k) {
                report.product_fraction += cell_share;
            }
            for (int k = 0; k < kept_high; ++k) {
                report.product_high_fraction += cell_share;
            }
            break;
          }
        }
    }
}

void
Runtime::stageRecord(const FrameWork &work) const
{
    const FrameReport &report = work.report;
    // Accounting only — bulk adds after the hot loop, never per cell, so
    // the instrumented path stays cheap and the report is untouched.
    if (telemetry::enabled()) {
        const double engine_time =
            hw::CostModel::contextEngineTime(target_);
        const double engine_total =
            engine_time * static_cast<double>(work.tiles.size());
        KODAN_COUNT("runtime.frames.processed");
        KODAN_COUNT_ADD("runtime.tiles.discarded",
                        report.tiles_discarded);
        KODAN_COUNT_ADD("runtime.tiles.downlinked",
                        report.tiles_downlinked);
        KODAN_COUNT_ADD("runtime.tiles.modeled", report.tiles_modeled);
        // Split the modeled count by numeric path so a flipped
        // KODAN_QUANT knob is visible in the metrics dump.
        std::int64_t quant_tiles = 0;
        for (std::size_t t = 0; t < work.tiles.size(); ++t) {
            const Action &action =
                logic_.per_context[work.contexts[t]];
            if (action.kind == ActionKind::RunModel &&
                zoo_->entries[action.model].runsQuantized()) {
                ++quant_tiles;
            }
        }
        KODAN_COUNT_ADD("runtime.tiles.modeled_quant", quant_tiles);
        // Per-technique modeled compute split: tiling/classification is
        // the context-engine pass; specialization is the model time on
        // non-elided tiles; elision's effect is the modeled time the
        // reference model would have spent on the elided tiles.
        KODAN_GAUGE_ADD("runtime.time.tiling_classification_s",
                        engine_total);
        KODAN_GAUGE_ADD("runtime.time.specialization_s",
                        report.compute_time - engine_total);
        const std::int64_t elided =
            report.tiles_discarded + report.tiles_downlinked;
        if (elided > 0 && !zoo_->entries.empty()) {
            const ZooEntry &ref = zoo_->entries[zoo_->reference];
            const std::size_t ref_params =
                hw::CostModel::tierParamCount(ref.tier);
            const double reference_tile_time =
                ref.runsQuantized()
                    ? hw::CostModel::modelTimeQuant(ref_params, target_)
                    : hw::CostModel::modelTime(ref_params, target_);
            KODAN_GAUGE_ADD("runtime.time.elision_saved_s",
                            reference_tile_time *
                                static_cast<double>(elided));
        }
        KODAN_HISTOGRAM("runtime.frame.compute_time_s",
                        report.compute_time, 0.5, 1.0, 2.0, 4.7, 10.0,
                        22.0, 60.0, 120.0);
        // Mission-time series, binned by the frame's capture stamp:
        // where the histogram answers "how long do frames take", these
        // answer "how did compute and value density evolve over the
        // pass".
        KODAN_TS_RECORD("runtime.frame.compute_s", work.frame->time,
                        report.compute_time, 60.0);
        KODAN_TS_RECORD("runtime.frame.dvd_contribution",
                        work.frame->time, report.product_high_fraction,
                        60.0);
    }
    if (telemetry::journalEnabled()) {
        // Flight-recorder entries: the per-frame technique decision and
        // the elision verdict. Derived purely from the finished report —
        // no feedback into the computation.
        telemetry::JournalEventBuilder("runtime.frame.decision")
            .i64("tiles_discarded", report.tiles_discarded)
            .i64("tiles_downlinked", report.tiles_downlinked)
            .i64("tiles_modeled", report.tiles_modeled)
            .f64("compute_time_s", report.compute_time)
            .f64("product_fraction", report.product_fraction)
            .f64("dvd_contribution", report.product_high_fraction);
        const std::int64_t elided =
            report.tiles_discarded + report.tiles_downlinked;
        const std::int64_t tiles = elided + report.tiles_modeled;
        telemetry::JournalEventBuilder("runtime.frame.elision")
            .text("verdict", elided == 0          ? "none"
                             : elided == tiles    ? "full"
                                                  : "partial")
            .i64("tiles_elided", elided)
            .i64("tiles_total", tiles);
    }
}

FrameReport
Runtime::runBatch(std::size_t frames, std::vector<FrameReport> &reports,
                  const std::function<void(std::uint64_t region)> &run)
{
    if (frames == 0) {
        return {};
    }
    KODAN_TRACE_SCOPE("runtime.batch.process");
    KODAN_COUNT_ADD("runtime.frames.batched", frames);
    telemetry::JournalRegion journal_region("runtime.batch");
    reports.resize(frames);
    run(journal_region.id());
    FrameReport total = aggregate(reports);
    if (telemetry::journalEnabled()) {
        telemetry::JournalEventBuilder("runtime.batch.aggregate")
            .i64("frames", static_cast<std::int64_t>(frames))
            .f64("mean_compute_time_s", total.compute_time)
            .f64("mean_product_fraction", total.product_fraction)
            .i64("tiles_discarded", total.tiles_discarded)
            .i64("tiles_downlinked", total.tiles_downlinked)
            .i64("tiles_modeled", total.tiles_modeled);
    }
    return total;
}

FrameReport
Runtime::processFrames(const std::vector<data::FrameSample> &frames) const
{
    // Frames are independent; per-frame reports land at their frame
    // index, so the aggregate is bit-identical to the serial loop for
    // any thread count.
    std::vector<FrameReport> reports;
    return runBatch(frames.size(), reports, [&](std::uint64_t region) {
        util::parallelFor(frames.size(), [&](std::size_t i) {
            telemetry::JournalScope journal_scope(region, i);
            reports[i] = processFrame(frames[i]);
        });
    });
}

FrameReport
Runtime::aggregate(const std::vector<FrameReport> &reports)
{
    FrameReport total;
    if (reports.empty()) {
        return total;
    }
    for (const auto &report : reports) {
        total.compute_time += report.compute_time;
        total.product_fraction += report.product_fraction;
        total.product_high_fraction += report.product_high_fraction;
        total.tiles_discarded += report.tiles_discarded;
        total.tiles_downlinked += report.tiles_downlinked;
        total.tiles_modeled += report.tiles_modeled;
        total.cells.merge(report.cells);
    }
    const double n = static_cast<double>(reports.size());
    total.compute_time /= n;
    total.product_fraction /= n;
    total.product_high_fraction /= n;
    return total;
}

FrameReport
Runtime::mergeAggregates(const FrameReport &a, std::size_t frames_a,
                         const FrameReport &b, std::size_t frames_b)
{
    if (frames_a == 0) {
        return b;
    }
    if (frames_b == 0) {
        return a;
    }
    const double na = static_cast<double>(frames_a);
    const double nb = static_cast<double>(frames_b);
    const double n = na + nb;
    FrameReport total;
    // The per-frame means must be recombined weighted by frame count;
    // (a.x + b.x) / 2 would be the mean-of-means bug for na != nb.
    total.compute_time = (a.compute_time * na + b.compute_time * nb) / n;
    total.product_fraction =
        (a.product_fraction * na + b.product_fraction * nb) / n;
    total.product_high_fraction =
        (a.product_high_fraction * na + b.product_high_fraction * nb) / n;
    total.tiles_discarded = a.tiles_discarded + b.tiles_discarded;
    total.tiles_downlinked = a.tiles_downlinked + b.tiles_downlinked;
    total.tiles_modeled = a.tiles_modeled + b.tiles_modeled;
    total.cells = a.cells;
    total.cells.merge(b.cells);
    return total;
}

} // namespace kodan::core
