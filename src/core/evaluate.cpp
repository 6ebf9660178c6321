#include "core/evaluate.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/runtime.hpp"
#include "ml/kernels.hpp"
#include "orbit/propagator.hpp"
#include "sense/camera.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace kodan::core {

SystemProfile
SystemProfile::landsat8(hw::Target target, double prevalence,
                        double downlink_bits_per_day)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    const auto camera = sense::CameraModel::landsat8Multispectral();

    SystemProfile profile;
    profile.target = target;
    profile.frame_deadline = camera.framePeriod(sat.groundTrackSpeed());
    profile.frames_per_day = util::kSecondsPerDay / profile.frame_deadline;
    profile.frame_bits = camera.frameBits();
    profile.downlink_bits_per_day = downlink_bits_per_day;
    profile.prevalence = prevalence;
    return profile;
}

int
ContextActionTable::findAction(int context, const Action &action) const
{
    assert(context >= 0 && context < contextCount());
    const auto &cands = actions[context];
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (cands[i] == action) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

DeploymentEvaluator::DeploymentEvaluator(const SpecializedZoo *zoo,
                                         const ContextEngine *engine)
    : zoo_(zoo), engine_(engine)
{
    assert(zoo != nullptr);
}

namespace {

/** Per-(context, candidate) accumulators. */
struct ActionAccum
{
    double total_cells = 0.0;
    double kept_cells = 0.0;
    double kept_high_cells = 0.0;
    double correct_cells = 0.0;

    ActionStats finish(std::size_t model_params) const
    {
        ActionStats stats;
        if (total_cells > 0.0) {
            stats.bits_fraction = kept_cells / total_cells;
            stats.high_fraction = kept_high_cells / total_cells;
            stats.cell_accuracy = correct_cells / total_cells;
        }
        stats.model_params = model_params;
        return stats;
    }
};

/** Per-block truth counts of one tile. */
struct BlockTruth
{
    std::array<double, data::kBlocksPerTile> high{};
    std::array<double, data::kBlocksPerTile> total{};
    double tile_high = 0.0;
    double tile_total = 0.0;

    explicit BlockTruth(const data::TileData &tile)
    {
        // Integer counts, so the doubles are exact.
        std::array<int, data::kBlocksPerTile> high_cells{};
        std::array<int, data::kBlocksPerTile> cells{};
        tile.blockTruth(high_cells, cells);
        for (int b = 0; b < data::kBlocksPerTile; ++b) {
            high[b] = high_cells[b];
            total[b] = cells[b];
            tile_high += high[b];
            tile_total += total[b];
        }
    }
};

/**
 * The evaluator's one scoring loop. Standardizes the blocks of
 * @p tiles into one batch, runs each zoo entry of @p models over it at
 * @p precision, and adds every tile's blocks to that model's
 * accumulator in @p accums: tiles in order, then blocks in order, a
 * block kept exactly when Runtime::keepFromProbs keeps it.
 * @p truths[i] holds the truth counts of @p tiles[i].
 */
void
scoreTiles(const SpecializedZoo &zoo, ml::Precision precision,
           const std::vector<const data::TileData *> &tiles,
           const std::vector<const BlockTruth *> &truths,
           const std::vector<int> &models, ActionAccum *accums)
{
    constexpr auto kBlocks = static_cast<std::size_t>(data::kBlocksPerTile);
    auto &arena = ml::kernels::scratch();
    ml::kernels::Scratch::Frame scratch_frame(arena);
    const std::size_t rows = tiles.size() * kBlocks;
    double *scaled = arena.alloc(rows * data::kBlockInputDim);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        zoo.tileInputs(*tiles[t],
                       scaled + t * kBlocks * data::kBlockInputDim);
    }
    double *probs = arena.alloc(rows);
    auto *keep = arena.allocArray<std::uint8_t>(rows);
    for (std::size_t m = 0; m < models.size(); ++m) {
        zoo.predictRows(models[m], scaled, rows, probs, precision);
        Runtime::keepFromProbs(probs, rows, keep);
        ActionAccum &accum = accums[m];
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            const BlockTruth &truth = *truths[t];
            accum.total_cells += truth.tile_total;
            const std::uint8_t *tile_keep = keep + t * kBlocks;
            for (int b = 0; b < data::kBlocksPerTile; ++b) {
                if (truth.total[b] <= 0.0) {
                    continue;
                }
                if (tile_keep[b] != 0) {
                    // Block kept as high-value.
                    accum.kept_cells += truth.total[b];
                    accum.kept_high_cells += truth.high[b];
                    accum.correct_cells += truth.high[b];
                } else {
                    accum.correct_cells += truth.total[b] - truth.high[b];
                }
            }
        }
    }
}

} // namespace

ContextActionTable
DeploymentEvaluator::measureTable(
    const std::vector<data::FrameSample> &frames, int tiles_per_side) const
{
    KODAN_TRACE_SCOPE("evaluate.table.measure");
    assert(engine_ != nullptr);
    const int context_count = engine_->contextCount();

    ContextActionTable table;
    table.tiles_per_side = tiles_per_side;
    table.contexts.resize(context_count);
    table.actions.resize(context_count);
    table.stats.resize(context_count);

    // Candidate actions per context: Discard, Downlink, applicable models.
    std::vector<std::vector<int>> model_cands(context_count);
    for (int c = 0; c < context_count; ++c) {
        table.actions[c].push_back({ActionKind::Discard, -1});
        table.actions[c].push_back({ActionKind::Downlink, -1});
        model_cands[c] = zoo_->candidatesFor(c);
        for (int entry : model_cands[c]) {
            table.actions[c].push_back({ActionKind::RunModel, entry});
        }
    }

    std::vector<std::vector<ActionAccum>> accums(context_count);
    for (int c = 0; c < context_count; ++c) {
        accums[c].resize(table.actions[c].size());
    }
    std::vector<double> context_tiles(context_count, 0.0);
    std::vector<double> context_cells(context_count, 0.0);
    std::vector<double> context_high(context_count, 0.0);
    double total_tiles = 0.0;

    const ml::Precision precision = ml::precision();
    const data::Tiler tiler(tiles_per_side);
    std::vector<int> tile_contexts;
    std::vector<std::vector<const data::TileData *>> group_tiles(
        context_count);
    std::vector<std::vector<const BlockTruth *>> group_truths(
        context_count);
    for (const auto &frame : frames) {
        const auto tiles = tiler.tile(frame);
        // One batched engine forward per frame instead of one matvec
        // chain per tile.
        engine_->classifyBatch(tiles, tile_contexts);
        std::vector<BlockTruth> truths;
        truths.reserve(tiles.size());
        for (int ctx = 0; ctx < context_count; ++ctx) {
            group_tiles[ctx].clear();
            group_truths[ctx].clear();
        }
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            const auto &tile = tiles[t];
            const int ctx = tile_contexts[t];
            truths.emplace_back(tile);
            const BlockTruth &truth = truths.back();
            ++context_tiles[ctx];
            ++total_tiles;
            context_cells[ctx] += truth.tile_total;
            context_high[ctx] += truth.tile_high;

            auto &ctx_accums = accums[ctx];
            // Candidate 0: Discard — keep nothing; low-value labels are
            // correct on cloudy cells.
            ctx_accums[0].total_cells += truth.tile_total;
            ctx_accums[0].correct_cells +=
                truth.tile_total - truth.tile_high;
            // Candidate 1: Downlink — keep everything raw.
            ctx_accums[1].total_cells += truth.tile_total;
            ctx_accums[1].kept_cells += truth.tile_total;
            ctx_accums[1].kept_high_cells += truth.tile_high;
            ctx_accums[1].correct_cells += truth.tile_high;
            group_tiles[ctx].push_back(&tile);
            group_truths[ctx].push_back(&truth);
        }
        // Model candidates: one standardized block batch per context
        // covering every one of its tiles in this frame, shared by all
        // of the context's candidates — the frame's inference collapses
        // to one GEMM chain per candidate.
        for (int ctx = 0; ctx < context_count; ++ctx) {
            if (!group_tiles[ctx].empty()) {
                scoreTiles(*zoo_, precision, group_tiles[ctx],
                           group_truths[ctx], model_cands[ctx],
                           accums[ctx].data() + 2);
            }
        }
    }

    for (int c = 0; c < context_count; ++c) {
        table.contexts[c].id = c;
        table.contexts[c].tile_share =
            total_tiles > 0.0 ? context_tiles[c] / total_tiles : 0.0;
        table.contexts[c].prevalence =
            context_cells[c] > 0.0 ? context_high[c] / context_cells[c]
                                   : 0.0;
        table.stats[c].reserve(table.actions[c].size());
        for (std::size_t a = 0; a < table.actions[c].size(); ++a) {
            const Action &action = table.actions[c][a];
            const std::size_t params =
                action.kind == ActionKind::RunModel
                    ? hw::CostModel::tierParamCount(
                          zoo_->entries[action.model].tier)
                    : 0;
            ActionStats stats = accums[c][a].finish(params);
            stats.quantized =
                action.kind == ActionKind::RunModel &&
                zoo_->entries[action.model].runsQuantized(precision);
            table.stats[c].push_back(stats);
        }
    }
    return table;
}

ContextActionTable
DeploymentEvaluator::measureDirectTable(
    const std::vector<data::FrameSample> &frames, int tiles_per_side) const
{
    KODAN_TRACE_SCOPE("evaluate.direct.measure");
    ContextActionTable table;
    table.tiles_per_side = tiles_per_side;
    table.contexts.resize(1);
    table.actions.resize(1);
    table.stats.resize(1);
    table.actions[0].push_back({ActionKind::RunModel, zoo_->reference});

    const ml::Precision precision = ml::precision();
    ActionAccum accum;
    double cells = 0.0;
    double high = 0.0;
    const data::Tiler tiler(tiles_per_side);
    for (const auto &frame : frames) {
        const auto tiles = tiler.tile(frame);
        std::vector<BlockTruth> truths;
        truths.reserve(tiles.size());
        std::vector<const data::TileData *> tile_ptrs;
        std::vector<const BlockTruth *> truth_ptrs;
        for (const auto &tile : tiles) {
            truths.emplace_back(tile);
            cells += truths.back().tile_total;
            high += truths.back().tile_high;
            tile_ptrs.push_back(&tile);
            truth_ptrs.push_back(&truths.back());
        }
        // One standardized batch + one forward chain per frame.
        scoreTiles(*zoo_, precision, tile_ptrs, truth_ptrs,
                   {zoo_->reference}, &accum);
    }
    table.contexts[0].id = 0;
    table.contexts[0].tile_share = 1.0;
    table.contexts[0].prevalence = cells > 0.0 ? high / cells : 0.0;
    table.contexts[0].description = "all";
    ActionStats direct_stats = accum.finish(
        hw::CostModel::tierParamCount(zoo_->entries[zoo_->reference].tier));
    direct_stats.quantized =
        zoo_->entries[zoo_->reference].runsQuantized(precision);
    table.stats[0].push_back(direct_stats);
    return table;
}

ActionStats
DeploymentEvaluator::measureModelOnTiles(
    int entry, const std::vector<const data::TileData *> &tiles,
    ml::Precision precision) const
{
    std::vector<BlockTruth> truths;
    truths.reserve(tiles.size());
    std::vector<const BlockTruth *> truth_ptrs;
    for (const data::TileData *tile : tiles) {
        truths.emplace_back(*tile);
        truth_ptrs.push_back(&truths.back());
    }
    ActionAccum accum;
    scoreTiles(*zoo_, precision, tiles, truth_ptrs, {entry}, &accum);
    ActionStats stats = accum.finish(
        hw::CostModel::tierParamCount(zoo_->entries[entry].tier));
    stats.quantized = zoo_->entries[entry].runsQuantized(precision);
    return stats;
}

DeploymentOutcome
evaluateLogic(const SystemProfile &profile, const ContextActionTable &table,
              const std::vector<Action> &per_context,
              bool use_context_engine, bool send_unprocessed_raw,
              bool force_quant_time)
{
    assert(static_cast<int>(per_context.size()) == table.contextCount());

    const double tiles_per_frame =
        static_cast<double>(table.tiles_per_side) * table.tiles_per_side;
    const double tile_bits = profile.frame_bits / tiles_per_frame;
    const double engine_time =
        use_context_engine ? hw::CostModel::contextEngineTime(profile.target)
                           : 0.0;

    struct Pool
    {
        double bits;
        double high;
    };
    std::vector<Pool> pools;
    DeploymentOutcome outcome;
    double share_total = 0.0;

    for (int c = 0; c < table.contextCount(); ++c) {
        const double share = table.contexts[c].tile_share;
        if (share <= 0.0) {
            continue;
        }
        const int idx = table.findAction(c, per_context[c]);
        assert(idx >= 0 && "action not in candidate table");
        const ActionStats &stats = table.stats[c][idx];
        const bool quant_time = stats.quantized || force_quant_time;
        const double action_time =
            per_context[c].kind == ActionKind::RunModel
                ? (quant_time
                       ? hw::CostModel::modelTimeQuant(stats.model_params,
                                                       profile.target)
                       : hw::CostModel::modelTime(stats.model_params,
                                                  profile.target))
                : 0.0;
        outcome.frame_time +=
            share * tiles_per_frame * (engine_time + action_time);
        outcome.cell_accuracy += share * stats.cell_accuracy;
        share_total += share;
        pools.push_back(
            {share * tiles_per_frame * tile_bits * stats.bits_fraction,
             share * tiles_per_frame * tile_bits * stats.high_fraction});
    }
    if (share_total > 0.0) {
        outcome.cell_accuracy /= share_total;
    }

    outcome.processed_fraction =
        outcome.frame_time <= profile.frame_deadline
            ? 1.0
            : profile.frame_deadline / outcome.frame_time;

    // Daily volumes.
    const double processed_frames =
        profile.frames_per_day * outcome.processed_fraction;
    double product_bits = 0.0;
    double product_high = 0.0;
    for (auto &pool : pools) {
        pool.bits *= processed_frames;
        pool.high *= processed_frames;
        product_bits += pool.bits;
        product_high += pool.high;
    }
    outcome.product_precision =
        product_bits > 0.0 ? product_high / product_bits : 1.0;

    if (send_unprocessed_raw) {
        const double raw_frames =
            profile.frames_per_day - processed_frames;
        pools.push_back({raw_frames * profile.frame_bits,
                         raw_frames * profile.frame_bits *
                             profile.prevalence});
    }

    // Drain the saturated downlink, best pools first; the raw pool sorts
    // by its prevalence density like any other.
    std::sort(pools.begin(), pools.end(), [](const Pool &a, const Pool &b) {
        const double da = a.bits > 0.0 ? a.high / a.bits : 0.0;
        const double db = b.bits > 0.0 ? b.high / b.bits : 0.0;
        return da > db;
    });
    double budget = profile.downlink_bits_per_day;
    for (const auto &pool : pools) {
        if (budget <= 0.0 || pool.bits <= 0.0) {
            continue;
        }
        const double sent = std::min(budget, pool.bits);
        outcome.bits_sent += sent;
        outcome.high_bits_sent += pool.high * (sent / pool.bits);
        budget -= sent;
    }
    outcome.dvd = outcome.bits_sent > 0.0
                      ? outcome.high_bits_sent / outcome.bits_sent
                      : 0.0;
    const double observed_high =
        profile.frames_per_day * profile.frame_bits * profile.prevalence;
    outcome.high_value_yield =
        observed_high > 0.0 ? outcome.high_bits_sent / observed_high : 0.0;
    return outcome;
}

DeploymentOutcome
bentPipeOutcome(const SystemProfile &profile)
{
    DeploymentOutcome outcome;
    outcome.frame_time = 0.0;
    outcome.processed_fraction = 0.0;
    const double observed = profile.frames_per_day * profile.frame_bits;
    outcome.bits_sent = std::min(profile.downlink_bits_per_day, observed);
    outcome.high_bits_sent = outcome.bits_sent * profile.prevalence;
    outcome.dvd = profile.prevalence;
    outcome.product_precision = profile.prevalence;
    outcome.cell_accuracy = profile.prevalence;
    outcome.high_value_yield =
        observed > 0.0 ? outcome.bits_sent / observed : 0.0;
    return outcome;
}

} // namespace kodan::core
