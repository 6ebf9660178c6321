#include "core/transformer.hpp"

#include <cassert>
#include <cmath>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::core {

const ContextActionTable &
AppArtifacts::directTable() const
{
    for (const auto &table : direct_tables) {
        if (table.tiles_per_side * table.tiles_per_side ==
            direct_tiles_per_frame) {
            return table;
        }
    }
    assert(!direct_tables.empty());
    return direct_tables.front();
}

Transformer::Transformer(const TransformOptions &options)
    : options_(options)
{
    assert(options_.train_frames >= 1);
    assert(options_.val_frames >= 1);
    assert(options_.reference_tiling >= 1);
}

DataArtifacts
Transformer::prepareData(const data::GeoModel &geo) const
{
    data::DatasetParams params;
    params.seed = util::splitMix64(options_.seed ^ 0xDA7A);
    data::DatasetGenerator generator(geo, params);
    auto frames = generator.generateGlobal(options_.train_frames +
                                           options_.val_frames);
    std::vector<data::FrameSample> train(
        std::make_move_iterator(frames.begin()),
        std::make_move_iterator(frames.begin() + options_.train_frames));
    std::vector<data::FrameSample> val(
        std::make_move_iterator(frames.begin() + options_.train_frames),
        std::make_move_iterator(frames.end()));
    return prepareData(std::move(train), std::move(val));
}

DataArtifacts
Transformer::prepareData(std::vector<data::FrameSample> train,
                         std::vector<data::FrameSample> val) const
{
    assert(!train.empty() && !val.empty());
    KODAN_TRACE_SCOPE("transformer.data.prepare");
    DataArtifacts shared;
    shared.train = std::move(train);
    shared.val = std::move(val);
    KODAN_COUNT_ADD("transformer.frames.prepared",
                    shared.train.size() + shared.val.size());

    util::Rng rng(util::splitMix64(options_.seed ^ 0x5EED));

    // Tile the training frames at the reference tiling.
    const data::Tiler tiler(options_.reference_tiling);
    {
        KODAN_TRACE_SCOPE("transformer.frames.tile");
        for (const auto &frame : shared.train) {
            auto tiles = tiler.tile(frame);
            shared.train_tiles.insert(
                shared.train_tiles.end(),
                std::make_move_iterator(tiles.begin()),
                std::make_move_iterator(tiles.end()));
        }
    }

    // Legacy corpus: the out-of-domain world the reference applications
    // were originally built for.
    if (options_.legacy_reference) {
        const data::GeoModel legacy_world(
            data::GeoModelParams::legacyDomain());
        data::DatasetParams legacy_params;
        legacy_params.seed = util::splitMix64(options_.seed ^ 0x1E6AC);
        if (!shared.train.empty()) {
            legacy_params.grid = shared.train.front().grid;
            legacy_params.frame_size_m = shared.train.front().size_m;
        }
        data::DatasetGenerator legacy_gen(legacy_world, legacy_params);
        shared.legacy = legacy_gen.generateGlobal(options_.legacy_frames);
        for (const auto &frame : shared.legacy) {
            auto tiles = tiler.tile(frame);
            shared.legacy_tiles.insert(
                shared.legacy_tiles.end(),
                std::make_move_iterator(tiles.begin()),
                std::make_move_iterator(tiles.end()));
        }
    }

    // Contexts: automatic clustering (or expert terrain partition).
    {
        KODAN_TRACE_SCOPE("transformer.contexts.fit");
        const ContextPartitioner partitioner(options_.partition);
        shared.partition =
            options_.expert_contexts
                ? partitioner.fitExpert(shared.train_tiles)
                : partitioner.fitAuto(shared.train_tiles, rng);
    }
    KODAN_COUNT_ADD("transformer.contexts.fitted",
                    shared.partition.context_count);

    // Context engine, trained to imitate the partition from features.
    {
        KODAN_TRACE_SCOPE("transformer.engine.train");
        shared.engine = std::make_unique<ContextEngine>(
            shared.train_tiles, shared.partition, rng);
    }

    // The deployed engine's labels are downstream ground truth.
    shared.engine->classifyBatch(shared.train_tiles, shared.train_contexts);
    shared.contexts =
        summarizeContexts(shared.train_tiles, shared.train_contexts,
                          shared.partition.context_count);

    // Validation diagnostics.
    std::vector<data::TileData> val_tiles;
    for (const auto &frame : shared.val) {
        auto tiles = tiler.tile(frame);
        val_tiles.insert(val_tiles.end(),
                         std::make_move_iterator(tiles.begin()),
                         std::make_move_iterator(tiles.end()));
    }
    shared.engine_agreement =
        shared.engine->agreement(val_tiles, shared.partition);
    double high = 0.0;
    double cells = 0.0;
    for (const auto &frame : shared.val) {
        high += frame.highValueFraction() *
                static_cast<double>(frame.cellCount());
        cells += static_cast<double>(frame.cellCount());
    }
    shared.prevalence = cells > 0.0 ? high / cells : 0.0;
    return shared;
}

AppArtifacts
Transformer::transformApp(const Application &app,
                          const DataArtifacts &shared) const
{
    assert(shared.engine != nullptr);
    KODAN_TRACE_SCOPE("transformer.app.transform");
    AppArtifacts artifacts;
    artifacts.app = app;

    util::Rng rng(util::splitMix64(options_.seed ^
                                   (0xA4B0 + static_cast<std::uint64_t>(
                                                 app.tier))));

    {
        KODAN_TRACE_SCOPE("transformer.zoo.train");
        const ModelSpecializer specializer(app, options_.specialize);
        artifacts.zoo = specializer.trainZoo(
            shared.train_tiles, shared.train_contexts,
            shared.partition.context_count, rng,
            shared.legacy_tiles.empty() ? nullptr
                                        : &shared.legacy_tiles);
    }
    KODAN_COUNT_ADD("transformer.models.trained",
                    artifacts.zoo.entries.size());

    const DeploymentEvaluator evaluator(&artifacts.zoo,
                                        shared.engine.get());

    // Tolerance gate on the int8 siblings: every quantized candidate is
    // measured against its fp64 twin on the validation tiles at the
    // reference tiling, each run named by its precision argument (the
    // process's default precision is never touched, so concurrent
    // transforms cannot see each other's gate); siblings whose cell
    // accuracy or high-value fraction degrade beyond the configured
    // tolerances are rejected (the entry then runs fp64 even under
    // KODAN_QUANT=int8), so the sweep never selects a quantized model
    // that trades away value.
    if (options_.specialize.quantize) {
        KODAN_TRACE_SCOPE("transformer.quant.validate");
        const data::Tiler tiler(options_.reference_tiling);
        std::vector<data::TileData> val_tiles;
        for (const auto &frame : shared.val) {
            auto tiles = tiler.tile(frame);
            val_tiles.insert(val_tiles.end(),
                             std::make_move_iterator(tiles.begin()),
                             std::make_move_iterator(tiles.end()));
        }
        // Deterministic stride subsample: the gate needs a stable
        // accuracy estimate, not the full sweep-grade measurement.
        const std::size_t cap = options_.specialize.quant_gate_max_tiles;
        const std::size_t stride =
            (cap > 0 && val_tiles.size() > cap)
                ? (val_tiles.size() + cap - 1) / cap
                : 1;
        std::vector<const data::TileData *> tile_ptrs;
        tile_ptrs.reserve(val_tiles.size() / stride + 1);
        for (std::size_t t = 0; t < val_tiles.size(); t += stride) {
            tile_ptrs.push_back(&val_tiles[t]);
        }
        std::int64_t rejected = 0;
        for (std::size_t e = 0; e < artifacts.zoo.entries.size(); ++e) {
            if (artifacts.zoo.entries[e].quant == nullptr) {
                continue;
            }
            const ActionStats fp_stats = evaluator.measureModelOnTiles(
                static_cast<int>(e), tile_ptrs, ml::Precision::Fp64);
            const ActionStats q_stats = evaluator.measureModelOnTiles(
                static_cast<int>(e), tile_ptrs, ml::Precision::Int8);
            const double accuracy_drop =
                fp_stats.cell_accuracy - q_stats.cell_accuracy;
            const double value_drop =
                fp_stats.high_fraction - q_stats.high_fraction;
            if (accuracy_drop >
                    options_.specialize.quant_max_accuracy_drop ||
                value_drop > options_.specialize.quant_max_value_drop) {
                artifacts.zoo.entries[e].quant.reset();
                ++rejected;
            }
        }
        KODAN_COUNT_ADD("transformer.quant.rejected", rejected);
        KODAN_COUNT_ADD(
            "transformer.quant.accepted",
            static_cast<std::int64_t>(artifacts.zoo.entries.size()) -
                rejected);
    }

    // Candidate sweep: each tiling's validation pass is independent, so
    // the tilings run in parallel; results land at their sweep index, so
    // table order (and everything downstream) is thread-count invariant.
    const auto &tile_counts = options_.sweep.tile_counts;
    artifacts.tables.resize(tile_counts.size());
    artifacts.direct_tables.resize(tile_counts.size());
    util::parallelFor(tile_counts.size(), [&](std::size_t i) {
        KODAN_TRACE_SCOPE("transformer.table.measure");
        const int side =
            static_cast<int>(std::lround(std::sqrt(tile_counts[i])));
        artifacts.tables[i] = evaluator.measureTable(shared.val, side);
        artifacts.direct_tables[i] =
            evaluator.measureDirectTable(shared.val, side);
        KODAN_COUNT_ADD("transformer.tables.measured", 2);
    });

    // Direct deployment uses the accuracy-maximal tiling (prior work).
    double best_accuracy = -1.0;
    for (const auto &table : artifacts.direct_tables) {
        const double accuracy = table.stats[0][0].cell_accuracy;
        if (accuracy > best_accuracy) {
            best_accuracy = accuracy;
            artifacts.direct_tiles_per_frame =
                table.tiles_per_side * table.tiles_per_side;
        }
    }
    return artifacts;
}

SweepResult
Transformer::select(const AppArtifacts &artifacts,
                    const SystemProfile &profile) const
{
    KODAN_TRACE_SCOPE("transformer.logic.select");
    const SelectionOptimizer optimizer(options_.sweep);
    return optimizer.optimize(profile, artifacts.tables);
}

DeploymentPackage
Transformer::makeDeployment(const DataArtifacts &shared,
                            const AppArtifacts &artifacts,
                            const SystemProfile &profile) const
{
    assert(shared.engine != nullptr);
    SweepResult result = select(artifacts, profile);
    return DeploymentPackage{std::move(result.logic), *shared.engine,
                             artifacts.zoo, profile.target};
}

DeploymentOutcome
Transformer::directDeploy(const AppArtifacts &artifacts,
                          const SystemProfile &profile)
{
    const ContextActionTable &table = artifacts.directTable();
    const std::vector<Action> actions = {
        {ActionKind::RunModel, artifacts.zoo.reference}};
    return evaluateLogic(profile, table, actions,
                         /*use_context_engine=*/false,
                         /*send_unprocessed_raw=*/true);
}

} // namespace kodan::core
