#include "core/io.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "data/tiler.hpp"
#include "util/log.hpp"

namespace kodan::core {

namespace {

/**
 * Version 2 adds the per-row quantized flag to tables (the int8
 * inference path) and per-entry activation scales to zoos. Stale
 * version-1 caches are regenerated via tryLoadBundle().
 */
constexpr int kBundleVersion = 2;

void
expectTag(std::istream &is, const std::string &expected)
{
    std::string tag;
    is >> tag;
    if (tag != expected) {
        util::fatal("kodan::core::io: expected '" + expected + "', got '" +
                    tag + "'");
    }
}

/** The ActionKind stored as @p code; fatal when it names none. */
ActionKind
actionKindFrom(int code)
{
    if (code < static_cast<int>(ActionKind::Discard) ||
        code > static_cast<int>(ActionKind::RunModel)) {
        util::fatal("kodan::core::io: action kind " +
                    std::to_string(code) + " is out of range");
    }
    return static_cast<ActionKind>(code);
}

} // namespace

void
saveTable(std::ostream &os, const ContextActionTable &table)
{
    os << "table " << table.tiles_per_side << ' ' << table.contextCount()
       << '\n';
    os.precision(17);
    for (int c = 0; c < table.contextCount(); ++c) {
        const auto &info = table.contexts[c];
        os << "context " << info.id << ' ' << info.tile_share << ' '
           << info.prevalence << ' '
           << (info.description.empty() ? "-" : info.description) << ' '
           << table.actions[c].size() << '\n';
        for (std::size_t a = 0; a < table.actions[c].size(); ++a) {
            const Action &action = table.actions[c][a];
            const ActionStats &stats = table.stats[c][a];
            os << static_cast<int>(action.kind) << ' ' << action.model
               << ' ' << stats.bits_fraction << ' ' << stats.high_fraction
               << ' ' << stats.cell_accuracy << ' ' << stats.model_params
               << ' ' << (stats.quantized ? 1 : 0) << '\n';
        }
    }
}

ContextActionTable
loadTable(std::istream &is)
{
    expectTag(is, "table");
    ContextActionTable table;
    int contexts = 0;
    is >> table.tiles_per_side >> contexts;
    if (!is || contexts < 0) {
        util::fatal("kodan::core::io: malformed table header");
    }
    // The declared counts size nothing: each context and action is
    // appended as it is read, and reading stops at the first stream
    // failure, so memory grows only with the input.
    for (int c = 0; c < contexts; ++c) {
        expectTag(is, "context");
        std::size_t action_count = 0;
        auto &info = table.contexts.emplace_back();
        is >> info.id >> info.tile_share >> info.prevalence >>
            info.description >> action_count;
        if (info.description == "-") {
            info.description.clear();
        }
        auto &actions = table.actions.emplace_back();
        auto &stats_row = table.stats.emplace_back();
        for (std::size_t a = 0; a < action_count && is; ++a) {
            int kind = 0;
            Action action;
            ActionStats stats;
            int quantized = 0;
            is >> kind >> action.model >> stats.bits_fraction >>
                stats.high_fraction >> stats.cell_accuracy >>
                stats.model_params >> quantized;
            action.kind = actionKindFrom(kind);
            stats.quantized = quantized != 0;
            actions.push_back(action);
            stats_row.push_back(stats);
        }
    }
    if (!is) {
        util::fatal("kodan::core::io: truncated table");
    }
    return table;
}

void
saveBundle(std::ostream &os, const MeasuredBundle &bundle)
{
    os << "kodan-bundle " << kBundleVersion << '\n';
    os.precision(17);
    os << bundle.prevalence << ' ' << bundle.apps.size() << '\n';
    for (const auto &app : bundle.apps) {
        os << "app " << app.tier << ' ' << app.direct_tiles_per_frame
           << ' ' << app.tables.size() << ' ' << app.direct_tables.size()
           << '\n';
        for (const auto &table : app.tables) {
            saveTable(os, table);
        }
        for (const auto &table : app.direct_tables) {
            saveTable(os, table);
        }
    }
}

MeasuredBundle
loadBundle(std::istream &is)
{
    expectTag(is, "kodan-bundle");
    MeasuredBundle bundle;
    is >> bundle.version;
    if (bundle.version != kBundleVersion) {
        util::fatal("kodan::core::io: bundle version mismatch");
    }
    std::size_t app_count = 0;
    is >> bundle.prevalence >> app_count;
    for (std::size_t i = 0; i < app_count; ++i) {
        expectTag(is, "app");
        MeasuredApp app;
        std::size_t tables = 0;
        std::size_t direct_tables = 0;
        is >> app.tier >> app.direct_tiles_per_frame >> tables >>
            direct_tables;
        for (std::size_t t = 0; t < tables; ++t) {
            app.tables.push_back(loadTable(is));
        }
        for (std::size_t t = 0; t < direct_tables; ++t) {
            app.direct_tables.push_back(loadTable(is));
        }
        bundle.apps.push_back(std::move(app));
    }
    if (!is) {
        util::fatal("kodan::core::io: truncated bundle");
    }
    return bundle;
}

void
saveLogic(std::ostream &os, const SelectionLogic &logic)
{
    os << "selection-logic " << logic.tiles_per_side << ' '
       << logic.per_context.size() << '\n';
    for (const Action &action : logic.per_context) {
        os << static_cast<int>(action.kind) << ' ' << action.model
           << '\n';
    }
}

SelectionLogic
loadLogic(std::istream &is)
{
    expectTag(is, "selection-logic");
    SelectionLogic logic;
    std::size_t contexts = 0;
    is >> logic.tiles_per_side >> contexts;
    if (is && logic.tiles_per_side < 1) {
        util::fatal("kodan::core::io: selection logic tiles " +
                    std::to_string(logic.tiles_per_side) +
                    " per side; needs at least 1");
    }
    // As in loadTable: grow with the input, not the declared count.
    for (std::size_t c = 0; c < contexts && is; ++c) {
        int kind = 0;
        Action action;
        is >> kind >> action.model;
        action.kind = actionKindFrom(kind);
        logic.per_context.push_back(action);
    }
    if (!is) {
        util::fatal("kodan::core::io: truncated selection logic");
    }
    return logic;
}

void
saveZoo(std::ostream &os, const SpecializedZoo &zoo)
{
    os << "zoo " << zoo.entries.size() << ' ' << zoo.reference << '\n';
    zoo.scaler.save(os);
    for (const auto &entry : zoo.entries) {
        os << "entry " << entry.tier << ' ' << entry.context << '\n';
        entry.net.save(os);
        // The int8 sibling round-trips as its calibrated activation
        // scales alone: the quantized weights are a pure function of
        // the fp64 net and those scales, so reconstruction is exact
        // and the on-disk format stays small.
        if (entry.quant != nullptr) {
            const auto &scales = entry.quant->actScales();
            os << "quant " << scales.size();
            os.precision(17);
            for (const double s : scales) {
                os << ' ' << s;
            }
            os << '\n';
        } else {
            os << "noquant\n";
        }
    }
}

SpecializedZoo
loadZoo(std::istream &is)
{
    expectTag(is, "zoo");
    std::size_t entries = 0;
    SpecializedZoo zoo;
    is >> entries >> zoo.reference;
    // SpecializedZoo::tileInputs writes and standardizes exactly
    // kBlockInputDim channels per row, and every model maps such a row
    // to one cloud probability.
    zoo.scaler = ml::Standardizer::load(is);
    if (zoo.scaler.mean().size() !=
        static_cast<std::size_t>(data::kBlockInputDim)) {
        util::fatal("kodan::core::io: zoo scaler has " +
                    std::to_string(zoo.scaler.mean().size()) +
                    " dimensions, model inputs have " +
                    std::to_string(data::kBlockInputDim));
    }
    for (std::size_t e = 0; e < entries; ++e) {
        expectTag(is, "entry");
        int tier = 0;
        int context = 0;
        is >> tier >> context;
        ml::Mlp net = ml::Mlp::load(is);
        if (net.config().input_dim != data::kBlockInputDim ||
            net.config().output_dim != 1) {
            util::fatal("kodan::core::io: zoo entry " + std::to_string(e) +
                        " maps " + std::to_string(net.config().input_dim) +
                        " inputs to " +
                        std::to_string(net.config().output_dim) +
                        " outputs; models map " +
                        std::to_string(data::kBlockInputDim) + " to 1");
        }
        zoo.entries.push_back(ZooEntry{std::move(net), tier, context});
        std::string quant_tag;
        is >> quant_tag;
        if (quant_tag == "quant") {
            // One activation scale per linear layer, each a finite
            // positive number: checked here because QuantizedMlp only
            // asserts it, and the count sizes an allocation.
            const std::size_t layers = zoo.entries.back().net.layerCount();
            std::size_t scale_count = 0;
            is >> scale_count;
            if (!is || scale_count != layers) {
                util::fatal("kodan::core::io: zoo entry " +
                            std::to_string(e) + " needs " +
                            std::to_string(layers) + " quant scales");
            }
            std::vector<double> scales(scale_count);
            for (auto &s : scales) {
                is >> s;
                if (!is || !std::isfinite(s) || s <= 0.0) {
                    util::fatal("kodan::core::io: zoo entry " +
                                std::to_string(e) +
                                " has a quant scale that is not a "
                                "finite positive number");
                }
            }
            zoo.entries.back().quant =
                std::make_shared<ml::QuantizedMlp>(
                    zoo.entries.back().net, scales);
        } else if (quant_tag != "noquant") {
            util::fatal("kodan::core::io: expected 'quant' or "
                        "'noquant', got '" +
                        quant_tag + "'");
        }
    }
    if (!is) {
        util::fatal("kodan::core::io: truncated zoo");
    }
    if (zoo.reference < 0 ||
        static_cast<std::size_t>(zoo.reference) >= zoo.entries.size()) {
        util::fatal("kodan::core::io: zoo reference " +
                    std::to_string(zoo.reference) + " indexes no entry of " +
                    std::to_string(zoo.entries.size()));
    }
    return zoo;
}

void
DeploymentPackage::save(std::ostream &os) const
{
    os << "kodan-deployment 2 " << static_cast<int>(target) << '\n';
    saveLogic(os, logic);
    engine.save(os);
    saveZoo(os, zoo);
}

DeploymentPackage
DeploymentPackage::load(std::istream &is)
{
    expectTag(is, "kodan-deployment");
    int version = 0;
    int target = 0;
    is >> version >> target;
    if (version != 2) {
        util::fatal("kodan::core::io: deployment version mismatch");
    }
    if (target < 0 || target >= hw::kTargetCount) {
        util::fatal("kodan::core::io: deployment target " +
                    std::to_string(target) + " is out of range");
    }
    SelectionLogic logic = loadLogic(is);
    ContextEngine engine = ContextEngine::load(is);
    SpecializedZoo zoo = loadZoo(is);
    // The runtime indexes the logic by the engine's context ids.
    if (logic.per_context.size() !=
        static_cast<std::size_t>(engine.contextCount())) {
        util::fatal("kodan::core::io: logic has " +
                    std::to_string(logic.per_context.size()) +
                    " contexts, the engine has " +
                    std::to_string(engine.contextCount()));
    }
    // Every model the logic runs must ship in the package's zoo.
    for (const Action &action : logic.per_context) {
        if (action.kind == ActionKind::RunModel &&
            (action.model < 0 ||
             static_cast<std::size_t>(action.model) >= zoo.entries.size())) {
            util::fatal("kodan::core::io: logic runs model " +
                        std::to_string(action.model) + " of a " +
                        std::to_string(zoo.entries.size()) +
                        "-entry zoo");
        }
    }
    return DeploymentPackage{std::move(logic), std::move(engine),
                             std::move(zoo),
                             static_cast<hw::Target>(target)};
}

bool
tryLoadBundle(const std::string &path, MeasuredBundle &bundle)
{
    std::ifstream file(path);
    if (!file) {
        return false;
    }
    // A stale cache from an older format is not an error — report it
    // missing so the caller regenerates (loadBundle would fatal).
    std::string tag;
    int version = 0;
    file >> tag >> version;
    if (tag != "kodan-bundle" || version != kBundleVersion) {
        KODAN_LOG(util::LogLevel::Info,
                  "ignoring incompatible bundle cache at " << path
                  << " (version " << version << ", want "
                  << kBundleVersion << ")");
        return false;
    }
    file.seekg(0);
    bundle = loadBundle(file);
    return true;
}

void
storeBundle(const std::string &path, const MeasuredBundle &bundle)
{
    std::ofstream file(path);
    if (!file) {
        KODAN_LOG(util::LogLevel::Warn,
                  "could not write bundle to " << path);
        return;
    }
    saveBundle(file, bundle);
}

} // namespace kodan::core
