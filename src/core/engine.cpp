#include "core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <string>

#include "ml/kernels.hpp"
#include "util/log.hpp"

namespace kodan::core {

namespace {

ml::MlpConfig
engineConfig(int context_count)
{
    ml::MlpConfig config;
    config.input_dim = ContextEngine::kInputDim;
    config.hidden = {24, 16};
    config.output_dim = context_count;
    config.output = ml::OutputKind::Softmax;
    return config;
}

void
rawInput(const data::TileData &tile, double *out)
{
    for (int ch = 0; ch < data::kFeatureDim; ++ch) {
        out[ch] = tile.feature_mean[ch];
        out[data::kFeatureDim + ch] = tile.feature_std[ch];
    }
}

} // namespace

ContextEngine::ContextEngine(const std::vector<data::TileData> &tiles,
                             const Partition &partition, util::Rng &rng)
    : context_count_(partition.context_count),
      net_(engineConfig(partition.context_count), rng)
{
    assert(!tiles.empty());
    assert(tiles.size() == partition.assignment.size());

    ml::Matrix x(tiles.size(), kInputDim);
    std::vector<double> targets(tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        rawInput(tiles[i], x.row(i));
        targets[i] = static_cast<double>(partition.assignment[i]);
    }
    scaler_.fit(x);
    const ml::Matrix scaled = scaler_.transform(x);

    ml::TrainOptions options;
    options.epochs = 8;
    options.batch_size = 64;
    options.learning_rate = 3.0e-3;
    net_.train(scaled, targets, options, rng);
}

void
ContextEngine::tileInput(const data::TileData &tile, double *out) const
{
    rawInput(tile, out);
    scaler_.transformRow(out);
}

void
ContextEngine::classifyBatch(const std::vector<data::TileData> &tiles,
                             std::vector<int> &out) const
{
    const std::size_t n = tiles.size();
    out.resize(n);
    if (n == 0) {
        return;
    }
    auto &arena = ml::kernels::scratch();
    ml::kernels::Scratch::Frame frame(arena);
    double *inputs = arena.alloc(n * kInputDim);
    for (std::size_t i = 0; i < n; ++i) {
        tileInput(tiles[i], inputs + i * kInputDim);
    }
    const auto classes = static_cast<std::size_t>(context_count_);
    double *probs = arena.alloc(n * classes);
    net_.forwardBatch(inputs, n, probs);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = probs + i * classes;
        // First-of-equals argmax.
        out[i] = static_cast<int>(std::max_element(row, row + classes) -
                                  row);
    }
}

ContextEngine::ContextEngine(int context_count, ml::Standardizer scaler,
                             ml::Mlp net)
    : context_count_(context_count), scaler_(std::move(scaler)),
      net_(std::move(net))
{
}

void
ContextEngine::save(std::ostream &os) const
{
    os << "context-engine " << context_count_ << '\n';
    scaler_.save(os);
    net_.save(os);
}

ContextEngine
ContextEngine::load(std::istream &is)
{
    std::string tag;
    int context_count = 0;
    is >> tag;
    if (tag != "context-engine") {
        util::fatal("ContextEngine::load: expected 'context-engine', got '" +
                    tag + "'");
    }
    is >> context_count;
    if (!is || context_count < 1) {
        util::fatal("ContextEngine::load: needs at least one context");
    }
    // The runtime indexes by these widths: tileInput writes kInputDim
    // values and transformRow standardizes as many as the scaler
    // holds, and classifyBatch reads context_count outputs per row.
    ml::Standardizer scaler = ml::Standardizer::load(is);
    if (scaler.mean().size() != static_cast<std::size_t>(kInputDim)) {
        util::fatal("ContextEngine::load: scaler has " +
                    std::to_string(scaler.mean().size()) +
                    " dimensions, the engine input has " +
                    std::to_string(kInputDim));
    }
    ml::Mlp net = ml::Mlp::load(is);
    if (net.config().input_dim != kInputDim) {
        util::fatal("ContextEngine::load: net takes " +
                    std::to_string(net.config().input_dim) +
                    " inputs, the engine input has " +
                    std::to_string(kInputDim));
    }
    if (net.config().output_dim != context_count) {
        util::fatal("ContextEngine::load: net has " +
                    std::to_string(net.config().output_dim) +
                    " outputs for " + std::to_string(context_count) +
                    " contexts");
    }
    return ContextEngine(context_count, std::move(scaler),
                         std::move(net));
}

double
ContextEngine::agreement(const std::vector<data::TileData> &tiles,
                         const Partition &partition) const
{
    if (tiles.empty()) {
        return 0.0;
    }
    std::vector<int> contexts;
    classifyBatch(tiles, contexts);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        if (contexts[i] == partition.assignTile(tiles[i])) {
            ++correct;
        }
    }
    return static_cast<double>(correct) / tiles.size();
}

} // namespace kodan::core
