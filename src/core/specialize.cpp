#include "core/specialize.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace kodan::core {

namespace {

/** Flat list of (tile index, block index) training rows. */
struct BlockRef
{
    std::size_t tile;
    int block;
};

/** Collect (and optionally subsample) block references. */
std::vector<BlockRef>
collectBlocks(const std::vector<data::TileData> &tiles,
              const std::vector<int> &contexts, int wanted_context,
              std::size_t cap, util::Rng &rng)
{
    std::vector<BlockRef> refs;
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        if (wanted_context >= 0 && contexts[i] != wanted_context) {
            continue;
        }
        for (int b = 0; b < data::kBlocksPerTile; ++b) {
            refs.push_back({i, b});
        }
    }
    if (refs.size() > cap) {
        const auto perm = rng.permutation(refs.size());
        std::vector<BlockRef> sampled;
        sampled.reserve(cap);
        for (std::size_t i = 0; i < cap; ++i) {
            sampled.push_back(refs[perm[i]]);
        }
        refs.swap(sampled);
    }
    return refs;
}

ml::MlpConfig
tierConfig(int tier)
{
    Application app{tier};
    return app.surrogateConfig();
}

/**
 * Append a jittered copy of every row (visual channels only): the
 * augmentation of paper Section 4.
 */
void
augment(ml::Matrix &x, std::vector<double> &y, double sigma,
        util::Rng &rng)
{
    if (sigma <= 0.0) {
        return;
    }
    const std::size_t n = x.rows();
    ml::Matrix augmented(2 * n, x.cols());
    std::vector<double> targets(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *src = x.row(i);
        double *clean = augmented.row(i);
        double *noisy = augmented.row(n + i);
        for (std::size_t d = 0; d < x.cols(); ++d) {
            clean[d] = src[d];
            noisy[d] = d < data::kVisualDim
                           ? src[d] + rng.normal(0.0, sigma)
                           : src[d];
        }
        targets[i] = y[i];
        targets[n + i] = y[i];
    }
    x = std::move(augmented);
    y = std::move(targets);
}

} // namespace

void
SpecializedZoo::tileInputs(const data::TileData &tile, double *out) const
{
    // Each row is blockInput() standardized by transformRow(): the
    // same (x - mean) / std per channel. The tile-mean channels are
    // equal in every row, so they are standardized once and copied.
    // loadZoo holds the scaler to kBlockInputDim channels.
    assert(scaler.mean().size() ==
           static_cast<std::size_t>(data::kBlockInputDim));
    const double *mean = scaler.mean().data();
    const double *stddev = scaler.stddev().data();
    std::array<double, data::kFeatureDim> context;
    for (int ch = 0; ch < data::kFeatureDim; ++ch) {
        const int d = data::kVisualDim + ch;
        context[ch] = (tile.feature_mean[ch] - mean[d]) / stddev[d];
    }
    // Visual inputs 0-7 read channels 0-6 and the edge channel 9. Local
    // copies of their scaler entries cannot alias `out`, so the loop
    // below vectorizes without reloading them after every store.
    constexpr std::array<int, data::kVisualDim> kVisual = {0, 1, 2, 3,
                                                          4, 5, 6, 9};
    std::array<double, data::kVisualDim> vmean;
    std::array<double, data::kVisualDim> vstd;
    std::copy_n(mean, data::kVisualDim, vmean.begin());
    std::copy_n(stddev, data::kVisualDim, vstd.begin());
    for (int b = 0; b < data::kBlocksPerTile; ++b) {
        const float *features =
            &tile.block_features[static_cast<std::size_t>(b) *
                                 data::kFeatureDim];
        double *row = out + static_cast<std::size_t>(b) *
                                data::kBlockInputDim;
        for (int i = 0; i < data::kVisualDim; ++i) {
            row[i] = (static_cast<double>(features[kVisual[i]]) - vmean[i]) /
                     vstd[i];
        }
        std::copy(context.begin(), context.end(), row + data::kVisualDim);
    }
}

void
SpecializedZoo::predictRows(int entry, const double *scaled,
                            std::size_t rows, double *out,
                            ml::Precision precision) const
{
    assert(entry >= 0 && entry < static_cast<int>(entries.size()));
    // The precision dispatch choke point: the runtime's infer stage
    // (Runtime::stageInfer, shared by both schedulers) and the sweep's
    // measurements all funnel through here.
    const ZooEntry &e = entries[entry];
    if (e.runsQuantized(precision)) {
        e.quant->forwardBatch(scaled, rows, out);
        return;
    }
    e.net.forwardBatch(scaled, rows, out);
}

std::vector<int>
SpecializedZoo::candidatesFor(int context) const
{
    std::vector<int> out;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].context == context || entries[i].context == -1) {
            out.push_back(static_cast<int>(i));
        }
    }
    return out;
}

ModelSpecializer::ModelSpecializer(const Application &app,
                                   const SpecializeOptions &options)
    : app_(app), options_(options)
{
    assert(app.tier >= 1 && app.tier <= hw::kAppCount);
}

SpecializedZoo
ModelSpecializer::trainZoo(
    const std::vector<data::TileData> &tiles,
    const std::vector<int> &contexts, int context_count, util::Rng &rng,
    const std::vector<data::TileData> *legacy_tiles) const
{
    assert(tiles.size() == contexts.size());
    assert(context_count >= 1);

    SpecializedZoo zoo;

    // ---- Reference model: the app architecture trained on its original
    // corpus (the legacy domain when provided, otherwise the
    // representative dataset), truth labels.
    const std::vector<data::TileData> &ref_corpus =
        legacy_tiles != nullptr && !legacy_tiles->empty() ? *legacy_tiles
                                                          : tiles;
    const std::vector<int> no_filter(ref_corpus.size(), -1);
    auto ref_refs = collectBlocks(ref_corpus, no_filter, -1,
                                  options_.max_train_blocks, rng);
    assert(!ref_refs.empty());

    ml::Matrix x(ref_refs.size(), data::kBlockInputDim);
    std::vector<double> y(ref_refs.size());
    for (std::size_t i = 0; i < ref_refs.size(); ++i) {
        ref_corpus[ref_refs[i].tile].blockInput(ref_refs[i].block,
                                                x.row(i));
        y[i] = ref_corpus[ref_refs[i].tile]
                   .block_cloud_fraction[ref_refs[i].block];
    }
    // The scaler is part of the deployed application: it is fit on the
    // (un-augmented) reference corpus, exactly like the normalization
    // constants shipped with a pretrained network.
    zoo.scaler.fit(x);
    augment(x, y, options_.augment_noise, rng);
    const ml::Matrix x_scaled = zoo.scaler.transform(x);

    {
        ml::Mlp net(tierConfig(app_.tier), rng);
        net.train(x_scaled, y, options_.train, rng);
        zoo.entries.push_back(ZooEntry{std::move(net), app_.tier, -1});
        if (options_.quantize) {
            // Calibrated offline on the sweep's own training batch —
            // the rows the deployed model will see are drawn from the
            // same standardized distribution.
            zoo.entries.back().quant =
                std::make_shared<ml::QuantizedMlp>(
                    ml::QuantizedMlp::fromCalibration(
                        zoo.entries.back().net, x_scaled.data().data(),
                        x_scaled.rows()));
        }
    }
    zoo.reference = 0;

    // ---- Specialized candidates: tiers {1, ceil(app/2), app}, dedup.
    std::vector<int> candidate_tiers = {1, (app_.tier + 1) / 2, app_.tier};
    std::sort(candidate_tiers.begin(), candidate_tiers.end());
    candidate_tiers.erase(
        std::unique(candidate_tiers.begin(), candidate_tiers.end()),
        candidate_tiers.end());

    const std::size_t per_context_cap =
        std::max<std::size_t>(1024, options_.max_train_blocks /
                                        static_cast<std::size_t>(
                                            context_count));

    for (int c = 0; c < context_count; ++c) {
        auto refs = collectBlocks(tiles, contexts, c, per_context_cap, rng);
        if (refs.size() < 64) {
            continue; // too little data to specialize for this context
        }
        ml::Matrix cx(refs.size(), data::kBlockInputDim);
        std::vector<double> cy(refs.size());
        for (std::size_t i = 0; i < refs.size(); ++i) {
            const auto &tile = tiles[refs[i].tile];
            tile.blockInput(refs[i].block, cx.row(i));
        }
        {
            const ml::Matrix clean_scaled = zoo.scaler.transform(cx);
            if (options_.labels_from_reference) {
                // The deployed reference application labels the data —
                // one batched forward pass over every candidate row.
                zoo.entries[zoo.reference].net.forwardBatch(
                    clean_scaled.data().data(), refs.size(), cy.data());
            } else {
                for (std::size_t i = 0; i < refs.size(); ++i) {
                    const auto &tile = tiles[refs[i].tile];
                    cy[i] = tile.block_cloud_fraction[refs[i].block];
                }
            }
        }
        augment(cx, cy, options_.augment_noise, rng);
        const ml::Matrix cx_scaled = zoo.scaler.transform(cx);
        for (int tier : candidate_tiers) {
            ml::Mlp net(tierConfig(tier), rng);
            net.train(cx_scaled, cy, options_.train, rng);
            zoo.entries.push_back(ZooEntry{std::move(net), tier, c});
            if (options_.quantize) {
                zoo.entries.back().quant =
                    std::make_shared<ml::QuantizedMlp>(
                        ml::QuantizedMlp::fromCalibration(
                            zoo.entries.back().net,
                            cx_scaled.data().data(), cx_scaled.rows()));
            }
        }
    }
    return zoo;
}

} // namespace kodan::core
