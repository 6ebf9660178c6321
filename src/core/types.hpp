/**
 * @file
 * Core vocabulary types of the Kodan system: applications, contexts,
 * per-context actions, and measured action statistics.
 */

#ifndef KODAN_CORE_TYPES_HPP
#define KODAN_CORE_TYPES_HPP

#include <memory>
#include <string>
#include <vector>

#include "data/tiler.hpp"
#include "hw/target.hpp"
#include "ml/mlp.hpp"
#include "ml/quant.hpp"

namespace kodan::core {

/**
 * A geospatial analysis application: one of the seven reference
 * pixel-segmentation networks of Table 1, identified by its tier.
 */
struct Application
{
    /** Tier in [1, 7]; higher tiers are costlier and more capable. */
    int tier = 1;

    /** Paper architecture name. */
    const char *name() const { return hw::CostModel::tierName(tier); }

    /**
     * Surrogate network architecture for this tier: a per-block binary
     * classifier over the decimated tile representation.
     */
    ml::MlpConfig surrogateConfig() const;

    /** All seven applications. */
    static std::vector<Application> all();
};

/** What the runtime does with tiles of a given context. */
enum class ActionKind
{
    /** Drop the tile without further processing (low-value context). */
    Discard,
    /** Downlink the raw tile without filtering (high-value context). */
    Downlink,
    /** Run a (possibly specialized) filtering model. */
    RunModel,
};

/** Human-readable action-kind name. */
const char *actionKindName(ActionKind kind);

/** A per-context decision in the selection logic. */
struct Action
{
    ActionKind kind = ActionKind::RunModel;
    /** Index into the model zoo; only meaningful for RunModel. */
    int model = -1;

    bool operator==(const Action &o) const = default;
};

/** Descriptive statistics of one context on the validation set. */
struct ContextInfo
{
    /** Context id in [0, context count). */
    int id = 0;
    /** Fraction of tiles the engine assigns to this context. */
    double tile_share = 0.0;
    /** High-value cell fraction among this context's tiles. */
    double prevalence = 0.0;
    /** Dominant truth terrain among this context's tiles. */
    std::string description;
};

/**
 * Measured outcome of applying one action to the tiles of one context at
 * one tiling, normalized per tile bit. All fractions are of the tile's
 * raw bits.
 */
struct ActionStats
{
    /** Product bits emitted / raw tile bits (keep rate). */
    double bits_fraction = 0.0;
    /** Truly high-value product bits / raw tile bits. */
    double high_fraction = 0.0;
    /** Fraction of the tile's cells labeled correctly. */
    double cell_accuracy = 0.0;
    /** Parameter count of the model run (0 for Discard/Downlink). */
    std::size_t model_params = 0;
    /**
     * The stats were measured through the int8 quantized sibling; the
     * projection then charges the quantized per-tile time instead of
     * the fp64 one.
     */
    bool quantized = false;

    /** Value density of the emitted product (1 when nothing emitted). */
    double density() const
    {
        return bits_fraction <= 0.0 ? 1.0 : high_fraction / bits_fraction;
    }
};

/** One network in the specialized-model zoo. */
struct ZooEntry
{
    /** The trained network. */
    ml::Mlp net;
    /** Architecture tier used for execution-time costing. */
    int tier = 1;
    /** Context this model is specialized for; -1 = global (reference). */
    int context = -1;
    /**
     * Calibrated int8 sibling of @c net; null when quantization is
     * disabled for the zoo or the sibling was rejected by the sweep's
     * accuracy/value tolerance gate. Shared so copied zoos (deployment
     * packages, evaluator snapshots) reuse the packed weights.
     */
    std::shared_ptr<const ml::QuantizedMlp> quant;

    /** True when inference at @p precision takes the int8 path: a
     *  sibling exists and @p precision is Int8. */
    bool runsQuantized(ml::Precision precision = ml::precision()) const
    {
        return quant != nullptr && precision == ml::Precision::Int8;
    }
};

} // namespace kodan::core

#endif // KODAN_CORE_TYPES_HPP
