/**
 * @file
 * Deployment evaluation: measuring per-context action statistics on
 * validation data and projecting them onto a target system to obtain
 * downlink data value density (DVD).
 *
 * The projection follows the paper's accounting: a saturated downlink of
 * B bits/day is filled first with on-orbit products (highest value
 * density first), then — if capacity remains — with raw unprocessed
 * frames. DVD is the high-value fraction of what is actually sent.
 */

#ifndef KODAN_CORE_EVALUATE_HPP
#define KODAN_CORE_EVALUATE_HPP

#include <vector>

#include "core/engine.hpp"
#include "core/specialize.hpp"
#include "core/types.hpp"
#include "data/generator.hpp"
#include "data/tiler.hpp"
#include "hw/target.hpp"

namespace kodan::core {

/**
 * Default saturated-downlink budget (bits/day/satellite): ~8600 s of
 * granted contact at 384 Mbit/s, as the mission simulator measures for
 * the Landsat-8-like ground segment.
 */
inline constexpr double kDefaultDownlinkBitsPerDay = 3.3e12;

/** Characteristics of a deployment target system. */
struct SystemProfile
{
    /** Compute hardware on board. */
    hw::Target target = hw::Target::Orin15W;
    /** Frame capture period = processing deadline (s). */
    double frame_deadline = 22.2;
    /** Frames observed per day. */
    double frames_per_day = 3891.0;
    /** Raw bits per frame. */
    double frame_bits = 4.4e9;
    /** Saturated downlink capacity (bits/day). */
    double downlink_bits_per_day = kDefaultDownlinkBitsPerDay;
    /** Global high-value prevalence of raw frames. */
    double prevalence = 0.48;

    /**
     * Landsat-8-like profile for a hardware target: deadline and frame
     * volume derived from the Landsat-8 orbit and multispectral camera.
     *
     * @param target Compute hardware.
     * @param prevalence Raw high-value prevalence (dataset-dependent).
     * @param downlink_bits_per_day Saturated downlink budget.
     */
    static SystemProfile landsat8(
        hw::Target target, double prevalence = 0.48,
        double downlink_bits_per_day = kDefaultDownlinkBitsPerDay);
};

/**
 * Measured candidate-action statistics for every context at one tiling.
 */
struct ContextActionTable
{
    /** Tiles per frame side this table was measured at. */
    int tiles_per_side = 0;
    /** Context summaries (share/prevalence at this tiling). */
    std::vector<ContextInfo> contexts;
    /** Candidate actions per context. */
    std::vector<std::vector<Action>> actions;
    /** Stats matching @c actions. */
    std::vector<std::vector<ActionStats>> stats;

    /** Number of contexts. */
    int contextCount() const { return static_cast<int>(contexts.size()); }

    /**
     * Index of @p action among context @p context's candidates;
     * -1 when absent.
     */
    int findAction(int context, const Action &action) const;
};

/** Projected outcome of one deployment configuration. */
struct DeploymentOutcome
{
    /** Mean processing time per frame (s), including the engine. */
    double frame_time = 0.0;
    /** Fraction of frames processed within the deadline (long-run). */
    double processed_fraction = 1.0;
    /** Data value density of the saturated downlink. */
    double dvd = 0.0;
    /** Bits sent per day. */
    double bits_sent = 0.0;
    /** Truly high-value bits sent per day. */
    double high_bits_sent = 0.0;
    /** Value density of the products alone (excl. raw fill). */
    double product_precision = 0.0;
    /** Cell-label accuracy over processed frames. */
    double cell_accuracy = 0.0;
    /** Fraction of observed high-value bits that reach the ground. */
    double high_value_yield = 0.0;
};

/**
 * Project a per-context action assignment onto a system profile.
 *
 * @param profile Target system.
 * @param table Measured action table (defines the tiling).
 * @param per_context Chosen action per context; each must exist in the
 *        table's candidates for that context.
 * @param use_context_engine Charge the context-engine time per tile
 *        (false for the direct-deploy baseline).
 * @param send_unprocessed_raw Queue raw unprocessed frames after the
 *        products.
 * @param force_quant_time Charge every RunModel action the int8
 *        quantized per-tile time (CostModel::modelTimeQuant) even when
 *        its stats were measured at fp64 — the what-if column of the
 *        frame-time figures. Stats rows whose @c quantized flag is set
 *        are charged the quantized time regardless of this parameter.
 */
DeploymentOutcome evaluateLogic(const SystemProfile &profile,
                                const ContextActionTable &table,
                                const std::vector<Action> &per_context,
                                bool use_context_engine = true,
                                bool send_unprocessed_raw = true,
                                bool force_quant_time = false);

/**
 * The bent-pipe baseline outcome on a profile: raw frames fill the
 * downlink indiscriminately, so DVD equals the prevalence.
 */
DeploymentOutcome bentPipeOutcome(const SystemProfile &profile);

/**
 * Measures action statistics by running trained models on validation
 * frames.
 */
class DeploymentEvaluator
{
  public:
    /**
     * @param zoo Trained model zoo (not owned; must outlive this).
     * @param engine Trained context engine (not owned; may be null for
     *        direct-deploy measurement).
     */
    DeploymentEvaluator(const SpecializedZoo *zoo,
                        const ContextEngine *engine);

    /**
     * Measure the full candidate table at a tiling.
     *
     * Candidates per context are Discard, Downlink, and every zoo model
     * applicable to the context (its specialized candidates plus the
     * global reference).
     *
     * @param frames Validation frames.
     * @param tiles_per_side Tiling to measure at.
     */
    ContextActionTable measureTable(
        const std::vector<data::FrameSample> &frames,
        int tiles_per_side) const;

    /**
     * Measure a single-context table for the direct-deploy baseline:
     * every tile is one context whose sole candidate is the reference
     * model (no engine, no elision).
     */
    ContextActionTable measureDirectTable(
        const std::vector<data::FrameSample> &frames,
        int tiles_per_side) const;

    /**
     * Stats of one zoo entry over an explicit set of tiles (the int8
     * tolerance gate, the per-technique figures).
     *
     * @param precision Runs the entry's int8 sibling when Int8 and the
     *        sibling exists, else its fp64 net (SpecializedZoo::
     *        predictRows).
     */
    ActionStats measureModelOnTiles(
        int entry, const std::vector<const data::TileData *> &tiles,
        ml::Precision precision) const;

  private:
    const SpecializedZoo *zoo_;
    const ContextEngine *engine_;
};

} // namespace kodan::core

#endif // KODAN_CORE_EVALUATE_HPP
