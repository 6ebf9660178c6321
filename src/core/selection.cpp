#include "core/selection.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::core {

SelectionOptimizer::SelectionOptimizer(const SweepOptions &options)
    : options_(options)
{
    assert(!options_.tile_counts.empty());
}

namespace {

/**
 * Preference order of the sweep. Under a saturated downlink, maximizing
 * DVD and maximizing high-value bits coincide; when candidate policies
 * undersaturate the link, high-value volume must dominate — otherwise
 * the sweep degenerates to "discard everything but a pure trickle".
 * Near-ties (within 0.5% of value) break toward shorter frame time, so
 * the logic prefers meeting the soft frame deadline when the marginal
 * value of exceeding it is negligible (paper Section 3.4).
 */
bool
betterOutcome(const DeploymentOutcome &a, const DeploymentOutcome &b)
{
    const double scale = std::max(a.high_bits_sent, b.high_bits_sent);
    if (std::fabs(a.high_bits_sent - b.high_bits_sent) > 0.005 * scale) {
        return a.high_bits_sent > b.high_bits_sent;
    }
    if (a.frame_time != b.frame_time) {
        return a.frame_time < b.frame_time;
    }
    return a.dvd > b.dvd;
}

} // namespace

std::vector<int>
SelectionOptimizer::allowedCandidates(const ContextActionTable &table,
                                      int context) const
{
    std::vector<int> allowed;
    for (std::size_t i = 0; i < table.actions[context].size(); ++i) {
        const Action &action = table.actions[context][i];
        if (action.kind != ActionKind::RunModel &&
            !options_.allow_elision) {
            continue;
        }
        if (action.kind == ActionKind::RunModel &&
            !options_.allow_specialization && action.model != 0) {
            // Entry 0 is the global reference model by construction.
            continue;
        }
        allowed.push_back(static_cast<int>(i));
    }
    assert(!allowed.empty());
    return allowed;
}

std::pair<std::vector<Action>, DeploymentOutcome>
SelectionOptimizer::optimizeAtTiling(const SystemProfile &profile,
                                     const ContextActionTable &table) const
{
    KODAN_TRACE_SCOPE("selection.tiling.optimize");
    std::int64_t evaluated = 0; // evaluateLogic calls in this sweep
    const int contexts = table.contextCount();
    std::vector<std::vector<int>> allowed(contexts);
    std::size_t combos = 1;
    bool overflow = false;
    for (int c = 0; c < contexts; ++c) {
        allowed[c] = allowedCandidates(table, c);
        if (combos > options_.max_enumeration / allowed[c].size()) {
            overflow = true;
        }
        combos *= allowed[c].size();
    }

    // One actions buffer reused across the whole enumeration — the
    // assemble/measure pair runs for every combination, so a per-call
    // vector allocation here dominated the sweep's allocator traffic.
    std::vector<Action> actions(contexts);
    auto assemble = [&](const std::vector<std::size_t> &choice) {
        for (int c = 0; c < contexts; ++c) {
            actions[c] = table.actions[c][allowed[c][choice[c]]];
        }
    };
    auto measure = [&]() {
        ++evaluated;
        return evaluateLogic(profile, table, actions, true,
                             options_.send_unprocessed_raw);
    };

    std::vector<std::size_t> choice(contexts, 0);
    assemble(choice);
    std::vector<Action> best_actions = actions;
    DeploymentOutcome best_outcome = measure();

    if (!overflow) {
        // Exhaustive odometer over all combinations.
        while (true) {
            int pos = contexts - 1;
            while (pos >= 0) {
                if (++choice[pos] < allowed[pos].size()) {
                    break;
                }
                choice[pos] = 0;
                --pos;
            }
            if (pos < 0) {
                break;
            }
            assemble(choice);
            const auto outcome = measure();
            if (betterOutcome(outcome, best_outcome)) {
                best_outcome = outcome;
                best_actions = actions;
            }
        }
        KODAN_COUNT_ADD("selection.candidates.evaluated", evaluated);
        return {best_actions, best_outcome};
    }

    // Coordinate ascent fallback for very large candidate spaces.
    std::vector<std::size_t> current(contexts, 0);
    bool improved = true;
    assemble(current);
    best_actions = actions;
    best_outcome = measure();
    while (improved) {
        improved = false;
        for (int c = 0; c < contexts; ++c) {
            std::size_t best_cand = current[c];
            for (std::size_t cand = 0; cand < allowed[c].size(); ++cand) {
                if (cand == best_cand) {
                    continue;
                }
                current[c] = cand;
                assemble(current);
                const auto outcome = measure();
                if (betterOutcome(outcome, best_outcome)) {
                    best_outcome = outcome;
                    best_actions = actions;
                    best_cand = cand;
                    improved = true;
                }
            }
            current[c] = best_cand;
        }
    }
    KODAN_COUNT_ADD("selection.candidates.evaluated", evaluated);
    return {best_actions, best_outcome};
}

SweepResult
SelectionOptimizer::optimize(
    const SystemProfile &profile,
    const std::vector<ContextActionTable> &tables) const
{
    assert(!tables.empty());
    KODAN_TRACE_SCOPE("selection.sweep.optimize");
    KODAN_COUNT_ADD("selection.tilings.swept", tables.size());
    // Flight recorder: the sweep is one journal region; tiling i records
    // its candidate outcome into slot i + 1 and the winner lands on the
    // region's own lane, deterministically for any KODAN_THREADS.
    telemetry::JournalRegion journal_region("selection.sweep");
    // Each tiling's candidate optimization is independent; the winner is
    // picked serially in table order afterwards, so the selected logic
    // is bit-identical to the serial sweep for any thread count.
    std::vector<std::pair<std::vector<Action>, DeploymentOutcome>>
        per_table(tables.size());
    util::parallelFor(tables.size(), [&](std::size_t i) {
        telemetry::JournalScope journal_scope(journal_region.id(), i);
        per_table[i] = optimizeAtTiling(profile, tables[i]);
        if (telemetry::journalEnabled()) {
            telemetry::JournalEventBuilder("selection.tiling.result")
                .i64("tiles_per_side", tables[i].tiles_per_side)
                .f64("dvd", per_table[i].second.dvd)
                .f64("high_bits_sent", per_table[i].second.high_bits_sent)
                .f64("frame_time_s", per_table[i].second.frame_time);
        }
    });

    SweepResult result;
    bool first = true;
    for (std::size_t i = 0; i < tables.size(); ++i) {
        auto &[actions, outcome] = per_table[i];
        result.per_tiling.emplace_back(
            tables[i].tiles_per_side * tables[i].tiles_per_side, outcome);
        if (first || betterOutcome(outcome, result.outcome)) {
            first = false;
            result.logic.tiles_per_side = tables[i].tiles_per_side;
            result.logic.per_context = std::move(actions);
            result.outcome = outcome;
        }
    }
    if (telemetry::journalEnabled()) {
        telemetry::JournalEventBuilder("selection.sweep.selected")
            .i64("tiles_per_side", result.logic.tiles_per_side)
            .f64("dvd", result.outcome.dvd)
            .f64("high_bits_sent", result.outcome.high_bits_sent)
            .f64("frame_time_s", result.outcome.frame_time);
    }
    return result;
}

} // namespace kodan::core
