/**
 * @file
 * Cross-module property tests: invariants that must hold for any seed,
 * any budget, and any policy — not just the happy-path examples.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/evaluate.hpp"
#include "ml/kmeans.hpp"
#include "ml/mlp.hpp"
#include "orbit/propagator.hpp"
#include "orbit/sun.hpp"
#include "sim/constellation.hpp"
#include "util/noise.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace kodan {
namespace {

// ---------------------------------------------------------------------
// evaluateLogic invariants over randomized tables.

core::ContextActionTable
randomTable(util::Rng &rng)
{
    core::ContextActionTable table;
    table.tiles_per_side =
        static_cast<int>(rng.uniformInt(1, 12));
    const int contexts = static_cast<int>(rng.uniformInt(1, 6));
    table.contexts.resize(contexts);
    table.actions.resize(contexts);
    table.stats.resize(contexts);
    double share_left = 1.0;
    for (int c = 0; c < contexts; ++c) {
        const double share =
            c + 1 == contexts ? share_left
                              : rng.uniform(0.0, share_left);
        share_left -= share;
        table.contexts[c] = {c, share, rng.uniform(), "random"};
        const int candidates = static_cast<int>(rng.uniformInt(1, 4));
        for (int a = 0; a < candidates; ++a) {
            core::Action action;
            core::ActionStats stats;
            const int kind = static_cast<int>(rng.uniformInt(0, 2));
            action.kind = static_cast<core::ActionKind>(kind);
            action.model =
                action.kind == core::ActionKind::RunModel
                    ? static_cast<int>(rng.uniformInt(0, 5))
                    : -1;
            if (action.kind != core::ActionKind::Discard) {
                stats.bits_fraction = rng.uniform();
                stats.high_fraction =
                    rng.uniform() * stats.bits_fraction;
            }
            stats.cell_accuracy = rng.uniform();
            stats.model_params =
                action.kind == core::ActionKind::RunModel
                    ? static_cast<std::size_t>(
                          rng.uniformInt(10, 5000))
                    : 0;
            table.actions[c].push_back(action);
            table.stats[c].push_back(stats);
        }
    }
    return table;
}

class EvaluateLogicProps : public ::testing::TestWithParam<int>
{
};

TEST_P(EvaluateLogicProps, OutcomeInvariants)
{
    util::Rng rng(GetParam());
    const auto table = randomTable(rng);
    core::SystemProfile profile;
    profile.target = hw::Target::Orin15W;
    profile.frame_deadline = rng.uniform(5.0, 60.0);
    profile.frames_per_day = rng.uniform(100.0, 5000.0);
    profile.frame_bits = rng.uniform(1e8, 1e10);
    profile.downlink_bits_per_day = rng.uniform(1e10, 1e13);
    profile.prevalence = rng.uniform(0.1, 0.9);

    std::vector<core::Action> actions;
    for (int c = 0; c < table.contextCount(); ++c) {
        const auto idx = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(table.actions[c].size()) - 1));
        actions.push_back(table.actions[c][idx]);
    }
    const bool raw_fill = rng.bernoulli(0.5);
    const auto outcome = core::evaluateLogic(profile, table, actions,
                                             true, raw_fill);

    EXPECT_GE(outcome.dvd, 0.0);
    EXPECT_LE(outcome.dvd, 1.0 + 1e-9);
    EXPECT_GE(outcome.frame_time, 0.0);
    EXPECT_GE(outcome.processed_fraction, 0.0);
    EXPECT_LE(outcome.processed_fraction, 1.0);
    EXPECT_GE(outcome.bits_sent, 0.0);
    EXPECT_LE(outcome.bits_sent,
              profile.downlink_bits_per_day + 1e-3);
    EXPECT_LE(outcome.high_bits_sent, outcome.bits_sent + 1e-3);
    EXPECT_GE(outcome.cell_accuracy, 0.0);
    EXPECT_LE(outcome.cell_accuracy, 1.0 + 1e-9);
    EXPECT_GE(outcome.high_value_yield, 0.0);
    EXPECT_LE(outcome.high_value_yield, 1.0 + 1e-9);
}

TEST_P(EvaluateLogicProps, MoreBudgetNeverHurts)
{
    util::Rng rng(GetParam() + 1000);
    const auto table = randomTable(rng);
    core::SystemProfile profile;
    profile.frame_deadline = 22.0;
    profile.frames_per_day = 1000.0;
    profile.frame_bits = 1e9;
    profile.prevalence = 0.4;

    std::vector<core::Action> actions;
    for (int c = 0; c < table.contextCount(); ++c) {
        actions.push_back(table.actions[c][0]);
    }
    double prev_high = -1.0;
    for (double budget : {1e10, 5e10, 2e11, 1e12, 5e12}) {
        profile.downlink_bits_per_day = budget;
        const auto outcome =
            core::evaluateLogic(profile, table, actions, true, true);
        EXPECT_GE(outcome.high_bits_sent, prev_high - 1e-3);
        prev_high = outcome.high_bits_sent;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluateLogicProps,
                         ::testing::Range(0, 24));

// ---------------------------------------------------------------------
// Mission-engine conservation laws over seeds.

class MissionProps : public ::testing::TestWithParam<int>
{
};

TEST_P(MissionProps, ConservationLaws)
{
    util::Rng rng(GetParam());
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::landsatConstellation(
        static_cast<int>(rng.uniformInt(1, 4)));
    config.mission.duration = 3.0 * 3600.0;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 60.0;
    config.mission.seed = GetParam();
    config.storage_bits = std::numeric_limits<double>::infinity();

    sim::FilterBehavior filter;
    filter.frame_time = rng.uniform(0.0, 200.0);
    filter.keep_high = rng.uniform();
    filter.keep_low = rng.uniform();
    filter.send_unprocessed = rng.bernoulli(0.5);
    filter.prioritize_products = rng.bernoulli(0.5);

    const sim::ConstellationEngine engine(nullptr, rng.uniform(0.1, 0.9));
    const auto result = engine.run(config, filter);
    for (const auto &sat : result.per_satellite) {
        EXPECT_LE(sat.frames_processed, sat.frames_observed);
        EXPECT_LE(sat.bits_downlinked,
                  config.mission.radio.datarate_bps * sat.contact_seconds +
                      1.0);
        EXPECT_LE(sat.high_bits_downlinked, sat.bits_downlinked + 1e-3);
        EXPECT_LE(sat.high_bits_observed, sat.bits_observed + 1e-3);
        EXPECT_GE(sat.dvd(), 0.0);
        EXPECT_LE(sat.dvd(), 1.0 + 1e-9);
        EXPECT_LE(sat.highValueYield(), 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MissionProps, ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// K-means sanity over seeds, cluster counts, and metrics.

class KMeansProps
    : public ::testing::TestWithParam<std::tuple<int, int, ml::Distance>>
{
};

TEST_P(KMeansProps, FitInvariants)
{
    const auto [seed, k, metric] = GetParam();
    util::Rng rng(seed);
    ml::Matrix x(80, 4);
    for (auto &v : x.data()) {
        v = rng.uniform(-2.0, 2.0);
    }
    const ml::KMeans kmeans(k, metric, 32, 2);
    const auto result = kmeans.fit(x, rng);
    EXPECT_EQ(result.k, k);
    EXPECT_EQ(result.assignment.size(), 80U);
    EXPECT_GE(result.inertia, 0.0);
    for (int c : result.assignment) {
        EXPECT_GE(c, 0);
        EXPECT_LT(c, k);
    }
    // Assignments are nearest-centroid consistent.
    for (std::size_t i = 0; i < 80; i += 17) {
        EXPECT_EQ(result.nearest(x.row(i)), result.assignment[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KMeansProps,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(1, 2, 5, 9),
                       ::testing::Values(ml::Distance::Euclidean,
                                         ml::Distance::Cosine,
                                         ml::Distance::Hamming)));

// ---------------------------------------------------------------------
// Training makes progress: the loss decreases across epochs.

TEST(MlpProps, LossDecreasesWithTraining)
{
    util::Rng rng(5);
    ml::MlpConfig config;
    config.input_dim = 4;
    config.hidden = {12};
    ml::Mlp net(config, rng);

    ml::Matrix x(300, 4);
    std::vector<double> y(300);
    for (int i = 0; i < 300; ++i) {
        for (int d = 0; d < 4; ++d) {
            x.at(i, d) = rng.uniform(-1.0, 1.0);
        }
        y[i] = (x.at(i, 0) - 0.5 * x.at(i, 2) > 0.0) ? 1.0 : 0.0;
    }
    ml::TrainOptions options;
    options.epochs = 1;
    const double first = net.train(x, y, options, rng);
    double last = first;
    for (int e = 0; e < 15; ++e) {
        last = net.train(x, y, options, rng);
    }
    EXPECT_LT(last, first * 0.8);
}

// ---------------------------------------------------------------------
// Sun-synchronous geometry: the descending node keeps a constant local
// solar time across the day (the reason Landsat uses this orbit).

TEST(SunSyncProps, DescendingNodeLocalTimeIsStable)
{
    const orbit::J2Propagator sat(orbit::OrbitalElements::landsat8());
    std::vector<double> node_times;
    // Find descending equator crossings by sign change of latitude.
    double prev_lat = sat.subsatellitePoint(0.0).latitude;
    for (double t = 30.0; t < util::kSecondsPerDay; t += 30.0) {
        const double lat = sat.subsatellitePoint(t).latitude;
        if (prev_lat > 0.0 && lat <= 0.0) {
            node_times.push_back(t);
        }
        prev_lat = lat;
    }
    ASSERT_GE(node_times.size(), 10U);
    std::vector<double> lst;
    for (double t : node_times) {
        lst.push_back(orbit::localSolarTime(sat.subsatellitePoint(t), t));
    }
    // All crossings within a few minutes of each other.
    const double first = lst.front();
    for (double value : lst) {
        EXPECT_NEAR(value, first, 0.25) << "local solar time drifted";
    }
}

// ---------------------------------------------------------------------
// SummaryStats merging must be order-independent: the accumulators back
// every parallel reduction in the codebase, so merge(a, b) and
// merge(b, a) must agree, and ANY chunked partition of a sample stream
// must reproduce the single-pass statistics. Counts/extrema are exact;
// mean and variance are algebraically identical and allowed only a few
// ulps of floating-point slack from re-association.

class StatsMergeProps : public ::testing::TestWithParam<int>
{
  protected:
    /** Relative tolerance of a few ulps around @p reference. */
    static double ulps(double reference, double count = 8.0)
    {
        return count * std::abs(reference) *
               std::numeric_limits<double>::epsilon();
    }
};

TEST_P(StatsMergeProps, MergeIsCommutative)
{
    util::Rng rng(GetParam() * 7919 + 17);
    util::SummaryStats a;
    util::SummaryStats b;
    const auto n_a = rng.uniformInt(0, 400);
    const auto n_b = rng.uniformInt(1, 400);
    for (std::int64_t i = 0; i < n_a; ++i) {
        a.add(rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 3.0)));
    }
    for (std::int64_t i = 0; i < n_b; ++i) {
        b.add(rng.normal(0.0, 10.0));
    }
    util::SummaryStats ab = a;
    ab.merge(b);
    util::SummaryStats ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.count(), ba.count());
    EXPECT_EQ(ab.min(), ba.min());
    EXPECT_EQ(ab.max(), ba.max());
    EXPECT_NEAR(ab.sum(), ba.sum(), ulps(ab.sum()));
    EXPECT_NEAR(ab.mean(), ba.mean(), ulps(ab.mean()) + 1e-15);
    EXPECT_NEAR(ab.variance(), ba.variance(),
                ulps(ab.variance(), 64.0) + 1e-15);
}

TEST_P(StatsMergeProps, AnyChunkedPartitionMatchesSinglePass)
{
    util::Rng rng(GetParam() * 104729 + 3);
    const auto n = rng.uniformInt(1, 600);
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(n));
    util::SummaryStats single;
    for (std::int64_t i = 0; i < n; ++i) {
        const double x = rng.uniform(-100.0, 100.0);
        samples.push_back(x);
        single.add(x);
    }
    // Random partition into chunks (including size-1 chunks).
    util::SummaryStats merged;
    std::size_t offset = 0;
    while (offset < samples.size()) {
        const auto remaining =
            static_cast<std::int64_t>(samples.size() - offset);
        const auto size = rng.uniformInt(1, remaining);
        util::SummaryStats chunk;
        for (std::int64_t i = 0; i < size; ++i) {
            chunk.add(samples[offset + static_cast<std::size_t>(i)]);
        }
        merged.merge(chunk);
        offset += static_cast<std::size_t>(size);
    }
    EXPECT_EQ(merged.count(), single.count());
    EXPECT_EQ(merged.min(), single.min());
    EXPECT_EQ(merged.max(), single.max());
    EXPECT_NEAR(merged.sum(), single.sum(),
                ulps(single.sum(), 16.0) + 1e-12);
    EXPECT_NEAR(merged.mean(), single.mean(),
                ulps(single.mean(), 16.0) + 1e-12);
    // Variance composes through the pairwise update; re-association
    // costs slightly more slack on adversarial streams.
    const double scale = std::max(1.0, single.variance());
    EXPECT_NEAR(merged.variance(), single.variance(), 1e-9 * scale);
}

TEST_P(StatsMergeProps, MergingEmptyIsIdentity)
{
    util::Rng rng(GetParam() + 31);
    util::SummaryStats stats;
    for (int i = 0; i < 50; ++i) {
        stats.add(rng.uniform(-1.0, 1.0));
    }
    const util::SummaryStats empty;
    util::SummaryStats left = stats;
    left.merge(empty);
    EXPECT_EQ(left.count(), stats.count());
    EXPECT_EQ(left.mean(), stats.mean());
    EXPECT_EQ(left.variance(), stats.variance());
    util::SummaryStats right = empty;
    right.merge(stats);
    EXPECT_EQ(right.count(), stats.count());
    EXPECT_EQ(right.mean(), stats.mean());
    EXPECT_EQ(right.variance(), stats.variance());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsMergeProps,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------
// Noise statistics: the field is roughly uniform over [0, 1].

TEST(NoiseProps, FbmIsRoughlyCentred)
{
    util::FbmNoise fbm(3, 4);
    util::SummaryStats stats;
    for (double x = 0.0; x < 40.0; x += 0.173) {
        for (double y = 0.0; y < 4.0; y += 0.379) {
            stats.add(fbm.at(x, y));
        }
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.05);
    EXPECT_GT(stats.stddev(), 0.05);
    EXPECT_GE(stats.min(), 0.0);
    EXPECT_LE(stats.max(), 1.0);
}

} // namespace
} // namespace kodan
