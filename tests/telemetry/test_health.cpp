/**
 * @file
 * Fleet health plane suite: detector step semantics (quantized inputs,
 * warmup, windows), bit-exact oracles for the quantizer's fast path,
 * the sorted-window robust z-score and the flatline's run equality,
 * the rules engine's firing→resolved hysteresis and
 * evidence bounds, top-K rollup cardinality control, the alert JSONL
 * byte format, and the end-to-end determinism contract — byte-identical
 * alert exports from the degraded constellation scenario across
 * KODAN_THREADS {1,4,16} × shard_size {1,7,64}.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "sim/constellation.hpp"
#include "telemetry/detector.hpp"
#include "telemetry/exact_sum.hpp"
#include "telemetry/health.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::telemetry::health {
namespace {

/* ------------------------------------------------------------------ */
/* Detectors                                                           */
/* ------------------------------------------------------------------ */

TEST(DetectorQuantize, IdempotentAndNanSafe)
{
    const double v = detectorQuantize(3.14159);
    EXPECT_EQ(detectorQuantize(v), v);
    EXPECT_EQ(detectorQuantize(std::numeric_limits<double>::quiet_NaN()),
              0.0);
    EXPECT_EQ(detectorQuantize(0.0), 0.0);
}

TEST(EwmaLevelShift, SteadyStreamNeverFires)
{
    EwmaLevelShift detector;
    for (int i = 0; i < 200; ++i) {
        const Verdict verdict = detector.step(10.0 + 0.001 * (i % 3));
        EXPECT_FALSE(verdict.anomalous) << "observation " << i;
    }
}

TEST(EwmaLevelShift, WarmupSuppressesVerdicts)
{
    EwmaConfig config;
    config.warmup = 8;
    EwmaLevelShift detector(config);
    // Even a wild stream stays quiet until `warmup` observations are in.
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(detector.step(i % 2 == 0 ? 1e6 : -1e6).anomalous)
            << "observation " << i;
    }
}

TEST(EwmaLevelShift, LevelShiftFires)
{
    EwmaLevelShift detector;
    for (int i = 0; i < 64; ++i) {
        detector.step(100.0 + (i % 2 == 0 ? 0.5 : -0.5));
    }
    const Verdict verdict = detector.step(1e4);
    EXPECT_TRUE(verdict.anomalous);
    EXPECT_GE(verdict.score, 1.0);
}

TEST(EwmaLevelShift, ResetForgetsHistory)
{
    EwmaLevelShift detector;
    for (int i = 0; i < 64; ++i) {
        detector.step(100.0);
    }
    detector.reset();
    // Fresh warmup: the first observation after reset cannot fire.
    EXPECT_FALSE(detector.step(1e9).anomalous);
}

TEST(RobustZScore, OutlierFiresNeighborsDoNot)
{
    RobustZScore detector;
    for (int i = 0; i < 32; ++i) {
        const Verdict verdict = detector.step(50.0 + (i % 3) * 0.5);
        EXPECT_FALSE(verdict.anomalous) << "observation " << i;
    }
    EXPECT_TRUE(detector.step(5000.0).anomalous);
    // The window median/MAD are not dragged by the single outlier.
    EXPECT_FALSE(detector.step(50.5).anomalous);
}

TEST(RobustZScore, MinPointsSuppressesVerdicts)
{
    RobustZConfig config;
    config.min_points = 8;
    RobustZScore detector(config);
    for (int i = 0; i < 7; ++i) {
        detector.step(1.0);
    }
    // Only 7 points in the window: no verdict even for a huge spike.
    EXPECT_FALSE(detector.step(1e9).anomalous);
}

TEST(Flatline, StuckRunFiresAtWindow)
{
    FlatlineConfig config;
    config.window = 4;
    Flatline detector(config);
    EXPECT_FALSE(detector.step(7.0).anomalous); // run = 1
    EXPECT_FALSE(detector.step(7.0).anomalous); // run = 2
    EXPECT_FALSE(detector.step(7.0).anomalous); // run = 3
    EXPECT_TRUE(detector.step(7.0).anomalous);  // run = 4 = window
    // A changed value breaks the run.
    EXPECT_FALSE(detector.step(8.0).anomalous);
}

TEST(Flatline, ZeroRunsIgnoredByDefault)
{
    FlatlineConfig config;
    config.window = 3;
    Flatline detector(config);
    for (int i = 0; i < 16; ++i) {
        EXPECT_FALSE(detector.step(0.0).anomalous)
            << "idle signal must not read as stuck";
    }
}

TEST(Flatline, EqualityIsExactFixedPoint)
{
    FlatlineConfig config;
    config.window = 2;
    Flatline detector(config);
    detector.step(1.0);
    // A one-ulp different value must break the run — quantization only
    // collapses differences below the fixed-point step — and then a
    // repeat of that value completes a fresh window-2 run exactly.
    const double next =
        std::nextafter(1.0, std::numeric_limits<double>::infinity());
    EXPECT_FALSE(detector.step(next).anomalous); // run restarts at 1
    EXPECT_TRUE(detector.step(next).anomalous);  // run = 2 = window
}

/* ------------------------------------------------------------------ */
/* Bit-exact oracles for the detectors' fast paths                    */
/* ------------------------------------------------------------------ */

/** The quantizer by its definition: the fixed-point round trip. */
double
fixedRoundTrip(double value)
{
    return detail::fromFixed(detail::toFixed(value));
}

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** Doubles on and around every boundary the quantizer's fast path
 *  draws, plus the special values. */
std::vector<double>
quantizerEdgeValues()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double pivots[] = {0x1p-11, 0x1p-12, 0x1p-64, 0x1p-65,
                             0x1p63,  0x1p64,  1.0,     1e12};
    std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::signaling_NaN(),
        inf,
        -inf,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        0x1p-1050,
        1e-300,
    };
    for (const double pivot : pivots) {
        values.push_back(pivot);
        values.push_back(std::nextafter(pivot, 0.0));
        values.push_back(std::nextafter(pivot, inf));
    }
    const std::size_t n = values.size();
    for (std::size_t i = 0; i < n; ++i) {
        values.push_back(-values[i]);
    }
    return values;
}

TEST(DetectorQuantize, FastPathMatchesFixedPointRoundTrip)
{
    for (const double x : quantizerEdgeValues()) {
        EXPECT_EQ(bitsOf(detectorQuantize(x)), bitsOf(fixedRoundTrip(x)))
            << "x = " << x << " (bits " << bitsOf(x) << ")";
    }
    // Seeded doubles over the whole exponent range: uniform bit
    // patterns (every exponent, NaN and inf included), then a uniform
    // exponent with a random mantissa and sign.
    std::mt19937_64 rng(0x9A17E5EEDULL);
    std::uniform_int_distribution<int> exponent(-1074, 1023);
    for (int i = 0; i < 200000; ++i) {
        const double raw = std::bit_cast<double>(rng());
        const double scaled = std::ldexp(
            std::bit_cast<double>((rng() >> 12) | 0x3FF0000000000000ULL),
            exponent(rng));
        for (const double x : {raw, scaled, -scaled}) {
            ASSERT_EQ(bitsOf(detectorQuantize(x)),
                      bitsOf(fixedRoundTrip(x)))
                << "x = " << x << " (bits " << bitsOf(x) << ")";
        }
    }
}

/** The sort-based robust z-score, kept as the oracle of the
 *  sorted-window detector: copy the window, sort it for the median,
 *  sort the absolute deviations for the MAD. */
class SortingRobustZOracle
{
  public:
    explicit SortingRobustZOracle(const RobustZConfig &config)
        : config_(config)
    {
        if (config_.window == 0) {
            config_.window = 1;
        }
        window_.assign(config_.window, 0.0);
    }

    Verdict step(double value)
    {
        const double v = fixedRoundTrip(value);
        Verdict verdict;
        if (filled_ >= std::max<std::size_t>(config_.min_points, 2)) {
            std::vector<double> scratch(
                window_.begin(),
                window_.begin() + static_cast<long>(filled_));
            const double med = medianOf(scratch);
            for (double &x : scratch) {
                x = std::fabs(x - med);
            }
            const double mad = medianOf(scratch);
            const double scale = std::max(
                1.4826 * mad,
                config_.min_scale + config_.rel_scale * std::fabs(med));
            if (scale > 0.0) {
                verdict.score = std::fabs(v - med) / (config_.k * scale);
                verdict.anomalous = verdict.score > 1.0;
            }
        }
        window_[next_] = v;
        next_ = (next_ + 1) % config_.window;
        filled_ = std::min(filled_ + 1, config_.window);
        return verdict;
    }

  private:
    static double medianOf(std::vector<double> &values)
    {
        std::sort(values.begin(), values.end());
        const std::size_t n = values.size();
        return n % 2 == 1 ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
    }

    RobustZConfig config_;
    std::vector<double> window_;
    std::size_t next_ = 0;
    std::size_t filled_ = 0;
};

/** A seeded stream at magnitude @p scale: a noisy level with repeats of
 *  earlier values (ties), zeros, sign flips and outliers. */
std::vector<double>
robustStream(std::mt19937_64 &rng, double scale, std::size_t length)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> noise(0.0, 1.0);
    const double level = scale * (1.0 + 4.0 * unit(rng));
    std::vector<double> out;
    out.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        const double pick = unit(rng);
        double x;
        if (!out.empty() && pick < 0.3) {
            x = out[static_cast<std::size_t>(unit(rng) *
                                             static_cast<double>(
                                                 out.size()))];
        } else if (pick < 0.35) {
            x = 0.0;
        } else if (pick < 0.40) {
            x = level * (50.0 + 100.0 * unit(rng));
        } else if (pick < 0.45) {
            x = -level * (1.0 + noise(rng));
        } else {
            x = level + 0.05 * scale * noise(rng);
        }
        out.push_back(x);
    }
    return out;
}

TEST(RobustZScore, SortedWindowMatchesSortOracle)
{
    // From below the quantizer's exact range (2^-11 ~ 4.9e-4, where
    // values truncate) to 1e12.
    const double scales[] = {1e-6, 3e-4, 1e-2, 1.0, 1e3, 1e6, 1e12};
    std::mt19937_64 rng(0xD0B57ULL);
    std::size_t steps = 0;
    std::size_t verdicts = 0;
    std::size_t anomalous = 0;
    for (std::size_t window = 1; window <= 40; ++window) {
        for (const double scale : scales) {
            RobustZConfig config;
            config.window = window;
            config.min_points = static_cast<std::size_t>(rng() % (window + 3));
            RobustZScore detector(config);
            SortingRobustZOracle oracle(config);
            for (const double x : robustStream(rng, scale, 3 * window + 17)) {
                const Verdict got = detector.step(x);
                const Verdict want = oracle.step(x);
                ASSERT_EQ(got.anomalous, want.anomalous)
                    << "window " << window << " scale " << scale
                    << " step " << steps;
                ASSERT_EQ(bitsOf(got.score), bitsOf(want.score))
                    << "window " << window << " scale " << scale
                    << " step " << steps << ": " << got.score << " vs "
                    << want.score;
                ++steps;
                verdicts += want.score != 0.0 ? 1 : 0;
                anomalous += want.anomalous ? 1 : 0;
            }
        }
    }
    // The streams exercise real verdicts, not just warmup.
    EXPECT_GT(verdicts, steps / 2);
    EXPECT_GT(anomalous, 0u);
    // reset() returns the detector to a fresh window.
    RobustZScore detector;
    SortingRobustZOracle oracle{RobustZConfig{}};
    for (const double x : robustStream(rng, 1.0, 50)) {
        detector.step(x);
    }
    detector.reset();
    for (const double x : robustStream(rng, 1.0, 50)) {
        const Verdict got = detector.step(x);
        const Verdict want = oracle.step(x);
        ASSERT_EQ(got.anomalous, want.anomalous);
        ASSERT_EQ(bitsOf(got.score), bitsOf(want.score));
    }
}

/** The flatline as first written, kept as the oracle of run equality:
 *  two values continue a run iff their 128-bit fixed-point patterns
 *  are equal. */
class FixedPointFlatlineOracle
{
  public:
    explicit FixedPointFlatlineOracle(std::int64_t window)
        : window_(window)
    {
    }

    Verdict step(double value)
    {
        const detail::Fixed128 fixed = detail::toFixed(value);
        if (run_ > 0 && fixed == detail::toFixed(last_)) {
            ++run_;
        } else {
            run_ = 1;
            last_ = detail::fromFixed(fixed);
        }
        Verdict verdict;
        if (fixed == detail::Fixed128{}) {
            return verdict;
        }
        verdict.score =
            static_cast<double>(run_) / static_cast<double>(window_);
        verdict.anomalous = run_ >= window_;
        return verdict;
    }

  private:
    std::int64_t window_;
    double last_ = 0.0;
    std::int64_t run_ = 0;
};

TEST(Flatline, QuantizedEqualityMatchesFixedPointEquality)
{
    // Groups of values that share one fixed-point pattern (so they must
    // continue a run) next to their one-ulp neighbours (which must not).
    const std::vector<double> edges = quantizerEdgeValues();
    std::vector<double> pool = edges;
    for (const double x : {1e-25, 3e-21, 0x1p-64 * 1.5, 7e-20}) {
        pool.push_back(x); // below or at the 2^-64 step: truncates
    }
    std::mt19937_64 rng(0xF1A7ULL);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> exponent(-80, 70);
    for (int i = 0; i < 64; ++i) {
        pool.push_back(std::ldexp(1.0 + unit(rng), exponent(rng)));
    }
    std::size_t steps = 0;
    std::size_t fired = 0;
    for (const std::int64_t window : {2, 3, 5, 12}) {
        FlatlineConfig config;
        config.window = window;
        Flatline detector(config);
        FixedPointFlatlineOracle oracle(window);
        double prev = 0.0;
        for (int i = 0; i < 20000; ++i) {
            const double pick = unit(rng);
            double x;
            if (pick < 0.55) {
                x = prev; // extend the run
            } else if (pick < 0.65) {
                x = std::nextafter(prev, unit(rng) < 0.5 ? 0.0 : 1e300);
            } else {
                x = pool[static_cast<std::size_t>(
                    unit(rng) * static_cast<double>(pool.size()))];
            }
            const Verdict got = detector.step(x);
            const Verdict want = oracle.step(x);
            ASSERT_EQ(got.anomalous, want.anomalous)
                << "window " << window << " step " << i << " x = " << x;
            ASSERT_EQ(bitsOf(got.score), bitsOf(want.score))
                << "window " << window << " step " << i << " x = " << x;
            fired += want.anomalous ? 1 : 0;
            ++steps;
            prev = x;
        }
    }
    EXPECT_GT(fired, steps / 20);
}

/* ------------------------------------------------------------------ */
/* Rules engine                                                        */
/* ------------------------------------------------------------------ */

/** A plane with no stock rules and a small config, for direct feeding. */
HealthConfig
bareConfig()
{
    HealthConfig config;
    config.default_rules = false;
    config.top_k = 8;
    config.max_evidence = 8;
    return config;
}

TEST(RulesEngine, ThresholdHysteresisFiresAndResolves)
{
    HealthPlane plane;
    HealthConfig config = bareConfig();
    plane.configure(config);
    AlertRule rule;
    rule.name = "queue.high";
    rule.signal = "queue.depth";
    rule.kind = AlertRule::Kind::Threshold;
    rule.op = AlertRule::Op::Gt;
    rule.threshold = 100.0;
    rule.fire_after = 2;
    rule.clear_after = 2;
    plane.addRule(rule);

    const auto feed = [&](std::int64_t bin, double value) {
        plane.observe(EntityKind::Satellite, 7, "queue.depth", bin,
                      static_cast<double>(bin) * 60.0, value);
    };

    feed(0, 50.0);  // clear
    feed(1, 150.0); // breach 1 of 2 — not firing yet
    EXPECT_EQ(plane.snapshot().alerts_firing, 0);
    feed(2, 200.0); // breach 2 of 2 — fires
    {
        const HealthSnapshot snapshot = plane.snapshot();
        ASSERT_EQ(snapshot.alerts.size(), 1u);
        const Alert &alert = snapshot.alerts.front();
        EXPECT_TRUE(alert.firing);
        EXPECT_EQ(alert.rule, "queue.high");
        EXPECT_EQ(alert.entity_kind, EntityKind::Satellite);
        EXPECT_EQ(alert.entity, 7);
        EXPECT_EQ(alert.first_bin, 1); // breach streak started at bin 1
        EXPECT_EQ(alert.last_bin, 2);
        EXPECT_EQ(alert.peak_value, 200.0);
    }
    feed(3, 50.0); // clear 1 of 2 — still firing
    EXPECT_EQ(plane.snapshot().alerts_firing, 1);
    feed(4, 50.0); // clear 2 of 2 — resolves
    {
        const HealthSnapshot snapshot = plane.snapshot();
        EXPECT_EQ(snapshot.alerts_firing, 0);
        ASSERT_EQ(snapshot.alerts.size(), 1u);
        EXPECT_FALSE(snapshot.alerts.front().firing);
    }
    // A fresh breach streak opens a *new* alert.
    feed(5, 300.0);
    feed(6, 300.0);
    EXPECT_EQ(plane.snapshot().alerts.size(), 2u);
}

TEST(RulesEngine, EvidenceIsBoundedByConfig)
{
    HealthPlane plane;
    HealthConfig config = bareConfig();
    config.max_evidence = 3;
    plane.configure(config);
    AlertRule rule;
    rule.name = "hot";
    rule.signal = "temp";
    rule.threshold = 0.0;
    plane.addRule(rule);

    for (std::int64_t bin = 0; bin < 20; ++bin) {
        plane.observe(EntityKind::Satellite, 0, "temp", bin,
                      static_cast<double>(bin), 1.0 + bin);
    }
    const HealthSnapshot snapshot = plane.snapshot();
    ASSERT_EQ(snapshot.alerts.size(), 1u);
    const Alert &alert = snapshot.alerts.front();
    EXPECT_LE(alert.evidence.size(), 3u);
    EXPECT_FALSE(alert.evidence.empty());
    // The alert's span and peak still cover the whole streak.
    EXPECT_EQ(alert.last_bin, 19);
    EXPECT_EQ(alert.peak_value, 20.0);
}

TEST(RulesEngine, AbsenceFiresAfterGapAndCarriesLastSighting)
{
    HealthPlane plane;
    plane.configure(bareConfig());
    AlertRule rule;
    rule.name = "silent";
    rule.signal = "beacon";
    rule.kind = AlertRule::Kind::Absence;
    rule.gap_bins = 4;
    rule.fire_after = 1;
    plane.addRule(rule);

    plane.observe(EntityKind::Satellite, 2, "beacon", 10, 100.0, 1.0);
    plane.advance(12, 120.0); // gap 2 <= 4: quiet
    EXPECT_EQ(plane.snapshot().alerts_firing, 0);
    plane.advance(15, 150.0); // gap 5 > 4: fires
    const HealthSnapshot snapshot = plane.snapshot();
    ASSERT_EQ(snapshot.alerts.size(), 1u);
    EXPECT_TRUE(snapshot.alerts.front().firing);
    EXPECT_EQ(snapshot.alerts.front().rule, "silent");
    EXPECT_EQ(snapshot.alerts.front().entity, 2);
}

// The sweep visits an absence signal's streams in (kind, entity) order,
// whatever order they first reported in, so alert ids follow it.
TEST(RulesEngine, AbsenceSweepVisitsStreamsInEntityOrder)
{
    HealthPlane plane;
    plane.configure(bareConfig());
    AlertRule rule;
    rule.name = "silent";
    rule.signal = "beacon";
    rule.kind = AlertRule::Kind::Absence;
    rule.gap_bins = 2;
    plane.addRule(rule);

    plane.observe(EntityKind::Station, 1, "beacon", 0, 0.0, 1.0);
    plane.observe(EntityKind::Satellite, 9, "beacon", 0, 0.0, 1.0);
    plane.observe(EntityKind::Satellite, 4, "beacon", 0, 0.0, 1.0);
    plane.advance(5, 50.0);
    const HealthSnapshot snapshot = plane.snapshot();
    ASSERT_EQ(snapshot.alerts.size(), 3u);
    EXPECT_EQ(snapshot.alerts[0].entity_kind, EntityKind::Satellite);
    EXPECT_EQ(snapshot.alerts[0].entity, 4);
    EXPECT_EQ(snapshot.alerts[1].entity_kind, EntityKind::Satellite);
    EXPECT_EQ(snapshot.alerts[1].entity, 9);
    EXPECT_EQ(snapshot.alerts[2].entity_kind, EntityKind::Station);
    EXPECT_EQ(snapshot.alerts[2].entity, 1);
}

// A Feed observing by interned id is the one-call observe() by name,
// and ids survive configure(): engines resolve them once per process.
TEST(RulesEngine, FeedByIdMatchesObserveByName)
{
    HealthConfig config;
    config.top_k = 4;
    HealthPlane by_name;
    HealthPlane by_id;
    by_name.configure(config);
    const SignalId queue = by_id.signal("queue.depth_bits");
    const SignalId dropped = by_id.signal("storage.dropped_bits");
    by_id.configure(config);
    EXPECT_EQ(by_id.signal("queue.depth_bits"), queue);
    EXPECT_NE(queue, dropped);

    {
        HealthPlane::Feed feed(by_id);
        for (std::int64_t bin = 0; bin < 40; ++bin) {
            for (std::int64_t sat = 0; sat < 3; ++sat) {
                const double depth = sat == 1 ? 5e9 : 1e9 + 1e7 * bin;
                const double drop = bin > 20 && sat == 2 ? 1e6 : 0.0;
                feed.observe(EntityKind::Satellite, sat, queue, bin,
                             60.0 * bin, depth);
                feed.observe(EntityKind::Satellite, sat, dropped, bin,
                             60.0 * bin, drop);
                by_name.observe(EntityKind::Satellite, sat,
                                "queue.depth_bits", bin, 60.0 * bin,
                                depth);
                by_name.observe(EntityKind::Satellite, sat,
                                "storage.dropped_bits", bin, 60.0 * bin,
                                drop);
            }
        }
        feed.advance(40, 2400.0);
    }
    by_name.advance(40, 2400.0);

    const HealthSnapshot a = by_name.snapshot();
    const HealthSnapshot b = by_id.snapshot();
    std::ostringstream alerts_a;
    std::ostringstream alerts_b;
    writeAlertsJsonl(a.alerts, alerts_a);
    writeAlertsJsonl(b.alerts, alerts_b);
    EXPECT_EQ(alerts_a.str(), alerts_b.str());
    EXPECT_EQ(a.alerts_fired, 2); // queue.stuck on 1, storage.drop on 2
    std::ostringstream table_a;
    std::ostringstream table_b;
    writeHealthTable(a, table_a);
    writeHealthTable(b, table_b);
    EXPECT_EQ(table_a.str(), table_b.str());
    EXPECT_EQ(b.observations, 240);
}

TEST(RulesEngineDeathTest, FeedRejectsUnknownSignalId)
{
    HealthPlane plane;
    plane.configure(bareConfig());
    const SignalId known = plane.signal("temp");
    EXPECT_DEATH(
        {
            HealthPlane::Feed feed(plane);
            feed.observe(EntityKind::Satellite, 0, known + 1, 0, 0.0, 1.0);
        },
        "unknown signal id");
}

TEST(RulesEngine, TopKRollupFoldsOverflowIntoOther)
{
    HealthPlane plane;
    HealthConfig config = bareConfig();
    config.top_k = 2;
    plane.configure(config);
    AlertRule rule;
    rule.name = "hot";
    rule.signal = "temp";
    rule.threshold = 100.0;
    plane.addRule(rule);

    // Five entities; entity e breaches e times (entity 4 worst).
    for (std::int64_t entity = 0; entity < 5; ++entity) {
        for (std::int64_t bin = 0; bin < 8; ++bin) {
            const double value = bin < entity ? 200.0 : 0.0;
            plane.observe(EntityKind::Satellite, entity, "temp", bin,
                          static_cast<double>(bin), value);
        }
    }
    const HealthSnapshot snapshot = plane.snapshot();
    EXPECT_EQ(snapshot.entities, 5);
    ASSERT_EQ(snapshot.top.size(), 2u);
    // Worst offenders first; the remaining three fold into `other`.
    EXPECT_EQ(snapshot.top[0].entity, 4);
    EXPECT_EQ(snapshot.top[1].entity, 3);
    EXPECT_EQ(snapshot.other.members, 3);
    EXPECT_EQ(snapshot.other.observations, 3 * 8);
    const std::int64_t named =
        snapshot.top[0].observations + snapshot.top[1].observations;
    EXPECT_EQ(named + snapshot.other.observations, snapshot.observations);
}

TEST(RulesEngine, AlertsJsonlHeaderAndFieldOrder)
{
    HealthPlane plane;
    plane.configure(bareConfig());
    AlertRule rule;
    rule.name = "hot";
    rule.signal = "temp";
    rule.threshold = 0.0;
    plane.addRule(rule);
    plane.observe(EntityKind::Station, 1, "temp", 3, 30.0, 2.5);

    std::ostringstream oss;
    writeAlertsJsonl(plane.snapshot().alerts, oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("\"kodan_alerts\":1"), std::string::npos);
    EXPECT_NE(text.find("\"alerts\":1"), std::string::npos);
    EXPECT_NE(text.find("\"rule\":\"hot\""), std::string::npos);
    EXPECT_NE(text.find("\"kind\":\"station\""), std::string::npos);
    EXPECT_NE(text.find("\"state\":\"firing\""), std::string::npos);
    EXPECT_NE(text.find("\"evidence\":[{\"bin\":3"), std::string::npos);
}

/* ------------------------------------------------------------------ */
/* End-to-end determinism over the constellation engine                */
/* ------------------------------------------------------------------ */

/** Arms the global plane with recording off; restores everything. */
class HealthGuard
{
  public:
    HealthGuard()
        : metrics_were_enabled_(telemetry::enabled()),
          journal_was_enabled_(telemetry::journalEnabled()),
          health_was_enabled_(healthEnabled())
    {
        telemetry::resetAll();
        telemetry::setEnabled(false);
        telemetry::setJournalEnabled(false);
        setHealthEnabled(true);
        plane().reset();
    }

    ~HealthGuard()
    {
        plane().reset();
        setHealthEnabled(health_was_enabled_);
        telemetry::setEnabled(metrics_were_enabled_);
        telemetry::setJournalEnabled(journal_was_enabled_);
        telemetry::resetAll();
        util::setGlobalThreads(0);
    }

  private:
    bool metrics_were_enabled_;
    bool journal_was_enabled_;
    bool health_was_enabled_;
};

constexpr long long kDegradedSat = 3;

/** The bench_health scenario at test scale: a provisioned fleet whose
 *  product volume drains fully every pass, with one satellite's
 *  contacts zeroed from 12 h on so only it backs up and goes silent. */
sim::ConstellationConfig
degradedScenario(std::size_t shard_size)
{
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::makeConstellation(8, 2, 1);
    config.mission.duration = 2.0 * 86400.0;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 60.0;
    config.mission.telemetry_bin_s = 1800.0;
    config.mission.telemetry_prefix = "health";
    config.shard_size = shard_size;
    config.chunk_s = 6.0 * 3600.0;
    config.storage_bits = 60.0e9;
    config.degrade.satellite = kDegradedSat;
    config.degrade.after_s = 12.0 * 3600.0;
    return config;
}

sim::FilterBehavior
provisionedFilter()
{
    sim::FilterBehavior filter;
    filter.frame_time = 200.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.05;
    filter.product_fraction = 0.1;
    filter.send_unprocessed = false;
    return filter;
}

/** Run the scenario on a fresh global plane; return the alert bytes. */
std::string
alertBytes(const sim::ConstellationConfig &config, int threads)
{
    plane().reset();
    util::setGlobalThreads(threads);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    engine.run(config, provisionedFilter());
    util::setGlobalThreads(0);
    std::ostringstream oss;
    writeAlertsJsonl(plane().snapshot().alerts, oss);
    return oss.str();
}

// The headline contract (ctest -L health): the alert JSONL is a pure
// function of the mission, bit-identical across thread counts and
// shard sizes.
TEST(HealthDeterminism, AlertBytesInvariantAcrossThreadsAndShards)
{
    HealthGuard guard;
    const int thread_counts[] = {1, 4, 16};
    const std::size_t shard_sizes[] = {1, 7, 64};

    const std::string reference = alertBytes(degradedScenario(1), 1);
    ASSERT_FALSE(reference.empty());
    ASSERT_NE(reference.find("\"state\":\"firing\""), std::string::npos)
        << "degraded scenario produced no firing alert";

    for (const int threads : thread_counts) {
        for (const std::size_t shard : shard_sizes) {
            if (threads == 1 && shard == 1) {
                continue;
            }
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " shard=" + std::to_string(shard));
            EXPECT_EQ(alertBytes(degradedScenario(shard), threads),
                      reference);
        }
    }
}

// The degraded fixture detects exactly the injected fault: the dead
// satellite backs up (storage.drop) and goes silent (downlink.absence);
// healthy satellites fire nothing.
TEST(HealthDeterminism, DegradedSatelliteFiresExpectedAlerts)
{
    HealthGuard guard;
    alertBytes(degradedScenario(4), 1);
    // alertBytes resets before running, so the global plane still holds
    // this run's state.
    const HealthSnapshot snapshot = plane().snapshot();
    bool storage_drop = false;
    bool downlink_absence = false;
    for (const Alert &alert : snapshot.alerts) {
        if (alert.entity_kind != EntityKind::Satellite) {
            continue;
        }
        EXPECT_EQ(alert.entity, kDegradedSat)
            << "rule " << alert.rule << " fired for a healthy satellite";
        EXPECT_FALSE(alert.evidence.empty()) << "rule " << alert.rule;
        storage_drop |= alert.rule == "storage.drop";
        downlink_absence |= alert.rule == "downlink.absence";
    }
    EXPECT_TRUE(storage_drop);
    EXPECT_TRUE(downlink_absence);
    // The degraded satellite tops the offender rollup.
    ASSERT_FALSE(snapshot.top.empty());
    EXPECT_EQ(snapshot.top.front().entity, kDegradedSat);
    EXPECT_GT(snapshot.top.front().alerts_fired, 0);
}

// Disabled plane: the engine must skip the fold entirely.
TEST(HealthDeterminism, DisabledPlaneObservesNothing)
{
    HealthGuard guard;
    setHealthEnabled(false);
    plane().reset();
    util::setGlobalThreads(1);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    engine.run(degradedScenario(4), provisionedFilter());
    util::setGlobalThreads(0);
    const HealthSnapshot snapshot = plane().snapshot();
    EXPECT_EQ(snapshot.observations, 0);
    EXPECT_EQ(snapshot.alerts.size(), 0u);
}

} // namespace
} // namespace kodan::telemetry::health
