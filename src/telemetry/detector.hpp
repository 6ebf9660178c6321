/**
 * @file
 * Online anomaly detectors for the fleet health plane.
 *
 * Each detector is a tiny serial state machine fed one observation at a
 * time and answering "is this value anomalous, and by how much?". They
 * are built for the repo's determinism contract, not for statistical
 * novelty:
 *
 *  - **Quantized inputs.** Every value is passed through the telemetry
 *    fixed-point quantizer (exact_sum.hpp: toFixed/fromFixed, scale
 *    2^-64) before it touches detector state. The detectors therefore
 *    see the identical bit pattern regardless of which floating-point
 *    expression produced the value, and equality comparisons (the
 *    flatline detector) are exact fixed-point equality rather than an
 *    epsilon heuristic.
 *  - **Serial state, deterministic verdicts.** Detector state is plain
 *    (no atomics); the health plane feeds each (entity, signal) stream
 *    from the engines' *serial* index-order folds. A verdict is then a
 *    pure function of the observation sequence, which the TimeSeries /
 *    journal layers already prove bit-identical across KODAN_THREADS
 *    and shard sizes — so alert streams inherit the same invariance.
 *  - **No wall clock.** Detectors only ever see sim-time bins; nothing
 *    here reads a clock.
 *
 * Three detectors cover the degradation taxonomy the Kodan fleet model
 * produces (see DESIGN.md "Fleet health plane"):
 *
 *  - EwmaLevelShift — persistent level changes (elision-rate collapse,
 *    queue growth) via exponentially weighted mean + absolute-deviation
 *    envelopes.
 *  - RobustZScore — point outliers against a sliding median/MAD window
 *    (robust to the outliers it is trying to flag).
 *  - Flatline — stuck-at sensors: a run of bit-identical quantized
 *    values longer than the window.
 */

#ifndef KODAN_TELEMETRY_DETECTOR_HPP
#define KODAN_TELEMETRY_DETECTOR_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/exact_sum.hpp"

namespace kodan::telemetry::health {

/** One detector's answer for one observation. */
struct Verdict
{
    /** True when the observation breaches the detector's envelope. */
    bool anomalous = false;
    /** Envelope-relative severity (>= 0; ~1.0 at the threshold for the
     *  statistical detectors, run/window for the flatline). */
    double score = 0.0;
};

/** Quantize @p value exactly as detector ingestion does (fixed point,
 *  scale 2^-64, truncation toward zero; NaN -> 0). Exposed so tests
 *  and callers can reproduce the detectors' view of a stream.
 *
 *  Every double with |v| in [2^-11, 2^63) converts to fixed point
 *  without rounding and back (exact_sum.hpp), so the round trip is the
 *  identity there and only the rest of the line (zero, tiny values,
 *  huge values, inf, NaN) pays for it. */
inline double
detectorQuantize(double value)
{
    const double magnitude = std::fabs(value);
    if (magnitude >= 0x1p-11 && magnitude < 0x1p63) {
        return value;
    }
    return detail::fromFixed(detail::toFixed(value));
}

/** Tuning for EwmaLevelShift. */
struct EwmaConfig
{
    /** Smoothing factor in (0, 1]; larger adapts faster. */
    double alpha = 0.25;
    /** Breach when |residual| > k * deviation envelope. */
    double k = 6.0;
    /** Observations consumed before verdicts may fire. */
    std::int64_t warmup = 8;
    /** Deviation floor, absolute plus mean-relative, so a stream that
     *  has been perfectly steady does not alarm on the first ulp. */
    double min_dev = 1e-9;
    double rel_dev = 1e-3;
};

/**
 * EWMA level-shift detector: tracks an exponentially weighted mean and
 * mean absolute deviation; flags observations whose residual exceeds
 * k deviations. Catches persistent level changes a point-outlier
 * detector smooths over.
 */
class EwmaLevelShift
{
  public:
    explicit EwmaLevelShift(const EwmaConfig &config = {});

    /** Feed one observation; returns the verdict for it. */
    Verdict step(double value);

    void reset();

  private:
    EwmaConfig config_;
    double mean_ = 0.0;
    double dev_ = 0.0;
    std::int64_t seen_ = 0;
};

/** Tuning for RobustZScore. */
struct RobustZConfig
{
    /** Sliding window length (observations). */
    std::size_t window = 32;
    /** Breach when |value - median| > k * (1.4826 * MAD). */
    double k = 6.0;
    /** Observations required in the window before verdicts may fire. */
    std::size_t min_points = 8;
    /** Scale floor, absolute plus median-relative. */
    double min_scale = 1e-9;
    double rel_scale = 1e-3;
};

/**
 * Robust z-score detector: median + MAD over a sliding window. The
 * median/MAD pair has a 50% breakdown point, so the envelope is not
 * dragged by the very outliers it is flagging (an EWMA absorbs them).
 *
 * The window is kept sorted as it slides (the evicted value leaves, the
 * new one is inserted in order), so the median is an index and the MAD
 * is found by merging |x - median| outward from it in O(window): the
 * same multiset yields the same median and MAD bits as sorting it.
 */
class RobustZScore
{
  public:
    explicit RobustZScore(const RobustZConfig &config = {});

    /** Feed one observation; returns the verdict for it. The verdict
     *  is computed against the window *before* the value is added. */
    Verdict step(double value);

    void reset();

  private:
    RobustZConfig config_;
    std::vector<double> ring_;   // arrival order, size config_.window
    std::vector<double> sorted_; // the window's values, ascending
    std::size_t next_ = 0;       // ring slot of the oldest value
};

/** Tuning for Flatline. */
struct FlatlineConfig
{
    /** Run length (observations) that constitutes a flatline. */
    std::int64_t window = 12;
    /** Ignore runs of exactly 0.0 (an idle signal is not a stuck
     *  sensor). */
    bool ignore_zero = true;
};

/**
 * Stuck-at detector: a run of bit-identical quantized values at least
 * `window` long. Equality is exact in fixed point — two values compare
 * equal iff toFixed() maps them to the same 128-bit pattern, which for
 * quantized doubles (never NaN or -0, one double per pattern) is plain
 * double equality.
 */
class Flatline
{
  public:
    explicit Flatline(const FlatlineConfig &config = {});

    /** Feed one observation; returns the verdict for it. */
    Verdict step(double value);

    void reset();

  private:
    FlatlineConfig config_;
    double last_ = 0.0;
    std::int64_t run_ = 0;
};

} // namespace kodan::telemetry::health

#endif // KODAN_TELEMETRY_DETECTOR_HPP
