#include "telemetry/detector.hpp"

#include <algorithm>
#include <cmath>

namespace kodan::telemetry::health {

EwmaLevelShift::EwmaLevelShift(const EwmaConfig &config) : config_(config)
{
}

Verdict
EwmaLevelShift::step(double value)
{
    const double v = detectorQuantize(value);
    Verdict verdict;
    if (seen_ == 0) {
        mean_ = v;
        dev_ = 0.0;
        seen_ = 1;
        return verdict;
    }
    const double residual = v - mean_;
    const double envelope = std::max(
        dev_, config_.min_dev + config_.rel_dev * std::fabs(mean_));
    if (seen_ >= config_.warmup && envelope > 0.0) {
        verdict.score = std::fabs(residual) / (config_.k * envelope);
        verdict.anomalous = verdict.score > 1.0;
    }
    // The envelope adapts even through breaches: a genuine level shift
    // is flagged while the mean walks over, then becomes the new
    // normal — exactly the firing→resolved arc the alert engine keys
    // on. State stays quantized so the sequence of states is a pure
    // function of the quantized input stream.
    mean_ = detectorQuantize(mean_ + config_.alpha * residual);
    dev_ = detectorQuantize(
        dev_ + config_.alpha * (std::fabs(residual) - dev_));
    ++seen_;
    return verdict;
}

void
EwmaLevelShift::reset()
{
    mean_ = 0.0;
    dev_ = 0.0;
    seen_ = 0;
}

RobustZScore::RobustZScore(const RobustZConfig &config) : config_(config)
{
    if (config_.window == 0) {
        config_.window = 1;
    }
    ring_.assign(config_.window, 0.0);
    sorted_.reserve(config_.window);
}

namespace {

/** Median of ascending @p x (non-empty). */
double
sortedMedian(const std::vector<double> &x)
{
    const std::size_t n = x.size();
    return n % 2 == 1 ? x[n / 2] : 0.5 * (x[n / 2 - 1] + x[n / 2]);
}

/**
 * Median of |x - med| over ascending @p x (non-empty), where @p med is
 * sortedMedian(x). Everything left of index n/2 is <= med and
 * everything from it on is >= med, and rounding is monotone, so the
 * deviations ascend outward on both sides: merging the two runs visits
 * them in sorted order, and the middle one (or two) is the MAD.
 */
double
sortedMad(const std::vector<double> &x, double med)
{
    const std::size_t n = x.size();
    std::size_t left = n / 2;  // next left candidate is x[left - 1]
    std::size_t right = n / 2; // next right candidate is x[right]
    double prev = 0.0;
    double cur = 0.0;
    for (std::size_t taken = 0; taken <= n / 2; ++taken) {
        prev = cur;
        const bool take_left =
            left > 0 && (right == n || std::fabs(x[left - 1] - med) <=
                                           std::fabs(x[right] - med));
        cur = take_left ? std::fabs(x[--left] - med)
                        : std::fabs(x[right++] - med);
    }
    return n % 2 == 1 ? cur : 0.5 * (prev + cur);
}

} // namespace

Verdict
RobustZScore::step(double value)
{
    const double v = detectorQuantize(value);
    Verdict verdict;
    if (sorted_.size() >= std::max<std::size_t>(config_.min_points, 2)) {
        const double med = sortedMedian(sorted_);
        // 1.4826 rescales MAD to the stddev of a normal distribution.
        const double mad = sortedMad(sorted_, med);
        const double scale = std::max(
            1.4826 * mad,
            config_.min_scale + config_.rel_scale * std::fabs(med));
        if (scale > 0.0) {
            verdict.score = std::fabs(v - med) / (config_.k * scale);
            verdict.anomalous = verdict.score > 1.0;
        }
    }
    // Slide: once full, the oldest value leaves (quantized values are
    // never NaN, so lower_bound finds an equal one), then v goes in.
    if (sorted_.size() == config_.window) {
        sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(),
                                       ring_[next_]));
    }
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), v), v);
    ring_[next_] = v;
    next_ = (next_ + 1) % config_.window;
    return verdict;
}

void
RobustZScore::reset()
{
    std::fill(ring_.begin(), ring_.end(), 0.0);
    sorted_.clear();
    next_ = 0;
}

Flatline::Flatline(const FlatlineConfig &config) : config_(config)
{
    if (config_.window < 2) {
        config_.window = 2;
    }
}

Verdict
Flatline::step(double value)
{
    const double v = detectorQuantize(value);
    if (run_ > 0 && v == last_) {
        ++run_;
    } else {
        run_ = 1;
        last_ = v;
    }
    Verdict verdict;
    if (config_.ignore_zero && v == 0.0) {
        return verdict;
    }
    verdict.score = static_cast<double>(run_) /
                    static_cast<double>(config_.window);
    verdict.anomalous = run_ >= config_.window;
    return verdict;
}

void
Flatline::reset()
{
    last_ = 0.0;
    run_ = 0;
}

} // namespace kodan::telemetry::health
