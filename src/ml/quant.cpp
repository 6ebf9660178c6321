#include "ml/quant.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "telemetry/telemetry.hpp"

namespace kodan::ml {

namespace {

std::atomic<int> g_precision{-1};

Precision
envPrecision()
{
    const char *env = std::getenv("KODAN_QUANT");
    if (env != nullptr) {
        const std::string_view v(env);
        if (v == "int8" || v == "1" || v == "on") {
            return Precision::Int8;
        }
    }
    return Precision::Fp64;
}

/** Bias headroom bound: keeps |acc| = |bias| + 127*127*k exact in
 *  int32 for every k this codebase can produce (see kernels.hpp). */
constexpr std::int32_t kBiasClamp = std::int32_t{1} << 30;

double
sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

void
softmaxRow(double *v, std::size_t n)
{
    const double peak = *std::max_element(v, v + n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::exp(v[i] - peak);
        total += v[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
        v[i] /= total;
    }
}

/** absmax over a row-major block, 0.0 for an empty one. */
double
absMax(const double *x, std::size_t count)
{
    double peak = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        peak = std::max(peak, std::fabs(x[i]));
    }
    return peak;
}

/** absmax / 127 with the all-zero tensor mapped to scale 1.0. */
double
scaleFromAbsMax(double peak)
{
    return peak > 0.0 ? peak / 127.0 : 1.0;
}

} // namespace

Precision
precision()
{
    const int v = g_precision.load(std::memory_order_relaxed);
    if (v >= 0) {
        return static_cast<Precision>(v);
    }
    static const Precision from_env = envPrecision();
    return from_env;
}

void
setPrecision(Precision p)
{
    g_precision.store(static_cast<int>(p), std::memory_order_relaxed);
}

QuantizedMlp::QuantizedMlp(const Mlp &net,
                           const std::vector<double> &act_scales)
    : config_(net.config()), act_scales_(act_scales)
{
    assert(act_scales_.size() == net.layerCount());
    const std::size_t layer_count = net.layerCount();
    layers_.resize(layer_count);
    for (std::size_t l = 0; l < layer_count; ++l) {
        const Matrix &w = net.layerWeights(l);
        const std::vector<double> &bias = net.layerBias(l);
        LayerQ &lq = layers_[l];
        lq.fan_out = w.rows();
        lq.fan_in = w.cols();

        // Per-output-channel symmetric weight quantization.
        lq.w_scale.resize(lq.fan_out);
        std::vector<std::int8_t> wq(lq.fan_out * lq.fan_in);
        for (std::size_t o = 0; o < lq.fan_out; ++o) {
            const double *w_row = w.row(o);
            const double scale = scaleFromAbsMax(absMax(w_row, lq.fan_in));
            lq.w_scale[o] = scale;
            const double inv = 1.0 / scale;
            for (std::size_t i = 0; i < lq.fan_in; ++i) {
                wq[o * lq.fan_in + i] = kernels::quantizeValue(w_row[i], inv);
            }
        }

        const double in_scale = act_scales_[l];
        const bool last = l + 1 == layer_count;
        std::vector<std::int32_t> bias_q;
        if (last) {
            // Head: dequantize the raw accumulators to double and add
            // the exact fp64 bias — no bias quantization error on the
            // layer that feeds sigmoid/softmax.
            lq.deq.resize(lq.fan_out);
            lq.bias_f = bias;
            for (std::size_t o = 0; o < lq.fan_out; ++o) {
                lq.deq[o] = in_scale * lq.w_scale[o];
            }
        } else {
            const double out_scale = act_scales_[l + 1];
            bias_q.resize(lq.fan_out);
            lq.rq.resize(lq.fan_out);
            for (std::size_t o = 0; o < lq.fan_out; ++o) {
                const double acc_scale = in_scale * lq.w_scale[o];
                const double b = bias[o] / acc_scale;
                bias_q[o] = static_cast<std::int32_t>(std::llround(
                    std::clamp(b, -static_cast<double>(kBiasClamp),
                               static_cast<double>(kBiasClamp))));
                lq.rq[o] = kernels::requantScale(acc_scale / out_scale);
            }
        }
        // The head's fp64 bias lands after dequantization, so its pack
        // carries zero seeds.
        lq.packed = kernels::PackedI8(lq.fan_out, lq.fan_in, wq.data(),
                                      last ? nullptr : bias_q.data());
    }
}

std::vector<double>
QuantizedMlp::calibrate(const Mlp &net, const double *x, std::size_t rows)
{
    assert(rows >= 1);
    const std::size_t layer_count = net.layerCount();
    const auto in_dim = static_cast<std::size_t>(net.config().input_dim);
    std::vector<double> peaks(layer_count, 0.0);
    peaks[0] = absMax(x, rows * in_dim);

    // Strip-mined fp64 forward capturing the absmax of every hidden
    // activation (= the input tensor of the next layer). The head's
    // output needs no scale, so the last layer is never evaluated.
    constexpr std::size_t kStripRows = 512;
    kernels::Scratch::Frame outer(kernels::scratch());
    for (std::size_t r0 = 0; r0 < rows; r0 += kStripRows) {
        const std::size_t strip = std::min(kStripRows, rows - r0);
        kernels::Scratch::Frame frame(kernels::scratch());
        const double *current = x + r0 * in_dim;
        for (std::size_t l = 0; l + 1 < layer_count; ++l) {
            const Matrix &w = net.layerWeights(l);
            const std::size_t fan_out = w.rows();
            const std::size_t fan_in = w.cols();
            double *w_t = kernels::scratch().alloc(fan_out * fan_in);
            kernels::transpose(fan_out, fan_in, w.data().data(), w_t);
            double *next = kernels::scratch().alloc(strip * fan_out);
            kernels::gemm(strip, fan_in, fan_out, current, w_t, next,
                          net.layerBias(l).data(),
                          kernels::Epilogue::Relu);
            peaks[l + 1] =
                std::max(peaks[l + 1], absMax(next, strip * fan_out));
            current = next;
        }
    }

    std::vector<double> scales(layer_count);
    for (std::size_t l = 0; l < layer_count; ++l) {
        scales[l] = scaleFromAbsMax(peaks[l]);
    }
    return scales;
}

QuantizedMlp
QuantizedMlp::fromCalibration(const Mlp &net, const double *x,
                              std::size_t rows)
{
    return QuantizedMlp(net, calibrate(net, x, rows));
}

const std::int8_t *
QuantizedMlp::quantizeInput(const double *x, std::size_t rows,
                            std::int8_t *out) const
{
    const auto in_dim = static_cast<std::size_t>(config_.input_dim);
    kernels::quantizeRows(x, rows * in_dim, 1.0 / act_scales_[0], out);
    return out;
}

void
QuantizedMlp::forwardBatch(const double *x, std::size_t count,
                           double *out) const
{
    const auto in_dim = static_cast<std::size_t>(config_.input_dim);
    const auto out_dim = static_cast<std::size_t>(config_.output_dim);
    if (count == 0) {
        return;
    }
    KODAN_TRACE_SCOPE("ml.mlp.forward_batch_i8");
    KODAN_COUNT_ADD("ml.mlp.forward_batch_i8.rows", count);
    // Same strip-mining as the fp64 path; rows are independent and the
    // arithmetic is integer, so the strip size cannot change bits.
    constexpr std::size_t kStripRows = 512;
    for (std::size_t r0 = 0; r0 < count; r0 += kStripRows) {
        const std::size_t rows = std::min(kStripRows, count - r0);
        kernels::Scratch::Frame frame(kernels::scratch());
        const std::int8_t *current = quantizeInput(
            x + r0 * in_dim, rows,
            kernels::scratch().allocArray<std::int8_t>(rows * in_dim));
        for (std::size_t l = 0; l < layers_.size(); ++l) {
            const LayerQ &lq = layers_[l];
            const bool last = l + 1 == layers_.size();
            if (!last) {
                auto *next = kernels::scratch().allocArray<std::int8_t>(
                    rows * lq.fan_out);
                kernels::gemmI8Requant(rows, lq.packed, current,
                                       lq.rq.data(), /*relu=*/true, next);
                current = next;
                continue;
            }
            auto *acc = kernels::scratch().allocArray<std::int32_t>(
                rows * lq.fan_out);
            kernels::gemmI8(rows, lq.packed, current, acc);
            double *head = out + r0 * out_dim;
            for (std::size_t r = 0; r < rows; ++r) {
                double *o_row = head + r * out_dim;
                const std::int32_t *a_row = acc + r * lq.fan_out;
                for (std::size_t o = 0; o < lq.fan_out; ++o) {
                    o_row[o] = static_cast<double>(a_row[o]) * lq.deq[o] +
                               lq.bias_f[o];
                }
                if (config_.output == OutputKind::Sigmoid) {
                    for (std::size_t o = 0; o < lq.fan_out; ++o) {
                        o_row[o] = sigmoid(o_row[o]);
                    }
                } else {
                    softmaxRow(o_row, lq.fan_out);
                }
            }
        }
    }
}

void
QuantizedMlp::forwardBatch(const Matrix &x, Matrix &out) const
{
    assert(static_cast<int>(x.cols()) == config_.input_dim);
    if (out.rows() != x.rows() ||
        out.cols() != static_cast<std::size_t>(config_.output_dim)) {
        out = Matrix(x.rows(),
                     static_cast<std::size_t>(config_.output_dim));
    }
    forwardBatch(x.data().data(), x.rows(), out.data().data());
}

} // namespace kodan::ml
