#include "ml/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace kodan::ml {

namespace {

double
sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

/** Element-wise activations over raw row-major buffers. */
void
reluRows(double *v, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        v[i] = std::max(0.0, v[i]);
    }
}

void
sigmoidRows(double *v, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        v[i] = sigmoid(v[i]);
    }
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

} // namespace

Mlp::Mlp(const MlpConfig &config, util::Rng &rng)
    : config_(config)
{
    assert(config.input_dim >= 1);
    assert(config.output_dim >= 1);

    std::vector<int> dims;
    dims.push_back(config.input_dim);
    for (int h : config.hidden) {
        assert(h >= 1);
        dims.push_back(h);
    }
    dims.push_back(config.output_dim);

    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        Layer layer;
        const int fan_in = dims[l];
        const int fan_out = dims[l + 1];
        layer.weights = Matrix(fan_out, fan_in);
        const double scale = std::sqrt(2.0 / fan_in);
        for (auto &w : layer.weights.data()) {
            w = rng.normal(0.0, scale);
        }
        layer.bias.assign(fan_out, 0.0);
        layer.m_w = Matrix(fan_out, fan_in);
        layer.v_w = Matrix(fan_out, fan_in);
        layer.m_b.assign(fan_out, 0.0);
        layer.v_b.assign(fan_out, 0.0);
        layers_.push_back(std::move(layer));
    }
    refreshTransposes();
}

void
Mlp::refreshTransposes()
{
    for (auto &layer : layers_) {
        const std::size_t rows = layer.weights.rows();
        const std::size_t cols = layer.weights.cols();
        if (layer.weights_t.rows() != cols ||
            layer.weights_t.cols() != rows) {
            layer.weights_t = Matrix(cols, rows);
        }
        kernels::transpose(rows, cols, layer.weights.data().data(),
                           layer.weights_t.data().data());
    }
}

std::size_t
Mlp::parameterCount() const
{
    std::size_t count = 0;
    for (const auto &layer : layers_) {
        count += layer.weights.rows() * layer.weights.cols();
        count += layer.bias.size();
    }
    return count;
}

void
Mlp::forwardBatch(const double *x, std::size_t count, double *out) const
{
    const auto in_dim = static_cast<std::size_t>(config_.input_dim);
    const auto out_dim = static_cast<std::size_t>(config_.output_dim);
    if (count == 0) {
        return;
    }
    KODAN_TRACE_SCOPE("ml.mlp.forward_batch");
    KODAN_COUNT_ADD("ml.mlp.forward_batch.rows", count);
    // Strip-mine the batch through the whole layer chain so the
    // intermediate activations stay cache-resident (strip x widest
    // layer) instead of streaming a full-batch activation matrix
    // through memory once per layer. Rows are independent, so the
    // per-row bits are unchanged by the strip size.
    constexpr std::size_t kStripRows = 512;
    for (std::size_t r0 = 0; r0 < count; r0 += kStripRows) {
        const std::size_t rows = std::min(kStripRows, count - r0);
        kernels::Scratch::Frame frame(kernels::scratch());
        const double *current = x + r0 * in_dim;
        for (std::size_t l = 0; l < layers_.size(); ++l) {
            const Layer &layer = layers_[l];
            const std::size_t fan_out = layer.weights.rows();
            const std::size_t fan_in = layer.weights.cols();
            const bool last = l + 1 == layers_.size();
            double *next = last
                               ? out + r0 * out_dim
                               : kernels::scratch().alloc(rows * fan_out);
            // Hidden-layer relu rides on the gemm's final store (same
            // finished value a separate pass would reload — bits
            // unchanged, one full pass over the activations saved).
            kernels::gemm(rows, fan_in, fan_out, current,
                          layer.weights_t.data().data(), next,
                          layer.bias.data(),
                          last ? kernels::Epilogue::None
                               : kernels::Epilogue::Relu);
            if (last) {
                if (config_.output == OutputKind::Sigmoid) {
                    sigmoidRows(next, rows * fan_out);
                } else {
                    for (std::size_t r = 0; r < rows; ++r) {
                        softmaxRow(next + r * fan_out, fan_out);
                    }
                }
            }
            current = next;
        }
    }
}

void
Mlp::forwardBatch(const Matrix &x, Matrix &out) const
{
    assert(static_cast<int>(x.cols()) == config_.input_dim);
    if (out.rows() != x.rows() ||
        out.cols() != static_cast<std::size_t>(config_.output_dim)) {
        out = Matrix(x.rows(),
                     static_cast<std::size_t>(config_.output_dim));
    }
    forwardBatch(x.data().data(), x.rows(), out.data().data());
}

double
Mlp::train(const Matrix &x, const std::vector<double> &targets,
           const TrainOptions &options, util::Rng &rng)
{
    const std::size_t n = x.rows();
    assert(static_cast<int>(x.cols()) == config_.input_dim);
    const bool softmax = config_.output == OutputKind::Softmax;
    if (softmax) {
        assert(targets.size() == n);
    } else {
        assert(targets.size() ==
               n * static_cast<std::size_t>(config_.output_dim));
    }
    assert(options.batch_size >= 1);

    // The per-sample forwards of a minibatch are one GEMM per layer;
    // weight gradients are delta^T * acts (each weight accumulates over
    // ascending sample index) and the backpropagated delta is delta * W
    // (ascending output index). Those are the accumulation orders of
    // the per-sample oracle loop in tests/ml/ml_oracle.hpp, so the bits
    // match it.
    const auto in_dim = static_cast<std::size_t>(config_.input_dim);
    const auto out_dim = static_cast<std::size_t>(config_.output_dim);
    const std::size_t depth = layers_.size();

    std::vector<Matrix> grad_w;
    std::vector<std::vector<double>> grad_b;
    for (const auto &layer : layers_) {
        grad_w.emplace_back(layer.weights.rows(), layer.weights.cols());
        grad_b.emplace_back(layer.bias.size(), 0.0);
    }

    // Layer widths: width[0] = input, width[l + 1] = layer l fan-out.
    std::vector<std::size_t> width(depth + 1);
    width[0] = in_dim;
    for (std::size_t l = 0; l < depth; ++l) {
        width[l + 1] = layers_[l].weights.rows();
    }
    std::vector<double *> acts(depth + 1);

    double last_epoch_loss = 0.0;
    const double beta1 = 0.9;
    const double beta2 = 0.999;
    const double eps = 1.0e-8;

    for (int epoch = 0; epoch < options.epochs; ++epoch) {
        const auto order = rng.permutation(n);
        double epoch_loss = 0.0;
        std::size_t batch_start = 0;
        while (batch_start < n) {
            const std::size_t batch_end =
                std::min(n, batch_start + options.batch_size);
            const std::size_t bsz = batch_end - batch_start;
            const auto batch_n = static_cast<double>(bsz);
            kernels::Scratch::Frame frame(kernels::scratch());
            auto &arena = kernels::scratch();

            // Gather the shuffled minibatch rows contiguously.
            double *xb = arena.alloc(bsz * in_dim);
            for (std::size_t s = 0; s < bsz; ++s) {
                std::memcpy(xb + s * in_dim,
                            x.row(order[batch_start + s]),
                            in_dim * sizeof(double));
            }
            acts[0] = xb;

            // Forward: one GEMM per layer, activations kept for
            // backprop.
            for (std::size_t l = 0; l < depth; ++l) {
                const Layer &layer = layers_[l];
                double *z = arena.alloc(bsz * width[l + 1]);
                kernels::gemm(bsz, width[l], width[l + 1], acts[l],
                              layer.weights_t.data().data(), z,
                              layer.bias.data());
                const bool last = l + 1 == depth;
                if (!last) {
                    reluRows(z, bsz * width[l + 1]);
                } else if (config_.output == OutputKind::Sigmoid) {
                    sigmoidRows(z, bsz * width[l + 1]);
                } else {
                    for (std::size_t s = 0; s < bsz; ++s) {
                        softmaxRow(z + s * width[l + 1], width[l + 1]);
                    }
                }
                acts[l + 1] = z;
            }

            // Output delta and loss, in minibatch sample order (the
            // oracle's epoch_loss accumulation order).
            double *delta = arena.alloc(bsz * out_dim);
            for (std::size_t s = 0; s < bsz; ++s) {
                const std::size_t idx = order[batch_start + s];
                const double *out_row = acts[depth] + s * out_dim;
                double *d_row = delta + s * out_dim;
                if (softmax) {
                    const int cls = static_cast<int>(targets[idx]);
                    assert(cls >= 0 && cls < config_.output_dim);
                    for (std::size_t o = 0; o < out_dim; ++o) {
                        d_row[o] = out_row[o] -
                                   (static_cast<int>(o) == cls ? 1.0 : 0.0);
                    }
                    epoch_loss +=
                        -std::log(std::max(1.0e-12, out_row[cls]));
                } else {
                    for (std::size_t o = 0; o < out_dim; ++o) {
                        const double target = targets[idx * out_dim + o];
                        d_row[o] = out_row[o] - target;
                        epoch_loss +=
                            -(target *
                                  std::log(std::max(1.0e-12, out_row[o])) +
                              (1.0 - target) *
                                  std::log(std::max(1.0e-12,
                                                    1.0 - out_row[o])));
                    }
                }
            }

            // Backward.
            for (std::size_t l = depth; l-- > 0;) {
                const Layer &layer = layers_[l];
                const std::size_t fan_out = width[l + 1];
                const std::size_t fan_in = width[l];
                // grad_w = delta^T * acts[l]: each weight accumulates
                // over ascending sample index, the oracle's order.
                double *delta_t = arena.alloc(fan_out * bsz);
                kernels::transpose(bsz, fan_out, delta, delta_t);
                kernels::gemm(fan_out, bsz, fan_in, delta_t, acts[l],
                              grad_w[l].data().data(), nullptr);
                auto &gb = grad_b[l];
                std::fill(gb.begin(), gb.end(), 0.0);
                for (std::size_t s = 0; s < bsz; ++s) {
                    const double *d_row = delta + s * fan_out;
                    for (std::size_t o = 0; o < fan_out; ++o) {
                        gb[o] += d_row[o];
                    }
                }
                if (l == 0) {
                    break;
                }
                // delta_prev = delta * W, then the ReLU mask of the
                // previous layer's post-activations.
                double *delta_prev = arena.alloc(bsz * fan_in);
                kernels::gemm(bsz, fan_out, fan_in, delta,
                              layer.weights.data().data(), delta_prev,
                              nullptr);
                const double *a_prev = acts[l];
                for (std::size_t i = 0; i < bsz * fan_in; ++i) {
                    if (a_prev[i] <= 0.0) {
                        delta_prev[i] = 0.0;
                    }
                }
                delta = delta_prev;
            }

            // Adam update.
            ++adam_step_;
            const double bc1 =
                1.0 - std::pow(beta1, static_cast<double>(adam_step_));
            const double bc2 =
                1.0 - std::pow(beta2, static_cast<double>(adam_step_));
            for (std::size_t l = 0; l < layers_.size(); ++l) {
                Layer &layer = layers_[l];
                auto &gw = grad_w[l].data();
                auto &w = layer.weights.data();
                auto &mw = layer.m_w.data();
                auto &vw = layer.v_w.data();
                for (std::size_t i = 0; i < w.size(); ++i) {
                    const double g = gw[i] / batch_n +
                                     options.weight_decay * w[i];
                    mw[i] = beta1 * mw[i] + (1.0 - beta1) * g;
                    vw[i] = beta2 * vw[i] + (1.0 - beta2) * g * g;
                    w[i] -= options.learning_rate * (mw[i] / bc1) /
                            (std::sqrt(vw[i] / bc2) + eps);
                }
                for (std::size_t o = 0; o < layer.bias.size(); ++o) {
                    const double g = grad_b[l][o] / batch_n;
                    layer.m_b[o] = beta1 * layer.m_b[o] + (1.0 - beta1) * g;
                    layer.v_b[o] =
                        beta2 * layer.v_b[o] + (1.0 - beta2) * g * g;
                    layer.bias[o] -= options.learning_rate *
                                     (layer.m_b[o] / bc1) /
                                     (std::sqrt(layer.v_b[o] / bc2) + eps);
                }
            }
            // The next minibatch's forward GEMM reads weights_t.
            refreshTransposes();
            batch_start = batch_end;
        }
        last_epoch_loss = epoch_loss / static_cast<double>(n);
    }
    return last_epoch_loss;
}

void
Mlp::save(std::ostream &os) const
{
    os << "mlp 1\n";
    os << config_.input_dim << ' ' << config_.output_dim << ' '
       << (config_.output == OutputKind::Softmax ? 1 : 0) << ' '
       << config_.hidden.size();
    for (int h : config_.hidden) {
        os << ' ' << h;
    }
    os << '\n';
    os.precision(17);
    for (const auto &layer : layers_) {
        for (double w : layer.weights.data()) {
            os << w << ' ';
        }
        for (double b : layer.bias) {
            os << b << ' ';
        }
        os << '\n';
    }
}

Mlp
Mlp::load(std::istream &is)
{
    std::string magic;
    int version = 0;
    is >> magic >> version;
    if (magic != "mlp" || version != 1) {
        util::fatal("Mlp::load: bad header");
    }
    // Memory grows with the input, never with a declared count: widths
    // and weights are appended as they are read, and the net is sized
    // only once the stream has supplied every weight it declares.
    MlpConfig config;
    int softmax = 0;
    std::size_t hidden_count = 0;
    is >> config.input_dim >> config.output_dim >> softmax >> hidden_count;
    if (!is) {
        util::fatal("Mlp::load: truncated stream");
    }
    if (config.input_dim < 1 || config.output_dim < 1) {
        util::fatal("Mlp::load: input and output dims must be >= 1, got " +
                    std::to_string(config.input_dim) + " and " +
                    std::to_string(config.output_dim));
    }
    config.output = softmax ? OutputKind::Softmax : OutputKind::Sigmoid;
    for (std::size_t i = 0; i < hidden_count; ++i) {
        int width = 0;
        if (!(is >> width)) {
            util::fatal("Mlp::load: truncated stream");
        }
        if (width < 1) {
            util::fatal("Mlp::load: hidden width must be >= 1, got " +
                        std::to_string(width));
        }
        config.hidden.push_back(width);
    }
    std::vector<double> params;
    std::size_t fan_in = static_cast<std::size_t>(config.input_dim);
    for (std::size_t l = 0; l <= config.hidden.size(); ++l) {
        const std::size_t fan_out = static_cast<std::size_t>(
            l < config.hidden.size() ? config.hidden[l] : config.output_dim);
        // Both widths are < 2^31, so the count cannot overflow.
        for (std::size_t k = 0; k < fan_out * fan_in + fan_out; ++k) {
            double value = 0.0;
            if (!(is >> value)) {
                util::fatal("Mlp::load: truncated stream");
            }
            params.push_back(value);
        }
        fan_in = fan_out;
    }
    util::Rng rng(0);
    Mlp mlp(config, rng);
    std::size_t next = 0;
    for (auto &layer : mlp.layers_) {
        for (auto &w : layer.weights.data()) {
            w = params[next++];
        }
        for (auto &b : layer.bias) {
            b = params[next++];
        }
    }
    mlp.refreshTransposes();
    return mlp;
}

} // namespace kodan::ml
