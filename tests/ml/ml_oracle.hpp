/**
 * @file
 * Test oracles for the ML kernel layer: the scalar per-sample and
 * per-point loops that the batched production paths (one GEMM chain per
 * layer, norm-expansion k-means, packed int8 GEMM) must match bit for
 * bit. They read only the public state of what they check; where a
 * production path has a private step of its own (k-means++ seeding, the
 * centroid update, the Adam update), the oracle restates it.
 * bench_ml_kernels times them as its naive column.
 */

#ifndef KODAN_TESTS_ML_ML_ORACLE_HPP
#define KODAN_TESTS_ML_ML_ORACLE_HPP

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/kmeans.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/transforms.hpp"
#include "util/rng.hpp"

namespace kodan::ml::oracle {

/** a * b by the textbook triple loop, skipping zero a[i][k] terms (an
 *  accumulator seeded +0.0 never becomes -0.0, so the skip cannot
 *  change a bit). */
inline Matrix
multiplyNaive(const Matrix &a, const Matrix &b)
{
    assert(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double *c_row = c.row(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a.at(i, k);
            if (aik == 0.0) {
                continue;
            }
            const double *b_row = b.row(k);
            for (std::size_t j = 0; j < b.cols(); ++j) {
                c_row[j] += aik * b_row[j];
            }
        }
    }
    return c;
}

/** Standardizer::transform, one element at a time. */
inline Matrix
standardizeNaive(const Standardizer &scaler, const Matrix &x)
{
    Matrix out(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t d = 0; d < x.cols(); ++d) {
            out.at(i, d) =
                (x.at(i, d) - scaler.mean()[d]) / scaler.stddev()[d];
        }
    }
    return out;
}

/** Pca::transform, one projected value at a time. */
inline Matrix
pcaNaive(const Pca &pca, const Matrix &x)
{
    const Matrix &axes = pca.axes();
    Matrix out(x.rows(), axes.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t c = 0; c < axes.rows(); ++c) {
            double sum = 0.0;
            for (std::size_t d = 0; d < x.cols(); ++d) {
                sum += axes.at(c, d) * (x.at(i, d) - pca.mean()[d]);
            }
            out.at(i, c) = sum;
        }
    }
    return out;
}

/**
 * An Mlp's parameters with the per-sample forward and training loops.
 * Starts from the net's weights and a zero Adam state, which is the
 * state of a net that has never trained (a fresh or a loaded one).
 */
class NaiveMlp
{
  public:
    explicit NaiveMlp(const Mlp &net) : config_(net.config())
    {
        for (std::size_t l = 0; l < net.layerCount(); ++l) {
            const Matrix &w = net.layerWeights(l);
            weights_.push_back(w);
            bias_.push_back(net.layerBias(l));
            m_w_.emplace_back(w.rows(), w.cols());
            v_w_.emplace_back(w.rows(), w.cols());
            m_b_.emplace_back(w.rows(), 0.0);
            v_b_.emplace_back(w.rows(), 0.0);
        }
    }

    /** Weights of layer @p l, fan_out x fan_in. */
    const Matrix &weights(std::size_t l) const { return weights_[l]; }

    /** Bias of layer @p l. */
    const std::vector<double> &bias(std::size_t l) const { return bias_[l]; }

    /** Forward one sample: config().output_dim values into @p out. */
    void forward(const double *x, double *out) const
    {
        std::vector<double> current(x, x + config_.input_dim);
        std::vector<double> next;
        for (std::size_t l = 0; l < weights_.size(); ++l) {
            layer(l, current, next);
            current.swap(next);
        }
        std::copy(current.begin(), current.end(), out);
    }

    /** Mlp::train, one sample at a time (same loss, same weights). */
    double train(const Matrix &x, const std::vector<double> &targets,
                 const TrainOptions &options, util::Rng &rng)
    {
        const std::size_t n = x.rows();
        const bool softmax = config_.output == OutputKind::Softmax;
        const std::size_t depth = weights_.size();
        std::vector<Matrix> grad_w;
        std::vector<std::vector<double>> grad_b;
        for (std::size_t l = 0; l < depth; ++l) {
            grad_w.emplace_back(weights_[l].rows(), weights_[l].cols());
            grad_b.emplace_back(bias_[l].size(), 0.0);
        }
        std::vector<std::vector<double>> acts;
        std::vector<double> delta;
        std::vector<double> delta_prev;
        double last_epoch_loss = 0.0;
        for (int epoch = 0; epoch < options.epochs; ++epoch) {
            const auto order = rng.permutation(n);
            double epoch_loss = 0.0;
            for (std::size_t start = 0; start < n;
                 start += static_cast<std::size_t>(options.batch_size)) {
                const std::size_t end = std::min(
                    n, start + static_cast<std::size_t>(options.batch_size));
                for (std::size_t l = 0; l < depth; ++l) {
                    grad_w[l].fill(0.0);
                    std::fill(grad_b[l].begin(), grad_b[l].end(), 0.0);
                }
                for (std::size_t s = start; s < end; ++s) {
                    const std::size_t idx = order[s];
                    forwardTraining(x.row(idx), acts);
                    const auto &out = acts.back();
                    // Output delta: prob - target for both heads.
                    delta.assign(out.size(), 0.0);
                    if (softmax) {
                        const auto cls =
                            static_cast<std::size_t>(targets[idx]);
                        for (std::size_t o = 0; o < out.size(); ++o) {
                            delta[o] = out[o] - (o == cls ? 1.0 : 0.0);
                        }
                        epoch_loss += -std::log(std::max(1.0e-12, out[cls]));
                    } else {
                        for (std::size_t o = 0; o < out.size(); ++o) {
                            const double target =
                                targets[idx * out.size() + o];
                            delta[o] = out[o] - target;
                            epoch_loss +=
                                -(target *
                                      std::log(std::max(1.0e-12, out[o])) +
                                  (1.0 - target) *
                                      std::log(std::max(1.0e-12,
                                                        1.0 - out[o])));
                        }
                    }
                    // Backpropagate.
                    for (std::size_t l = depth; l-- > 0;) {
                        const Matrix &w = weights_[l];
                        for (std::size_t o = 0; o < w.rows(); ++o) {
                            if (delta[o] == 0.0) {
                                continue;
                            }
                            for (std::size_t i = 0; i < w.cols(); ++i) {
                                grad_w[l].at(o, i) += delta[o] * acts[l][i];
                            }
                            grad_b[l][o] += delta[o];
                        }
                        if (l == 0) {
                            break;
                        }
                        delta_prev.assign(w.cols(), 0.0);
                        for (std::size_t o = 0; o < w.rows(); ++o) {
                            if (delta[o] == 0.0) {
                                continue;
                            }
                            for (std::size_t i = 0; i < w.cols(); ++i) {
                                delta_prev[i] += delta[o] * w.at(o, i);
                            }
                        }
                        // ReLU derivative of the previous layer's output.
                        for (std::size_t i = 0; i < w.cols(); ++i) {
                            if (acts[l][i] <= 0.0) {
                                delta_prev[i] = 0.0;
                            }
                        }
                        delta.swap(delta_prev);
                    }
                }
                adam(grad_w, grad_b, static_cast<double>(end - start),
                     options);
            }
            last_epoch_loss = epoch_loss / static_cast<double>(n);
        }
        return last_epoch_loss;
    }

  private:
    MlpConfig config_;
    std::vector<Matrix> weights_;
    std::vector<std::vector<double>> bias_;
    std::vector<Matrix> m_w_, v_w_;
    std::vector<std::vector<double>> m_b_, v_b_;
    long long adam_step_ = 0;

    /** Post-activation vector of every layer (acts[0] = x). */
    void forwardTraining(const double *x,
                         std::vector<std::vector<double>> &acts) const
    {
        acts.resize(weights_.size() + 1);
        acts[0].assign(x, x + config_.input_dim);
        for (std::size_t l = 0; l < weights_.size(); ++l) {
            layer(l, acts[l], acts[l + 1]);
        }
    }

    /** @p out = activation(W_l * @p in + b_l) for layer @p l: ReLU on
     *  hidden layers, the head's sigmoid or softmax on the last. */
    void layer(std::size_t l, const std::vector<double> &in,
               std::vector<double> &out) const
    {
        const Matrix &w = weights_[l];
        out.assign(w.rows(), 0.0);
        for (std::size_t o = 0; o < w.rows(); ++o) {
            const double *w_row = w.row(o);
            double z = bias_[l][o];
            for (std::size_t i = 0; i < w.cols(); ++i) {
                z += w_row[i] * in[i];
            }
            out[o] = z;
        }
        if (l + 1 < weights_.size()) {
            for (double &v : out) {
                v = std::max(0.0, v);
            }
        } else if (config_.output == OutputKind::Sigmoid) {
            for (double &v : out) {
                v = 1.0 / (1.0 + std::exp(-v));
            }
        } else {
            const double peak = *std::max_element(out.begin(), out.end());
            double total = 0.0;
            for (double &v : out) {
                v = std::exp(v - peak);
                total += v;
            }
            for (double &v : out) {
                v /= total;
            }
        }
    }

    /** One Adam step over a minibatch's summed gradients. */
    void adam(const std::vector<Matrix> &grad_w,
              const std::vector<std::vector<double>> &grad_b,
              double batch_n, const TrainOptions &options)
    {
        const double beta1 = 0.9;
        const double beta2 = 0.999;
        const double eps = 1.0e-8;
        ++adam_step_;
        const double bc1 =
            1.0 - std::pow(beta1, static_cast<double>(adam_step_));
        const double bc2 =
            1.0 - std::pow(beta2, static_cast<double>(adam_step_));
        const auto step = [&](double g, double &m, double &v, double &p) {
            m = beta1 * m + (1.0 - beta1) * g;
            v = beta2 * v + (1.0 - beta2) * g * g;
            p -= options.learning_rate * (m / bc1) /
                 (std::sqrt(v / bc2) + eps);
        };
        for (std::size_t l = 0; l < weights_.size(); ++l) {
            auto &w = weights_[l].data();
            for (std::size_t i = 0; i < w.size(); ++i) {
                step(grad_w[l].data()[i] / batch_n +
                         options.weight_decay * w[i],
                     m_w_[l].data()[i], v_w_[l].data()[i], w[i]);
            }
            for (std::size_t o = 0; o < bias_[l].size(); ++o) {
                step(grad_b[l][o] / batch_n, m_b_[l][o], v_b_[l][o],
                     bias_[l][o]);
            }
        }
    }
};

/**
 * KMeans(k, metric, max_iters, restarts).fit(x, rng), one point at a
 * time: k-means++ seeding, Lloyd iterations that assign each point to
 * the centroid at the least full metric distance (first of ties), the
 * mean update with empty clusters reseeded on a random sample, and the
 * restart with the least inertia. Draws from @p rng exactly as fit().
 */
inline KMeansResult
kmeansNaive(const Matrix &x, int k, Distance metric, int max_iters,
            int restarts, util::Rng &rng)
{
    const std::size_t n = x.rows();
    const std::size_t dim = x.cols();
    const auto draw = [&] {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    KMeansResult best;
    double best_inertia = std::numeric_limits<double>::infinity();
    for (int r = 0; r < restarts; ++r) {
        KMeansResult result;
        result.k = k;
        result.metric = metric;
        result.centroids = Matrix(k, dim);
        result.assignment.assign(n, 0);

        // k-means++ seeding; weights square the metric distance.
        std::vector<double> min_dist(
            n, std::numeric_limits<double>::infinity());
        std::copy_n(x.row(draw()), dim, result.centroids.row(0));
        for (int c = 1; c < k; ++c) {
            for (std::size_t i = 0; i < n; ++i) {
                const double d = KMeans::distance(
                    x.row(i), result.centroids.row(c - 1), dim, metric);
                min_dist[i] = std::min(min_dist[i], d * d);
            }
            double total = 0.0;
            for (double d : min_dist) {
                total += d;
            }
            std::size_t chosen = 0;
            if (total <= 0.0) {
                chosen = draw();
            } else {
                double left = rng.uniform() * total;
                for (std::size_t i = 0; i < n; ++i) {
                    left -= min_dist[i];
                    if (left < 0.0) {
                        chosen = i;
                        break;
                    }
                }
            }
            std::copy_n(x.row(chosen), dim, result.centroids.row(c));
        }

        for (int iter = 0; iter < max_iters; ++iter) {
            bool changed = false;
            result.inertia = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                int nearest = 0;
                double nearest_dist =
                    std::numeric_limits<double>::infinity();
                for (int c = 0; c < k; ++c) {
                    const double d = KMeans::distance(
                        x.row(i), result.centroids.row(c), dim, metric);
                    if (d < nearest_dist) {
                        nearest_dist = d;
                        nearest = c;
                    }
                }
                result.inertia += KMeans::distance(
                    x.row(i), result.centroids.row(nearest), dim, metric);
                if (nearest != result.assignment[i]) {
                    result.assignment[i] = nearest;
                    changed = true;
                }
            }
            if (!changed && iter > 0) {
                break;
            }
            // Update: cluster means; an empty cluster is reseeded.
            Matrix sums(k, dim);
            std::vector<std::size_t> counts(k, 0);
            for (std::size_t i = 0; i < n; ++i) {
                const int c = result.assignment[i];
                for (std::size_t d = 0; d < dim; ++d) {
                    sums.at(c, d) += x.at(i, d);
                }
                ++counts[c];
            }
            for (int c = 0; c < k; ++c) {
                if (counts[c] == 0) {
                    std::copy_n(x.row(draw()), dim, result.centroids.row(c));
                    continue;
                }
                const double inv = 1.0 / static_cast<double>(counts[c]);
                for (std::size_t d = 0; d < dim; ++d) {
                    result.centroids.at(c, d) = sums.at(c, d) * inv;
                }
            }
        }
        if (result.inertia < best_inertia) {
            best_inertia = result.inertia;
            best = std::move(result);
        }
    }
    return best;
}

/**
 * C(int32) = A(int8) * W^T(int8) + bias by scalar loops over the raw
 * operands: A is m x k, W is n x k (output channel major), @p bias n
 * values or null. Unsigned accumulation keeps even out-of-contract
 * shapes free of undefined behaviour.
 */
inline void
gemmI8Naive(std::size_t m, std::size_t k, std::size_t n,
            const std::int8_t *a, const std::int8_t *w,
            const std::int32_t *bias, std::int32_t *c)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            auto z = static_cast<std::uint32_t>(bias != nullptr ? bias[j] : 0);
            for (std::size_t p = 0; p < k; ++p) {
                z += static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(a[i * k + p]) *
                    static_cast<std::int32_t>(w[j * k + p]));
            }
            c[i * n + j] = static_cast<std::int32_t>(z);
        }
    }
}

/** kernels::gemmI8Requant over the raw operands: gemmI8Naive, then
 *  requantize() and saturateI8() per element. */
inline void
gemmI8RequantNaive(std::size_t m, std::size_t k, std::size_t n,
                   const std::int8_t *a, const std::int8_t *w,
                   const std::int32_t *bias, const kernels::Requant *rq,
                   bool relu, std::int8_t *c)
{
    std::vector<std::int32_t> acc(n);
    for (std::size_t i = 0; i < m; ++i) {
        gemmI8Naive(1, k, n, a + i * k, w, bias, acc.data());
        for (std::size_t j = 0; j < n; ++j) {
            c[i * n + j] = kernels::saturateI8(
                kernels::requantize(acc[j], rq[j]), relu ? 0 : -127);
        }
    }
}

} // namespace kodan::ml::oracle

#endif // KODAN_TESTS_ML_ML_ORACLE_HPP
