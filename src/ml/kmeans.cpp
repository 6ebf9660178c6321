#include "ml/kmeans.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ml/kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace kodan::ml {

const char *
distanceName(Distance metric)
{
    switch (metric) {
      case Distance::Euclidean:
        return "euclidean";
      case Distance::Hamming:
        return "hamming";
      case Distance::Cosine:
        return "cosine";
    }
    return "?";
}

double
KMeans::distance(const double *a, const double *b, std::size_t dim,
                 Distance metric)
{
    switch (metric) {
      case Distance::Euclidean: {
        double sum = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            const double d = a[i] - b[i];
            sum += d * d;
        }
        return std::sqrt(sum);
      }
      case Distance::Hamming: {
        // Binarize at 0.5 and count disagreements.
        double count = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            if ((a[i] > 0.5) != (b[i] > 0.5)) {
                count += 1.0;
            }
        }
        return count;
      }
      case Distance::Cosine: {
        double dot = 0.0;
        double na = 0.0;
        double nb = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            dot += a[i] * b[i];
            na += a[i] * a[i];
            nb += b[i] * b[i];
        }
        const double denom = std::sqrt(na * nb);
        if (denom < 1.0e-12) {
            return 1.0;
        }
        return 1.0 - dot / denom;
      }
    }
    return 0.0;
}

namespace {

/** Squared Euclidean distance, same difference-based reduction order as
 * KMeans::distance minus the final sqrt. */
double
squaredEuclidean(const double *a, const double *b, std::size_t dim)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
        const double d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

/**
 * Lloyd update step (means, empty-cluster reseed); the test oracle
 * restates it, rng consumption included.
 */
void
updateCentroids(const Matrix &x, KMeansResult &result, int k,
                std::vector<std::size_t> &counts, Matrix &sums,
                util::Rng &rng)
{
    const std::size_t n = x.rows();
    const std::size_t dim = x.cols();
    sums.fill(0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
        const int c = result.assignment[i];
        double *sum_row = sums.row(c);
        const double *x_row = x.row(i);
        for (std::size_t d = 0; d < dim; ++d) {
            sum_row[d] += x_row[d];
        }
        ++counts[c];
    }
    for (int c = 0; c < k; ++c) {
        if (counts[c] == 0) {
            // Re-seed an empty cluster on a random sample.
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
            std::copy_n(x.row(pick), dim, result.centroids.row(c));
            continue;
        }
        const double inv = 1.0 / static_cast<double>(counts[c]);
        double *centroid = result.centroids.row(c);
        const double *sum_row = sums.row(c);
        for (std::size_t d = 0; d < dim; ++d) {
            centroid[d] = sum_row[d] * inv;
        }
    }
}

} // namespace

int
KMeansResult::nearest(const double *x) const
{
    // Euclidean compares squared distances: the same winner as the
    // sqrt'd compare (monotone), one sqrt per centroid saved.
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
        const double d =
            metric == Distance::Euclidean
                ? squaredEuclidean(x, centroids.row(c), centroids.cols())
                : KMeans::distance(x, centroids.row(c), centroids.cols(),
                                   metric);
        if (d < best_dist) {
            best_dist = d;
            best = c;
        }
    }
    return best;
}

KMeans::KMeans(int k, Distance metric, int max_iters, int restarts)
    : k_(k), metric_(metric), max_iters_(max_iters), restarts_(restarts)
{
    assert(k >= 1);
    assert(max_iters >= 1);
    assert(restarts >= 1);
}

KMeansResult
KMeans::fitOnce(const Matrix &x, util::Rng &rng) const
{
    const std::size_t n = x.rows();
    const std::size_t dim = x.cols();
    assert(n >= static_cast<std::size_t>(k_));

    KMeansResult result;
    result.k = k_;
    result.metric = metric_;
    result.centroids = Matrix(k_, dim);
    result.assignment.assign(n, 0);

    // k-means++ seeding. Its weights square the sqrt'd metric distance
    // (d * d), which is NOT bit-equal to a direct squared-difference
    // sum, so rewriting it would perturb every downstream draw of the
    // shared rng; the test oracle restates it as is.
    std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
    std::size_t first = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    std::copy_n(x.row(first), dim, result.centroids.row(0));
    for (int c = 1; c < k_; ++c) {
        for (std::size_t i = 0; i < n; ++i) {
            const double d = distance(x.row(i),
                                      result.centroids.row(c - 1), dim,
                                      metric_);
            min_dist[i] = std::min(min_dist[i], d * d);
        }
        double total = 0.0;
        for (double d : min_dist) {
            total += d;
        }
        std::size_t chosen = 0;
        if (total <= 0.0) {
            chosen = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
        } else {
            double draw = rng.uniform() * total;
            for (std::size_t i = 0; i < n; ++i) {
                draw -= min_dist[i];
                if (draw < 0.0) {
                    chosen = i;
                    break;
                }
            }
        }
        std::copy_n(x.row(chosen), dim, result.centroids.row(c));
    }

    lloyd(x, rng, result);
    return result;
}

void
KMeans::lloyd(const Matrix &x, util::Rng &rng, KMeansResult &result) const
{
    const std::size_t n = x.rows();
    const std::size_t dim = x.cols();
    const auto k = static_cast<std::size_t>(k_);
    auto &arena = kernels::scratch();
    kernels::Scratch::Frame frame(arena);

    // Loop-invariant point-side precomputation.
    double *point_norms = nullptr;
    std::vector<std::uint8_t> point_bits;
    if (metric_ == Distance::Hamming) {
        point_bits.resize(n * dim);
        const double *raw = x.data().data();
        for (std::size_t i = 0; i < n * dim; ++i) {
            point_bits[i] = raw[i] > 0.5 ? 1 : 0;
        }
    } else {
        point_norms = arena.alloc(n);
        kernels::rowSquaredNorms(n, dim, x.data().data(), point_norms);
    }

    double *centroids_t = arena.alloc(dim * k);
    double *centroid_norms = arena.alloc(k);
    double *dots = arena.alloc(n * k);
    std::vector<std::uint8_t> centroid_bits(
        metric_ == Distance::Hamming ? k * dim : 0);

    std::vector<std::size_t> counts(k_, 0);
    Matrix sums(k_, dim);
    for (int iter = 0; iter < max_iters_; ++iter) {
        bool changed = false;
        result.inertia = 0.0;
        switch (metric_) {
          case Distance::Euclidean: {
            // ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the argmin of the
            // expansion matches the oracle's sqrt'd compare on all
            // non-pathological data (verified bit-identical on the
            // workload by the mlkernels suite). The inertia recomputes
            // the oracle's difference-based distance on the one chosen
            // centroid, so its bits are exactly the oracle's.
            kernels::transpose(k, dim, result.centroids.data().data(),
                               centroids_t);
            kernels::rowSquaredNorms(k, dim,
                                     result.centroids.data().data(),
                                     centroid_norms);
            kernels::gemm(n, dim, k, x.data().data(), centroids_t, dots,
                          nullptr);
            for (std::size_t i = 0; i < n; ++i) {
                const double *dot_row = dots + i * k;
                int best = 0;
                double best_dist = point_norms[i] - 2.0 * dot_row[0] +
                                   centroid_norms[0];
                for (std::size_t c = 1; c < k; ++c) {
                    const double d = point_norms[i] - 2.0 * dot_row[c] +
                                     centroid_norms[c];
                    if (d < best_dist) {
                        best_dist = d;
                        best = static_cast<int>(c);
                    }
                }
                result.inertia +=
                    distance(x.row(i), result.centroids.row(best), dim,
                             Distance::Euclidean);
                if (best != result.assignment[i]) {
                    result.assignment[i] = best;
                    changed = true;
                }
            }
            break;
          }
          case Distance::Hamming: {
            const double *raw = result.centroids.data().data();
            for (std::size_t i = 0; i < k * dim; ++i) {
                centroid_bits[i] = raw[i] > 0.5 ? 1 : 0;
            }
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint8_t *xb = point_bits.data() + i * dim;
                int best = 0;
                std::size_t best_count = dim + 1;
                for (std::size_t c = 0; c < k; ++c) {
                    const std::uint8_t *cb =
                        centroid_bits.data() + c * dim;
                    std::size_t count = 0;
                    for (std::size_t d = 0; d < dim; ++d) {
                        count += xb[d] != cb[d];
                    }
                    if (count < best_count) {
                        best_count = count;
                        best = static_cast<int>(c);
                    }
                }
                result.inertia += static_cast<double>(best_count);
                if (best != result.assignment[i]) {
                    result.assignment[i] = best;
                    changed = true;
                }
            }
            break;
          }
          case Distance::Cosine: {
            kernels::transpose(k, dim, result.centroids.data().data(),
                               centroids_t);
            kernels::rowSquaredNorms(k, dim,
                                     result.centroids.data().data(),
                                     centroid_norms);
            kernels::gemm(n, dim, k, x.data().data(), centroids_t, dots,
                          nullptr);
            for (std::size_t i = 0; i < n; ++i) {
                const double *dot_row = dots + i * k;
                int best = 0;
                double best_dist =
                    std::numeric_limits<double>::infinity();
                for (std::size_t c = 0; c < k; ++c) {
                    // Same dot/norm accumulation order as
                    // KMeans::distance (three independent ascending
                    // sums), so each d is bit-equal to the oracle's.
                    const double denom =
                        std::sqrt(point_norms[i] * centroid_norms[c]);
                    const double d = denom < 1.0e-12
                                         ? 1.0
                                         : 1.0 - dot_row[c] / denom;
                    if (d < best_dist) {
                        best_dist = d;
                        best = static_cast<int>(c);
                    }
                }
                result.inertia += best_dist;
                if (best != result.assignment[i]) {
                    result.assignment[i] = best;
                    changed = true;
                }
            }
            break;
          }
        }
        if (!changed && iter > 0) {
            break;
        }
        updateCentroids(x, result, k_, counts, sums, rng);
    }
}

KMeansResult
KMeans::fit(const Matrix &x, util::Rng &rng) const
{
    KODAN_TRACE_SCOPE("ml.kmeans.fit");
    KODAN_COUNT_ADD("ml.kmeans.fit.points", x.rows());
    KMeansResult best;
    double best_inertia = std::numeric_limits<double>::infinity();
    for (int r = 0; r < restarts_; ++r) {
        KMeansResult candidate = fitOnce(x, rng);
        if (candidate.inertia < best_inertia) {
            best_inertia = candidate.inertia;
            best = std::move(candidate);
        }
    }
    return best;
}

double
silhouetteScore(const Matrix &x, const KMeansResult &result,
                std::size_t sample_cap)
{
    const std::size_t n = x.rows();
    const std::size_t dim = x.cols();
    if (n < 2 || result.k < 2) {
        return 0.0;
    }
    const std::size_t stride = std::max<std::size_t>(1, n / sample_cap);

    // Gather the subsample indices.
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < n; i += stride) {
        idx.push_back(i);
    }

    double total = 0.0;
    std::size_t counted = 0;
    std::vector<double> cluster_dist(result.k);
    std::vector<std::size_t> cluster_count(result.k);
    for (std::size_t i : idx) {
        std::fill(cluster_dist.begin(), cluster_dist.end(), 0.0);
        std::fill(cluster_count.begin(), cluster_count.end(), 0);
        for (std::size_t j : idx) {
            if (i == j) {
                continue;
            }
            const double d =
                KMeans::distance(x.row(i), x.row(j), dim, result.metric);
            cluster_dist[result.assignment[j]] += d;
            ++cluster_count[result.assignment[j]];
        }
        const int own = result.assignment[i];
        if (cluster_count[own] == 0) {
            continue;
        }
        const double a = cluster_dist[own] /
                         static_cast<double>(cluster_count[own]);
        double b = std::numeric_limits<double>::infinity();
        for (int c = 0; c < result.k; ++c) {
            if (c == own || cluster_count[c] == 0) {
                continue;
            }
            b = std::min(b, cluster_dist[c] /
                                static_cast<double>(cluster_count[c]));
        }
        if (!std::isfinite(b)) {
            continue;
        }
        const double denom = std::max(a, b);
        if (denom > 0.0) {
            total += (b - a) / denom;
            ++counted;
        }
    }
    return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

} // namespace kodan::ml
