/**
 * @file
 * K-means clustering over label vectors, with the distance-metric sweep
 * described in the paper's automatic context generation (Section 3.2):
 * Euclidean, Hamming (binarized), and Cosine.
 */

#ifndef KODAN_ML_KMEANS_HPP
#define KODAN_ML_KMEANS_HPP

#include <vector>

#include "ml/matrix.hpp"
#include "util/rng.hpp"

namespace kodan::ml {

/** Distance metrics for clustering. */
enum class Distance
{
    Euclidean,
    Hamming,
    Cosine,
};

/** Human-readable metric name. */
const char *distanceName(Distance metric);

/** Outcome of one k-means fit. */
struct KMeansResult
{
    /** Cluster count. */
    int k = 0;
    /** Metric used. */
    Distance metric = Distance::Euclidean;
    /** Centroids, one per row. */
    Matrix centroids;
    /** Cluster assignment per input row. */
    std::vector<int> assignment;
    /** Sum of distances of samples to their centroid. */
    double inertia = 0.0;

    /**
     * Index of the nearest centroid to @p x (under the fit's metric).
     *
     * For Euclidean fits the comparison is on squared distances — sqrt
     * is monotone, so the argmin (first-of-ties) is the same and the
     * per-centroid sqrt is skipped.
     *
     * @param x Vector of centroids.cols() values.
     */
    int nearest(const double *x) const;
};

/**
 * Lloyd's algorithm with k-means++ seeding and restarts.
 *
 * For non-Euclidean metrics the assignment step uses the requested
 * metric while the update step remains the arithmetic mean (a standard
 * k-means-with-custom-metric approximation; exact medoid updates are
 * unnecessary for the well-separated label vectors in this workload).
 */
class KMeans
{
  public:
    /**
     * @param k Number of clusters (>= 1).
     * @param metric Assignment distance.
     * @param max_iters Lloyd iteration cap per restart.
     * @param restarts Independent restarts; the best inertia wins.
     */
    explicit KMeans(int k, Distance metric = Distance::Euclidean,
                    int max_iters = 64, int restarts = 4);

    /**
     * Fit to the rows of @p x.
     * @param x Samples, one per row; must have at least k rows.
     * @param rng Seeding randomness.
     */
    KMeansResult fit(const Matrix &x, util::Rng &rng) const;

    /** Distance between two vectors under @p metric. */
    static double distance(const double *a, const double *b,
                           std::size_t dim, Distance metric);

  private:
    int k_;
    Distance metric_;
    int max_iters_;
    int restarts_;

    KMeansResult fitOnce(const Matrix &x, util::Rng &rng) const;

    /**
     * Batched Lloyd iterations: Euclidean and Cosine assignment via one
     * point-by-centroid GEMM per iteration (with the norm expansion
     * ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 for Euclidean), Hamming
     * on pre-binarized bytes. Assignments, inertia, and rng consumption
     * are bit-identical to per-point iterations with the full metric
     * distance (the test oracle in tests/ml/ml_oracle.hpp).
     */
    void lloyd(const Matrix &x, util::Rng &rng, KMeansResult &result) const;
};

/**
 * Mean silhouette score of a clustering, a cluster-count validity
 * criterion for the k sweep. Computed on a subsample for large inputs.
 *
 * @param x Samples clustered by @p result.
 * @param result Fit to evaluate.
 * @param sample_cap Maximum samples to include (subsampled evenly).
 * @return Mean silhouette in [-1, 1]; higher is better separated.
 */
double silhouetteScore(const Matrix &x, const KMeansResult &result,
                       std::size_t sample_cap = 512);

} // namespace kodan::ml

#endif // KODAN_ML_KMEANS_HPP
