/**
 * @file
 * Feature transforms for the clustering sweep: standardization and PCA
 * (the paper's "label vector transformations, including translations,
 * rotations, and projections based on per-dimension covariance
 * properties").
 */

#ifndef KODAN_ML_TRANSFORMS_HPP
#define KODAN_ML_TRANSFORMS_HPP

#include <iosfwd>
#include <vector>

#include "ml/matrix.hpp"

namespace kodan::ml {

/**
 * Per-dimension translation/scale to zero mean and unit variance.
 */
class Standardizer
{
  public:
    /** Learn per-dimension mean and standard deviation from @p x. */
    void fit(const Matrix &x);

    /** Transform a matrix (row per sample). */
    Matrix transform(const Matrix &x) const;

    /** Transform one vector in place. */
    void transformRow(double *row) const;

    /** Learned means. */
    const std::vector<double> &mean() const { return mean_; }

    /** Learned standard deviations (floored at 1e-9). */
    const std::vector<double> &stddev() const { return std_; }

    /** Serialize the learned statistics. */
    void save(std::ostream &os) const;

    /** Deserialize statistics written by save(). */
    static Standardizer load(std::istream &is);

  private:
    std::vector<double> mean_;
    std::vector<double> std_;
};

/**
 * Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
 *
 * @param symmetric Square symmetric input.
 * @param eigenvalues Output, descending order.
 * @param eigenvectors Output, one eigenvector per row, matching order.
 */
void jacobiEigen(const Matrix &symmetric, std::vector<double> &eigenvalues,
                 Matrix &eigenvectors);

/**
 * Principal component analysis (rotation + projection).
 */
class Pca
{
  public:
    /**
     * Learn the top @p components principal axes of @p x.
     * @param x Samples, one per row.
     * @param components Output dimensionality (<= x.cols()).
     */
    void fit(const Matrix &x, std::size_t components);

    /** Project a matrix onto the learned axes. */
    Matrix transform(const Matrix &x) const;

    /** Learned per-dimension means (the projection's origin). */
    const std::vector<double> &mean() const { return mean_; }

    /** Learned axes, one kept component per row. */
    const Matrix &axes() const { return axes_; }

    /** Eigenvalues of the kept components, descending. */
    const std::vector<double> &eigenvalues() const { return eigenvalues_; }

    /** Number of kept components. */
    std::size_t components() const { return axes_.rows(); }

    /** Fraction of total variance captured by the kept components. */
    double explainedVariance() const;

  private:
    std::vector<double> mean_;
    Matrix axes_; // components x dim
    std::vector<double> eigenvalues_;
    double total_variance_ = 0.0;
};

} // namespace kodan::ml

#endif // KODAN_ML_TRANSFORMS_HPP
