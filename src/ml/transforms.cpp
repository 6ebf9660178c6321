#include "ml/transforms.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "ml/kernels.hpp"
#include "util/log.hpp"

namespace kodan::ml {

void
Standardizer::fit(const Matrix &x)
{
    const std::size_t n = x.rows();
    const std::size_t dim = x.cols();
    assert(n > 0);
    mean_.assign(dim, 0.0);
    std_.assign(dim, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = x.row(i);
        for (std::size_t d = 0; d < dim; ++d) {
            mean_[d] += row[d];
        }
    }
    for (auto &m : mean_) {
        m /= static_cast<double>(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = x.row(i);
        for (std::size_t d = 0; d < dim; ++d) {
            const double diff = row[d] - mean_[d];
            std_[d] += diff * diff;
        }
    }
    for (auto &s : std_) {
        s = std::max(1.0e-9, std::sqrt(s / static_cast<double>(n)));
    }
}

Matrix
Standardizer::transform(const Matrix &x) const
{
    assert(x.cols() == mean_.size());
    Matrix out(x.rows(), x.cols());
    kernels::standardizeRows(x.rows(), x.cols(), x.data().data(),
                             mean_.data(), std_.data(), out.data().data());
    return out;
}

void
Standardizer::transformRow(double *row) const
{
    for (std::size_t d = 0; d < mean_.size(); ++d) {
        row[d] = (row[d] - mean_[d]) / std_[d];
    }
}

void
Standardizer::save(std::ostream &os) const
{
    os << "standardizer " << mean_.size() << '\n';
    os.precision(17);
    for (std::size_t d = 0; d < mean_.size(); ++d) {
        os << mean_[d] << ' ' << std_[d] << '\n';
    }
}

Standardizer
Standardizer::load(std::istream &is)
{
    std::string tag;
    std::size_t dim = 0;
    is >> tag;
    if (tag != "standardizer") {
        util::fatal("Standardizer::load: expected 'standardizer', got '" +
                    tag + "'");
    }
    is >> dim;
    // The declared dim sizes nothing: each (mean, std) pair is appended
    // as it is read, so memory grows only with the input.
    Standardizer scaler;
    for (std::size_t d = 0; d < dim; ++d) {
        double mean = 0.0;
        double stddev = 0.0;
        is >> mean >> stddev;
        if (!is) {
            break;
        }
        if (!std::isfinite(stddev) || stddev <= 0.0) {
            util::fatal("Standardizer::load: std of dimension " +
                        std::to_string(d) +
                        " is not a finite positive number");
        }
        scaler.mean_.push_back(mean);
        scaler.std_.push_back(stddev);
    }
    if (!is) {
        util::fatal("Standardizer::load: truncated stream");
    }
    return scaler;
}

void
jacobiEigen(const Matrix &symmetric, std::vector<double> &eigenvalues,
            Matrix &eigenvectors)
{
    const std::size_t n = symmetric.rows();
    assert(symmetric.cols() == n);

    Matrix a = symmetric;
    Matrix v(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        v.at(i, i) = 1.0;
    }

    for (int sweep = 0; sweep < 64; ++sweep) {
        // Sum of off-diagonal magnitudes; stop when negligible.
        double off = 0.0;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                off += std::fabs(a.at(p, q));
            }
        }
        if (off < 1.0e-12) {
            break;
        }
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a.at(p, q);
                if (std::fabs(apq) < 1.0e-15) {
                    continue;
                }
                const double app = a.at(p, p);
                const double aqq = a.at(q, q);
                const double theta = 0.5 * (aqq - app) / apq;
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0) /
                    (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (std::size_t i = 0; i < n; ++i) {
                    const double aip = a.at(i, p);
                    const double aiq = a.at(i, q);
                    a.at(i, p) = c * aip - s * aiq;
                    a.at(i, q) = s * aip + c * aiq;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    const double api = a.at(p, i);
                    const double aqi = a.at(q, i);
                    a.at(p, i) = c * api - s * aqi;
                    a.at(q, i) = s * api + c * aqi;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    const double vip = v.at(i, p);
                    const double viq = v.at(i, q);
                    v.at(i, p) = c * vip - s * viq;
                    v.at(i, q) = s * vip + c * viq;
                }
            }
        }
    }

    // Sort descending by eigenvalue.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t l, std::size_t r) {
                  return a.at(l, l) > a.at(r, r);
              });
    eigenvalues.resize(n);
    eigenvectors = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        eigenvalues[i] = a.at(order[i], order[i]);
        for (std::size_t d = 0; d < n; ++d) {
            eigenvectors.at(i, d) = v.at(d, order[i]);
        }
    }
}

void
Pca::fit(const Matrix &x, std::size_t components)
{
    const std::size_t n = x.rows();
    const std::size_t dim = x.cols();
    assert(n >= 2);
    assert(components >= 1 && components <= dim);

    mean_.assign(dim, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = x.row(i);
        for (std::size_t d = 0; d < dim; ++d) {
            mean_[d] += row[d];
        }
    }
    for (auto &m : mean_) {
        m /= static_cast<double>(n);
    }

    Matrix cov(dim, dim);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = x.row(i);
        for (std::size_t p = 0; p < dim; ++p) {
            const double dp = row[p] - mean_[p];
            for (std::size_t q = p; q < dim; ++q) {
                cov.at(p, q) += dp * (row[q] - mean_[q]);
            }
        }
    }
    for (std::size_t p = 0; p < dim; ++p) {
        for (std::size_t q = p; q < dim; ++q) {
            const double value = cov.at(p, q) / static_cast<double>(n - 1);
            cov.at(p, q) = value;
            cov.at(q, p) = value;
        }
    }

    std::vector<double> eigenvalues;
    Matrix eigenvectors;
    jacobiEigen(cov, eigenvalues, eigenvectors);

    total_variance_ = 0.0;
    for (double ev : eigenvalues) {
        total_variance_ += std::max(0.0, ev);
    }
    axes_ = Matrix(components, dim);
    eigenvalues_.assign(eigenvalues.begin(),
                        eigenvalues.begin() + components);
    for (std::size_t c = 0; c < components; ++c) {
        for (std::size_t d = 0; d < dim; ++d) {
            axes_.at(c, d) = eigenvectors.at(c, d);
        }
    }
}

Matrix
Pca::transform(const Matrix &x) const
{
    assert(x.cols() == mean_.size());
    Matrix out(x.rows(), axes_.rows());
    // out = (x - mean) * axes^T as one GEMM over centered rows. Each
    // output element reduces over ascending d with products
    // axes[c][d] * (x[d] - mean[d]) — the exact chain of the per-row
    // scalar loop, so the bits match it.
    auto &arena = kernels::scratch();
    kernels::Scratch::Frame frame(arena);
    const std::size_t dim = x.cols();
    const std::size_t comps = axes_.rows();
    double *centered = arena.alloc(x.rows() * dim);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const double *src = x.row(i);
        double *dst = centered + i * dim;
        for (std::size_t d = 0; d < dim; ++d) {
            dst[d] = src[d] - mean_[d];
        }
    }
    double *axes_t = arena.alloc(dim * comps);
    kernels::transpose(comps, dim, axes_.data().data(), axes_t);
    kernels::gemm(x.rows(), dim, comps, centered, axes_t, out.data().data(),
                  nullptr);
    return out;
}

double
Pca::explainedVariance() const
{
    if (total_variance_ <= 0.0) {
        return 0.0;
    }
    double kept = 0.0;
    for (double ev : eigenvalues_) {
        kept += std::max(0.0, ev);
    }
    return kept / total_variance_;
}

} // namespace kodan::ml
