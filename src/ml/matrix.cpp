#include "ml/matrix.hpp"

#include <algorithm>

#include "ml/kernels.hpp"

namespace kodan::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

void
Matrix::fill(double value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Matrix::add(const Matrix &other)
{
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] += other.data_[i];
    }
}

void
Matrix::scale(double s)
{
    for (auto &v : data_) {
        v *= s;
    }
}

Matrix
Matrix::multiply(const Matrix &a, const Matrix &b)
{
    assert(a.cols_ == b.rows_ && "multiply: inner dimensions must match");
    Matrix c(a.rows_, b.cols_);
    // The blocked kernel accumulates every element over ascending inner
    // index, the chain of the textbook triple loop.
    kernels::gemm(a.rows_, a.cols_, b.cols_, a.data_.data(),
                  b.data_.data(), c.data_.data(), nullptr);
    return c;
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t.at(c, r) = at(r, c);
        }
    }
    return t;
}

} // namespace kodan::ml
