#include "ml/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "telemetry/telemetry.hpp"

namespace kodan::ml::kernels {

namespace {

/**
 * Blocking parameters. The j (output column) block keeps one C row
 * panel plus the four active B row panels resident in L1; the k block
 * bounds the B panel working set to L2. All shapes in this codebase are
 * small enough that a single block usually covers them — the blocking
 * only matters for the synthetic large-GEMM bench shapes.
 */
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockJ = 512;

} // namespace

double *
Scratch::alloc(std::size_t count)
{
    // Find (or create) a chunk with room. Skipped tail space is
    // restored by the enclosing Frame, never leaked.
    while (chunk_ < chunks_.size() &&
           chunks_[chunk_].capacity - used_ < count) {
        ++chunk_;
        used_ = 0;
    }
    if (chunk_ == chunks_.size()) {
        Chunk chunk;
        chunk.capacity = std::max(count, kMinChunk);
        chunk.data = std::make_unique<double[]>(chunk.capacity);
        chunks_.push_back(std::move(chunk));
        used_ = 0;
    }
    double *out = chunks_[chunk_].data.get() + used_;
    used_ += count;
    return out;
}

double *
Scratch::allocZeroed(std::size_t count)
{
    double *out = alloc(count);
    std::memset(out, 0, count * sizeof(double));
    return out;
}

void *
Scratch::allocBytes(std::size_t bytes, std::size_t align)
{
    // The chunk store is double[], so byte regions are carved out of
    // chunks at aligned absolute addresses and consumed in whole
    // doubles; alloc() and allocBytes() interleave freely within one
    // Frame. align must be a power of two (any chunk base is at least
    // 8-byte aligned, larger alignments pad within the chunk).
    const std::uintptr_t mask = static_cast<std::uintptr_t>(align) - 1;
    while (chunk_ < chunks_.size()) {
        Chunk &ch = chunks_[chunk_];
        const auto base = reinterpret_cast<std::uintptr_t>(ch.data.get());
        const std::uintptr_t cursor = base + used_ * sizeof(double);
        const std::uintptr_t aligned = (cursor + mask) & ~mask;
        const std::uintptr_t end = aligned + bytes;
        if (end <= base + ch.capacity * sizeof(double)) {
            used_ = (end - base + sizeof(double) - 1) / sizeof(double);
            return reinterpret_cast<void *>(aligned);
        }
        ++chunk_;
        used_ = 0;
    }
    // No existing chunk fits: size the new one for worst-case padding
    // (alignment slack plus the round-up to whole doubles).
    const std::size_t need =
        (bytes + align + sizeof(double) - 1) / sizeof(double) + 1;
    Chunk chunk;
    chunk.capacity = std::max(need, kMinChunk);
    chunk.data = std::make_unique<double[]>(chunk.capacity);
    chunks_.push_back(std::move(chunk));
    used_ = 0;
    Chunk &ch = chunks_[chunk_];
    const auto base = reinterpret_cast<std::uintptr_t>(ch.data.get());
    const std::uintptr_t aligned = (base + mask) & ~mask;
    used_ = (aligned + bytes - base + sizeof(double) - 1) / sizeof(double);
    return reinterpret_cast<void *>(aligned);
}

Scratch &
scratch()
{
    thread_local Scratch arena;
    return arena;
}

Requant
requantScale(double scale)
{
    Requant rq;
    if (!(scale > 0.0) || !std::isfinite(scale)) {
        return rq; // multiplier 0: requantize collapses to 0
    }
    int exp = 0;
    const double mant = std::frexp(scale, &exp); // mant in [0.5, 1)
    std::int64_t m = std::llround(mant * static_cast<double>(
                                             std::int64_t{1} << 31));
    if (m == (std::int64_t{1} << 31)) {
        m >>= 1; // rounding pushed the mantissa to 1.0: renormalize
        ++exp;
    }
    rq.multiplier = static_cast<std::int32_t>(m);
    rq.shift = 31 - exp;
    return rq;
}

namespace detail {

/**
 * One 4-wide reduction step of the 2-row panel micro-kernel.
 *
 * Seed: this is the first step of the whole reduction (p == 0), so the
 * accumulators start from the bias instead of reading back C — which
 * lets gemm skip the separate C-initialization pass entirely.
 * Fuse: this is the last step (p + 4 == k), so the epilogue is applied
 * to the finished value before the only store it will ever get.
 */
template <bool Seed, bool Fuse>
inline void
panelStep2(const double *a0_row, const double *a1_row, const double *b,
           std::size_t n, std::size_t p, std::size_t j0, std::size_t j1,
           const double *bias, double *c0, double *c1)
{
    const double a00 = a0_row[p], a01 = a0_row[p + 1],
                 a02 = a0_row[p + 2], a03 = a0_row[p + 3];
    const double a10 = a1_row[p], a11 = a1_row[p + 1],
                 a12 = a1_row[p + 2], a13 = a1_row[p + 3];
    const double *b0 = b + p * n;
    const double *b1 = b0 + n;
    const double *b2 = b1 + n;
    const double *b3 = b2 + n;
    for (std::size_t j = j0; j < j1; ++j) {
        const double bv0 = b0[j];
        const double bv1 = b1[j];
        const double bv2 = b2[j];
        const double bv3 = b3[j];
        double v0 = Seed ? (bias != nullptr ? bias[j] : 0.0) : c0[j];
        v0 += a00 * bv0;
        v0 += a01 * bv1;
        v0 += a02 * bv2;
        v0 += a03 * bv3;
        double v1 = Seed ? (bias != nullptr ? bias[j] : 0.0) : c1[j];
        v1 += a10 * bv0;
        v1 += a11 * bv1;
        v1 += a12 * bv2;
        v1 += a13 * bv3;
        if (Fuse) {
            v0 = std::max(0.0, v0);
            v1 = std::max(0.0, v1);
        }
        c0[j] = v0;
        c1[j] = v1;
    }
}

/** Single-row variant of panelStep2 for the m % 2 remainder. */
template <bool Seed, bool Fuse>
inline void
panelStep1(const double *a_row, const double *b, std::size_t n,
           std::size_t p, std::size_t j0, std::size_t j1,
           const double *bias, double *c_row)
{
    const double a0 = a_row[p];
    const double a1 = a_row[p + 1];
    const double a2 = a_row[p + 2];
    const double a3 = a_row[p + 3];
    const double *b0 = b + p * n;
    const double *b1 = b0 + n;
    const double *b2 = b1 + n;
    const double *b3 = b2 + n;
    for (std::size_t j = j0; j < j1; ++j) {
        double v = Seed ? (bias != nullptr ? bias[j] : 0.0) : c_row[j];
        v += a0 * b0[j];
        v += a1 * b1[j];
        v += a2 * b2[j];
        v += a3 * b3[j];
        if (Fuse) {
            v = std::max(0.0, v);
        }
        c_row[j] = v;
    }
}

} // namespace detail

void
gemm(std::size_t m, std::size_t k, std::size_t n, const double *a,
     const double *b, double *c, const double *bias, Epilogue epilogue)
{
    // Stage-attribution row of every double matmul, so a kernel
    // regression shows up as one span in a `kodan-report diff` of two
    // profiles.
    KODAN_TRACE_SCOPE("ml.kernels.gemm");
    if (m == 0 || n == 0) {
        return; // no output elements; also keeps memset/memcpy off
                // the null data pointer of an empty Matrix
    }
    if (k == 0) {
        // Degenerate reduction: C is just the (epilogued) bias seed.
        for (std::size_t i = 0; i < m; ++i) {
            double *c_row = c + i * n;
            if (bias != nullptr) {
                std::memcpy(c_row, bias, n * sizeof(double));
            } else {
                std::memset(c_row, 0, n * sizeof(double));
            }
            if (epilogue == Epilogue::Relu) {
                for (std::size_t j = 0; j < n; ++j) {
                    c_row[j] = std::max(0.0, c_row[j]);
                }
            }
        }
        return;
    }
    // The fused epilogue rides on the last 4-wide panel step, so it
    // needs the scalar p-remainder to be empty; otherwise gemm falls
    // back to a separate pass over C after the blocked loops (the
    // caller-visible contract is the same either way).
    const bool fuse = epilogue == Epilogue::Relu && k % 4 == 0;
    for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
        const std::size_t j1 = std::min(n, j0 + kBlockJ);
        for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
            const std::size_t p1 = std::min(k, p0 + kBlockK);
            // 2x4 register micro-kernel: two A rows x four reduction
            // indices per pass over the C panel (8 broadcast A values,
            // four B panels, two C accumulator panels — fits the 16
            // vector registers of baseline x86-64 without spills). Each
            // C element's additions stay in ascending-p order — a
            // single sequential chain, never a split accumulator; the
            // two rows are INDEPENDENT chains, so the unroll buys
            // instruction-level parallelism and 2x reuse of every
            // loaded B value without reassociating anything.
            std::size_t i = 0;
            for (; i + 2 <= m; i += 2) {
                const double *a0_row = a + i * k;
                const double *a1_row = a0_row + k;
                double *c0 = c + i * n;
                double *c1 = c0 + n;
                // Seed and fused-last steps are peeled out of the loop
                // so the hot middle loop stays one straight-line body.
                std::size_t p = p0;
                if (p0 == 0 && 4 <= p1) {
                    if (fuse && k == 4) {
                        detail::panelStep2<true, true>(
                            a0_row, a1_row, b, n, p, j0, j1, bias, c0, c1);
                    } else {
                        detail::panelStep2<true, false>(
                            a0_row, a1_row, b, n, p, j0, j1, bias, c0, c1);
                    }
                    p += 4;
                }
                const std::size_t mid_end =
                    (fuse && p1 == k) ? p1 - 4 : p1;
                for (; p + 4 <= mid_end; p += 4) {
                    detail::panelStep2<false, false>(
                        a0_row, a1_row, b, n, p, j0, j1, bias, c0, c1);
                }
                if (fuse && p1 == k && p + 4 <= p1) {
                    detail::panelStep2<false, true>(
                        a0_row, a1_row, b, n, p, j0, j1, bias, c0, c1);
                    p += 4;
                }
                for (; p < p1; ++p) {
                    const double *b_row = b + p * n;
                    const double ap0 = a0_row[p];
                    const double ap1 = a1_row[p];
                    if (p == 0) {
                        // k < 4: the scalar loop runs first and must
                        // seed from the bias like the panel steps do.
                        for (std::size_t j = j0; j < j1; ++j) {
                            const double bj =
                                bias != nullptr ? bias[j] : 0.0;
                            c0[j] = bj + ap0 * b_row[j];
                            c1[j] = bj + ap1 * b_row[j];
                        }
                    } else {
                        for (std::size_t j = j0; j < j1; ++j) {
                            c0[j] += ap0 * b_row[j];
                            c1[j] += ap1 * b_row[j];
                        }
                    }
                }
            }
            // Row remainder (m % 2): single-row, same ascending-p chain.
            for (; i < m; ++i) {
                const double *a_row = a + i * k;
                double *c_row = c + i * n;
                std::size_t p = p0;
                if (p0 == 0 && 4 <= p1) {
                    if (fuse && k == 4) {
                        detail::panelStep1<true, true>(a_row, b, n, p, j0,
                                                       j1, bias, c_row);
                    } else {
                        detail::panelStep1<true, false>(
                            a_row, b, n, p, j0, j1, bias, c_row);
                    }
                    p += 4;
                }
                const std::size_t mid_end =
                    (fuse && p1 == k) ? p1 - 4 : p1;
                for (; p + 4 <= mid_end; p += 4) {
                    detail::panelStep1<false, false>(a_row, b, n, p, j0,
                                                     j1, bias, c_row);
                }
                if (fuse && p1 == k && p + 4 <= p1) {
                    detail::panelStep1<false, true>(a_row, b, n, p, j0,
                                                    j1, bias, c_row);
                    p += 4;
                }
                for (; p < p1; ++p) {
                    const double ap = a_row[p];
                    const double *b_row = b + p * n;
                    if (p == 0) {
                        for (std::size_t j = j0; j < j1; ++j) {
                            c_row[j] = (bias != nullptr ? bias[j] : 0.0) +
                                       ap * b_row[j];
                        }
                    } else {
                        for (std::size_t j = j0; j < j1; ++j) {
                            c_row[j] += ap * b_row[j];
                        }
                    }
                }
            }
        }
    }
    if (epilogue == Epilogue::Relu && !fuse) {
        for (std::size_t i = 0; i < m; ++i) {
            double *c_row = c + i * n;
            for (std::size_t j = 0; j < n; ++j) {
                c_row[j] = std::max(0.0, c_row[j]);
            }
        }
    }
}

void
transpose(std::size_t rows, std::size_t cols, const double *a, double *out)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const double *a_row = a + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            out[c * rows + r] = a_row[c];
        }
    }
}

void
rowSquaredNorms(std::size_t rows, std::size_t dim, const double *x,
                double *out)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const double *row = x + r * dim;
        double sum = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            sum += row[d] * row[d];
        }
        out[r] = sum;
    }
}

void
standardizeRows(std::size_t rows, std::size_t dim, const double *x,
                const double *mean, const double *stddev, double *out)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const double *src = x + r * dim;
        double *dst = out + r * dim;
        for (std::size_t d = 0; d < dim; ++d) {
            dst[d] = (src[d] - mean[d]) / stddev[d];
        }
    }
}

} // namespace kodan::ml::kernels
