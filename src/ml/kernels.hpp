/**
 * @file
 * Deterministic compute-kernel layer for the ML substrate.
 *
 * Every kernel here keeps a FIXED summation order: each output element
 * accumulates its products in ascending reduction index with a single
 * sequential accumulator chain, exactly the order of the scalar
 * reference loops it replaces. The speedup comes from cache blocking,
 * 4x unrolling over the reduction index (which turns one streaming pass
 * into four fused ones, vectorizable across the output index), and the
 * elimination of per-call heap allocation — never from reassociation.
 * Results are therefore bit-identical to the naive loops, at any
 * KODAN_THREADS, and invariant to how callers compose batches.
 *
 * The naive loops live on as test oracles (tests/ml/ml_oracle.hpp),
 * which the equivalence tests and bench_ml_kernels compare against.
 */

#ifndef KODAN_ML_KERNELS_HPP
#define KODAN_ML_KERNELS_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace kodan::ml::kernels {

/**
 * Per-thread bump arena for kernel workspaces.
 *
 * Chunks are never reallocated once handed out, so pointers stay valid
 * until the frame that produced them unwinds. Typical use:
 *
 *   Scratch::Frame frame(scratch());
 *   double *buf = scratch().alloc(n);
 *   ... // buf dies with `frame`
 *
 * Frames nest; allocation is O(1) after warmup (no heap traffic once
 * the high-water chunks exist).
 */
class Scratch
{
  public:
    /** RAII marker: restores the arena position on destruction. */
    class Frame
    {
      public:
        explicit Frame(Scratch &arena)
            : arena_(arena), chunk_(arena.chunk_), used_(arena.used_)
        {
        }
        ~Frame()
        {
            arena_.chunk_ = chunk_;
            arena_.used_ = used_;
        }
        Frame(const Frame &) = delete;
        Frame &operator=(const Frame &) = delete;

      private:
        Scratch &arena_;
        std::size_t chunk_;
        std::size_t used_;
    };

    /** Uninitialized workspace of @p count doubles. */
    double *alloc(std::size_t count);

    /** Zero-initialized workspace of @p count doubles. */
    double *allocZeroed(std::size_t count);

    /**
     * Uninitialized raw workspace of @p bytes bytes whose address is a
     * multiple of @p align (a power of two). Shares the double-chunk
     * arena with alloc(): the byte region is carved out of the active
     * chunk and consumed in whole doubles, so frames, reuse, and the
     * O(1)-after-warmup guarantee all behave identically. This is the
     * allocator the int8 inference path uses for its int8 activation
     * and int32 accumulator workspaces.
     */
    void *allocBytes(std::size_t bytes, std::size_t align);

    /** Typed convenience over allocBytes: @p count elements of T. */
    template <typename T>
    T *allocArray(std::size_t count, std::size_t align = alignof(T))
    {
        return static_cast<T *>(allocBytes(count * sizeof(T), align));
    }

    /** Number of chunks ever allocated (diagnostics). */
    std::size_t chunkCount() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::unique_ptr<double[]> data;
        std::size_t capacity = 0;
    };

    /** Minimum chunk size in doubles (128 KiB). */
    static constexpr std::size_t kMinChunk = std::size_t{1} << 14;

    std::vector<Chunk> chunks_;
    std::size_t chunk_ = 0; // active chunk index
    std::size_t used_ = 0;  // doubles consumed in the active chunk
};

/** The calling thread's scratch arena. */
Scratch &scratch();

/**
 * Element-wise transform fused into gemm's final store. Fusing saves a
 * full read+write pass over C — significant when C is a large batch
 * activation matrix — and cannot change bits: the transform is applied
 * to exactly the finished accumulator value a separate pass would have
 * loaded back.
 */
enum class Epilogue
{
    None,
    /** c = max(0.0, c) — the hidden-layer activation. */
    Relu,
};

/**
 * C = A * B (+ bias), dense row-major.
 *
 * A is m x k, B is k x n, C is m x n. When @p bias is non-null it holds
 * n values and seeds every row of C; otherwise C starts at zero. Each C
 * element is bias[j] + sum over ascending p of A[i,p] * B[p,j],
 * accumulated in exactly that order — bit-identical to the scalar
 * matvec `z = bias; for p: z += a[p] * b[p]` — with @p epilogue applied
 * to the finished value.
 */
void gemm(std::size_t m, std::size_t k, std::size_t n, const double *a,
          const double *b, double *c, const double *bias = nullptr,
          Epilogue epilogue = Epilogue::None);

/** out = a^T for row-major a (rows x cols); out is cols x rows. */
void transpose(std::size_t rows, std::size_t cols, const double *a,
               double *out);

/**
 * out[i] = squared L2 norm of row i of x (rows x dim), accumulated in
 * ascending dimension order.
 */
void rowSquaredNorms(std::size_t rows, std::size_t dim, const double *x,
                     double *out);

/**
 * out[i,d] = (x[i,d] - mean[d]) / stddev[d] — the Standardizer's exact
 * per-element expression, batched.
 */
void standardizeRows(std::size_t rows, std::size_t dim, const double *x,
                     const double *mean, const double *stddev, double *out);

// ---------------------------------------------------------------------------
// Int8 quantized kernels — the QuantizedMlp substrate (kernels_i8.cpp).
//
// Products are int8 x int8 (each fits int16); accumulation is 32-bit.
// Integer addition is exactly associative, so ANY blocking, unrolling,
// split of the reduction, or zero-padding of it yields the same bits
// by construction — unlike the double kernels above, no fixed
// summation order is needed to keep the determinism contract. The
// kernels exploit exactly that freedom: they pack the weight
// operand into int16 rows zero-padded to a vector multiple so the
// reduction compiles to widening multiply-accumulate idioms (pmaddwd
// and friends), which plain int8 loads would not.
//
// Precondition (asserted): 127*127*k + 2^30 must stay below 2^31,
// i.e. k <= ~66000 — the int32 accumulators must never overflow.
// Every shape in this codebase has k <= 64; the clamped bias seeds
// QuantizedMlp produces respect the 2^30 headroom.

/**
 * Fixed-point requantization parameters for one output channel.
 * Encodes a positive real scale f as multiplier * 2^-shift with
 * multiplier a Q31 mantissa: f = multiplier / 2^shift.
 */
struct Requant
{
    /** Q31 mantissa in [2^30, 2^31) (0 encodes "scale collapses to 0"). */
    std::int32_t multiplier = 0;
    /** Total right shift; 31 - exp2(scale). Negative means left shift. */
    std::int32_t shift = 0;
};

/** Encode a positive, finite real scale into Requant via frexp. */
Requant requantScale(double scale);

/**
 * Apply @p rq to an int32 accumulator: round-half-away-from-zero
 * fixed-point multiply, i.e. round(acc * multiplier * 2^-shift) with
 * ties breaking away from zero, saturated to int32. Inline so the
 * epilogue loops in kernels_i8.cpp flatten it.
 */
inline std::int32_t
requantize(std::int32_t acc, Requant rq)
{
    const std::int64_t prod =
        static_cast<std::int64_t>(acc) * rq.multiplier;
    const std::int32_t t = rq.shift;
    if (t > 62) {
        return 0; // |prod| < 2^62 always rounds to zero at this shift
    }
    std::int64_t v;
    if (t <= 0) {
        // Pathological scale >= 2^31: plain left shift, then saturate.
        const std::uint64_t mag =
            static_cast<std::uint64_t>(prod < 0 ? -prod : prod);
        if (-t >= 63 || (mag >> (62 + t)) != 0) {
            return prod < 0 ? std::numeric_limits<std::int32_t>::min()
                            : std::numeric_limits<std::int32_t>::max();
        }
        v = prod << -t;
    } else {
        // Branch-free round-half-away-from-zero: shift the magnitude,
        // restore the sign arithmetically. The sign of prod is data-
        // dependent (a coin flip on real activations), so a branch
        // here would mispredict half the time and dominate the whole
        // epilogue.
        const std::int64_t half = std::int64_t{1} << (t - 1);
        const std::int64_t sign = prod >> 63; // 0 or -1
        const std::int64_t mag = (prod ^ sign) - sign;
        v = (((mag + half) >> t) ^ sign) - sign;
    }
    if (v > std::numeric_limits<std::int32_t>::max()) {
        return std::numeric_limits<std::int32_t>::max();
    }
    if (v < std::numeric_limits<std::int32_t>::min()) {
        return std::numeric_limits<std::int32_t>::min();
    }
    return static_cast<std::int32_t>(v);
}

/**
 * Saturate an int32 to the symmetric int8 range [lo, 127]; @p lo is
 * -127 normally and 0 under the fused ReLU epilogue (the clamp IS the
 * activation in the quantized domain). -128 is never produced, keeping
 * the representable range symmetric about zero.
 */
inline std::int8_t
saturateI8(std::int32_t v, std::int32_t lo)
{
    const std::int32_t clamped = v < lo ? lo : (v > 127 ? 127 : v);
    return static_cast<std::int8_t>(clamped);
}

/**
 * The one rounding rule of weight and input quantization:
 * round(v * inv_scale) half away from zero (requantize()'s tie rule),
 * computed as truncate(s + copysign(0.5, s)) after a clamp to
 * [-127, 127], so -128 is never produced. The +/-0.5 form can differ
 * from llround by one ulp of double rounding at representation
 * boundaries; either way it is a fixed deterministic rule, which is
 * all the bit-identity contract needs. A NaN fails both clamp compares
 * and is pinned to 0 by an explicit select: converting NaN to an
 * integer is undefined. quantizeRows() is the vector form of exactly
 * this expression.
 */
inline std::int8_t
quantizeValue(double v, double inv_scale)
{
    double s = v * inv_scale;
    s = s > 127.0 ? 127.0 : s;
    s = s < -127.0 ? -127.0 : s;
    s = s == s ? s : 0.0;
    return static_cast<std::int8_t>(
        static_cast<std::int32_t>(s + std::copysign(0.5, s)));
}

/**
 * out[i] = quantizeValue(x[i], inv_scale) for i < @p count — the int8
 * input quantization of a row-major activation block, vectorized in
 * the -O3 kernel TU. Bit-identical to the scalar rule for every input,
 * NaN and +/-inf included.
 */
void quantizeRows(const double *x, std::size_t count, double inv_scale,
                  std::int8_t *out);

/**
 * Weight operand of the blocked int8 kernels, packed once and reused
 * across calls — the int8 analogue of Mlp's eagerly-refreshed
 * transposes. Rows are indexed by PAIRS of reduction indices with
 * each output channel contributing an adjacent int16 (W[j][2h],
 * W[j][2h+1]) pair, zero-padded to even k and to the channel tile
 * sized to the layer (n_pad), which is exactly the shape one pmaddwd
 * consumes. Padding cannot change bits (zero products) and packing per
 * construction instead of per call removes the dominant overhead on
 * small layers.
 */
struct PackedI8
{
    PackedI8() = default;

    /**
     * Pack @p w (row-major n x k, output-channel major) and @p bias
     * (n int32 seeds, may be null).
     */
    PackedI8(std::size_t n, std::size_t k, const std::int8_t *w,
             const std::int32_t *bias);

    std::size_t k = 0;
    std::size_t n = 0;
    /** ceil(k / 2): reduction pairs per packed row. */
    std::size_t k_half = 0;
    /**
     * n rounded up to the smallest channel tile that covers it: one or
     * two vectors of int32 lanes when n <= 8 (4 or 8 channels under
     * SSE2, 8 under AVX2), otherwise a multiple of 16. The deployed
     * tier-1 layers (18 -> 4 -> 1) would waste 4x and 16x of every
     * multiply-add on a fixed 16-wide tile.
     */
    std::size_t n_pad = 0;
    /** k_half rows of 2 * n_pad int16 interleaved channel pairs. */
    std::vector<std::int16_t> wpack;
    /** n_pad int32 accumulator seeds (zeros beyond n / null bias). */
    std::vector<std::int32_t> bias_pad;
};

/**
 * C(int32) = A(int8) * W^T(int8) + bias over a packed weight operand.
 *
 * A is m x k row-major; C[i,j] = bias[j] + dot of A row i with W row
 * j, where W is the n x k matrix @p w was packed from and bias its
 * int32 seeds (zero when packed with a null bias). C is m x n. Used
 * for the final MLP layer, whose accumulators are dequantized to
 * double by the caller.
 */
void gemmI8(std::size_t m, const PackedI8 &w, const std::int8_t *a,
            std::int32_t *c);

/**
 * Fused hidden-layer step over a packed weight operand:
 * C(int8) = saturate(requantize(A*W^T + bias, rq[j]), relu ? 0 : -127).
 * The bias seeds the int32 accumulators (no separate bias pass) and the
 * ReLU rides the requantizing store as a clamp. Operand layout matches
 * gemmI8; @p rq holds n per-output-channel entries.
 */
void gemmI8Requant(std::size_t m, const PackedI8 &w,
                   const std::int8_t *a, const Requant *rq, bool relu,
                   std::int8_t *c);

} // namespace kodan::ml::kernels

#endif // KODAN_ML_KERNELS_HPP
