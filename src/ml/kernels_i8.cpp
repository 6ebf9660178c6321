/**
 * @file
 * Int8 x int8 -> int32 GEMM/GEMV kernels with a fused requantizing
 * bias+ReLU epilogue — the integer substrate under QuantizedMlp.
 *
 * This TU gets the same compile-option treatment as kernels.cpp
 * (-O3 -funroll-loops, plus -march=native under -DKODAN_NATIVE=ON).
 *
 * Layout strategy (x86-64): the classic pair-interleaved int16
 * multiply-add microkernel. Weights are packed (once, via PackedI8,
 * or per call from raw operands) into rows indexed by PAIRS of
 * reduction indices, with each output channel contributing an
 * adjacent (W[j][2h], W[j][2h+1]) int16 pair; each A row is packed
 * into broadcastable int32 pair lanes. One pmaddwd then advances four
 * (SSE2) or eight (AVX2) output channels by two reduction steps —
 * accumulators stay vertical in vector registers for the whole
 * reduction, so there are NO horizontal reductions and no padding
 * waste beyond rounding k up to even (autovectorized dot-product
 * forms lost half their throughput to exactly those two costs). The
 * channel tile is sized to the layer (PackedI8::n_pad), so a layer of
 * a few channels, like the deployed 18 -> 4 -> 1 models', runs one
 * vector per row rather than a mostly padded 16-wide tile. A is walked
 * several rows at a time so every packed weight row feeds that many
 * accumulator sets per load. One microkernel template, instantiated
 * over rows per call and vectors per tile, covers every tile on both
 * ISAs. Non-x86 targets fall back to a portable form of the same
 * layout that the autovectorizer handles adequately.
 *
 * Nothing here depends on evaluation order, padding, tiling, or ISA
 * for the bits: pmaddwd on int8-range values is exact (no saturation
 * below |32767|), integer addition is exactly associative, and pads
 * contribute zero products — so SSE2, AVX2, portable, and naive paths
 * are bit-identical BY CONSTRUCTION at any KODAN_THREADS, any batch
 * split, and any blocking; the property tests pin it anyway. The
 * int32 accumulators must not overflow (see kernels.hpp; asserted
 * here).
 */

#include "ml/kernels.hpp"

#include <cassert>
#include <cstring>

#include "telemetry/telemetry.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define KODAN_I8_SIMD 1
#include <emmintrin.h>
#ifdef __AVX2__
#include <immintrin.h>
#endif
#endif

#if defined(__GNUC__) || defined(__clang__)
#define KODAN_RESTRICT __restrict__
#else
#define KODAN_RESTRICT
#endif

namespace kodan::ml::kernels {

namespace {

/** Largest reduction length whose accumulator cannot overflow int32
 *  given the 2^30 bias headroom (see kernels.hpp). */
constexpr std::size_t kMaxK =
    ((std::size_t{1} << 31) - (std::size_t{1} << 30)) / (127 * 127);

/** Wide layers advance in channel tiles of this width; their packed
 *  weight rows and accumulator rows are zero-padded to a multiple of
 *  it. A layer of at most 8 channels gets a tile of one or two vectors
 *  instead (channelPad). */
constexpr std::size_t kTileN = 16;

#ifdef KODAN_I8_SIMD

// The vector operations of the microkernel, one set per ISA: a vector
// holds kLanes int32 accumulators, or kLanes int16 channel pairs.
#ifdef __AVX2__
constexpr std::size_t kLanes = 8;
using VecI = __m256i;

inline VecI
vload(const void *p)
{
    return _mm256_loadu_si256(static_cast<const __m256i *>(p));
}

inline void
vstore(void *p, VecI v)
{
    _mm256_storeu_si256(static_cast<__m256i *>(p), v);
}

inline VecI
vbroadcast(std::int32_t pair)
{
    return _mm256_set1_epi32(pair);
}

/** acc + pmaddwd(a, w): two reduction steps for kLanes channels. */
inline VecI
vmadd(VecI acc, VecI a, VecI w)
{
    return _mm256_add_epi32(acc, _mm256_madd_epi16(a, w));
}
#else // SSE2
constexpr std::size_t kLanes = 4;
using VecI = __m128i;

inline VecI
vload(const void *p)
{
    return _mm_loadu_si128(static_cast<const __m128i *>(p));
}

inline void
vstore(void *p, VecI v)
{
    _mm_storeu_si128(static_cast<__m128i *>(p), v);
}

inline VecI
vbroadcast(std::int32_t pair)
{
    return _mm_set1_epi32(pair);
}

inline VecI
vmadd(VecI acc, VecI a, VecI w)
{
    return _mm_add_epi32(acc, _mm_madd_epi16(a, w));
}
#endif // __AVX2__

#else // !KODAN_I8_SIMD

/** The portable fallback loops over any n_pad; its tiles follow SSE2. */
constexpr std::size_t kLanes = 4;

#endif // KODAN_I8_SIMD

/** The channel tile that covers @p n (see PackedI8::n_pad). */
std::size_t
channelPad(std::size_t n)
{
    for (std::size_t tile = kLanes; tile < kTileN; tile *= 2) {
        if (n <= tile) {
            return tile;
        }
    }
    return (n + kTileN - 1) / kTileN * kTileN;
}

/** Pack one A row into broadcastable int16-pair lanes (the last pair's
 *  second lane is zero when k is odd). */
inline void
packARow(const std::int8_t *a_row, std::size_t k, std::int32_t *a_pairs)
{
    const auto pair = [](std::int8_t lo, std::int8_t hi) {
        return static_cast<std::int32_t>(
            static_cast<std::uint32_t>(static_cast<std::uint16_t>(lo)) |
            (static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi))
             << 16));
    };
    std::size_t p = 0;
#ifdef KODAN_I8_SIMD
    // The pair lanes ARE the row sign-extended to little-endian int16:
    // unpack each byte into the high half of a word, then shift it back
    // down arithmetically.
    for (; p + 16 <= k; p += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a_row + p));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(a_pairs + p / 2),
                         _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(a_pairs + p / 2 + 4),
            _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8));
    }
#endif
    for (; p + 1 < k; p += 2) {
        a_pairs[p / 2] = pair(a_row[p], a_row[p + 1]);
    }
    if (p < k) {
        a_pairs[p / 2] = pair(a_row[p], 0);
    }
}

#ifdef KODAN_I8_SIMD

/**
 * The microkernel: @p Rows packed A rows (a_pairs rows k_half apart)
 * x packed weights -> acc rows n_pad apart, one channel tile of
 * @p Vecs vectors at a time. Each weight load feeds every row's
 * accumulator chain, and the accumulators stay in registers for the
 * whole reduction. runPacked picks the instantiations.
 */
template <std::size_t Rows, std::size_t Vecs>
void
microkernel(const PackedI8 &pw, const std::int32_t *a_pairs,
            std::int32_t *acc)
{
    const std::size_t k_half = pw.k_half;
    const std::size_t stride = 2 * pw.n_pad;
    for (std::size_t jt = 0; jt < pw.n_pad; jt += Vecs * kLanes) {
        VecI c[Rows][Vecs];
        for (std::size_t v = 0; v < Vecs; ++v) {
            const VecI b = vload(pw.bias_pad.data() + jt + v * kLanes);
            for (std::size_t r = 0; r < Rows; ++r) {
                c[r][v] = b;
            }
        }
        const std::int16_t *w = pw.wpack.data() + 2 * jt;
        for (std::size_t h = 0; h < k_half; ++h) {
            const std::int16_t *w_row = w + h * stride;
            VecI wv[Vecs];
            for (std::size_t v = 0; v < Vecs; ++v) {
                wv[v] = vload(w_row + 2 * v * kLanes);
            }
            for (std::size_t r = 0; r < Rows; ++r) {
                const VecI ap = vbroadcast(a_pairs[r * k_half + h]);
                for (std::size_t v = 0; v < Vecs; ++v) {
                    c[r][v] = vmadd(c[r][v], ap, wv[v]);
                }
            }
        }
        for (std::size_t r = 0; r < Rows; ++r) {
            for (std::size_t v = 0; v < Vecs; ++v) {
                vstore(acc + r * pw.n_pad + jt + v * kLanes, c[r][v]);
            }
        }
    }
}

#else // !KODAN_I8_SIMD

/** Portable fallback: the same packed pair layout evaluated with
 *  scalar pair multiply-adds the autovectorizer can widen, a row at a
 *  time over all n_pad channels. */
template <std::size_t Rows, std::size_t Vecs>
void
microkernel(const PackedI8 &pw, const std::int32_t *a_pairs,
            std::int32_t *acc)
{
    const std::size_t stride = 2 * pw.n_pad;
    for (std::size_t r = 0; r < Rows; ++r) {
        std::int32_t *acc_r = acc + r * pw.n_pad;
        std::memcpy(acc_r, pw.bias_pad.data(),
                    pw.n_pad * sizeof(std::int32_t));
        for (std::size_t h = 0; h < pw.k_half; ++h) {
            const std::int32_t pair = a_pairs[r * pw.k_half + h];
            const auto a0 = static_cast<std::int32_t>(
                static_cast<std::int16_t>(pair & 0xffff));
            const auto a1 = static_cast<std::int32_t>(
                static_cast<std::int16_t>(
                    static_cast<std::uint32_t>(pair) >> 16));
            const std::int16_t *w_row = pw.wpack.data() + h * stride;
            for (std::size_t j = 0; j < pw.n_pad; ++j) {
                acc_r[j] += a0 * w_row[2 * j] + a1 * w_row[2 * j + 1];
            }
        }
    }
}

#endif // KODAN_I8_SIMD

/**
 * Blocked driver over a packed weight operand: per @p Rows A rows run
 * the Rows-row microkernel on tiles of @p VR vectors, on each
 * remaining row the one-row microkernel on tiles of @p V1, and hand
 * each finished accumulator row to @p epi (storing int32 or
 * requantizing to int8 — inlined either way).
 */
template <std::size_t Rows, std::size_t VR, std::size_t V1, typename Epi>
void
runRows(std::size_t m, const PackedI8 &pw, const std::int8_t *a,
        Epi &epi)
{
    Scratch::Frame frame(scratch());
    auto *a_pairs =
        scratch().allocArray<std::int32_t>(Rows * pw.k_half, 64);
    auto *acc = scratch().allocArray<std::int32_t>(Rows * pw.n_pad, 64);
    std::size_t i = 0;
    for (; i + Rows <= m; i += Rows) {
        for (std::size_t r = 0; r < Rows; ++r) {
            packARow(a + (i + r) * pw.k, pw.k, a_pairs + r * pw.k_half);
        }
        microkernel<Rows, VR>(pw, a_pairs, acc);
        for (std::size_t r = 0; r < Rows; ++r) {
            epi(i + r, acc + r * pw.n_pad);
        }
    }
    for (; i < m; ++i) {
        packARow(a + i * pw.k, pw.k, a_pairs);
        microkernel<1, V1>(pw, a_pairs, acc);
        epi(i, acc);
    }
}

/**
 * Picks the microkernels for the layer's channel tile. A narrow tile
 * runs 8 rows x 1 vector or 4 rows x 2 vectors per call: 8
 * accumulators either way, which with the weight vectors and a
 * broadcast fits the 16 vector registers, and amortizes the call and
 * loop overhead that dominates a 4-channel layer. A wide layer keeps
 * the tiling tuned on tier-7 shapes: one row x the 16-wide tile, and
 * two rows x 2 vectors (under SSE2 that is 8 channels, so 8
 * accumulators, 2 weight vectors and 2 broadcasts fit the 16 xmm
 * registers).
 */
template <typename Epi>
void
runPacked(std::size_t m, const PackedI8 &pw, const std::int8_t *a,
          Epi &&epi)
{
    if (pw.n_pad == kLanes) {
        runRows<8, 1, 1>(m, pw, a, epi);
    } else if (pw.n_pad < kTileN) {
        runRows<4, 2, 2>(m, pw, a, epi);
    } else {
        runRows<2, 2, kTileN / kLanes>(m, pw, a, epi);
    }
}

/** The scalar reference loops (Backend::Naive oracle). Unsigned
 *  accumulation keeps even out-of-contract shapes UB-free. */
void
gemmI8Naive(std::size_t m, std::size_t k, std::size_t n,
            const std::int8_t *a, const std::int8_t *w,
            const std::int32_t *bias, std::int32_t *c)
{
    for (std::size_t i = 0; i < m; ++i) {
        const std::int8_t *a_row = a + i * k;
        std::int32_t *c_row = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const std::int8_t *w_row = w + j * k;
            std::uint32_t z =
                static_cast<std::uint32_t>(bias != nullptr ? bias[j] : 0);
            for (std::size_t p = 0; p < k; ++p) {
                z += static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(a_row[p]) *
                    static_cast<std::int32_t>(w_row[p]));
            }
            c_row[j] = static_cast<std::int32_t>(z);
        }
    }
}

/**
 * Requantizing store epilogue. The per-channel constants are expanded
 * once per GEMM call into int64 lanes (multiplier, rounding half,
 * shift) so the row loop carries no unpacking, and the [lo, 127]
 * clamp is applied straight to the 64-bit value — identical result to
 * requantize() + saturateI8(), as the int32 saturation bounds are
 * strictly outside [-127, 127]. Channels whose scale is degenerate
 * (shift outside [1, 62] — never produced by real calibrations) drop
 * the whole call to the generic per-element path.
 *
 * The row loop stays branch-free: the sign of each product is a coin
 * flip on real activations, and a mispredicting branch there dominates
 * the whole epilogue. Locals are hoisted out of `this` because the
 * int8 stores are signed char and would otherwise force the compiler
 * to reload every member each iteration. Under AVX2 the loop runs four
 * channels per step on vpmuldq/vpsrlvq with a 64-bit compare-blend
 * clamp — every step exact, so the bits match the scalar form.
 */
class RequantStore
{
  public:
    /** Allocates lane constants from the CALLER's scratch frame. */
    RequantStore(std::size_t n, const Requant *rq, bool relu,
                 std::int8_t *c)
        : n_(n), rq_(rq), c_(c), lo_(relu ? 0 : -127)
    {
        fast_ = true;
        for (std::size_t j = 0; j < n; ++j) {
            if (rq[j].shift < 1 || rq[j].shift > 62) {
                fast_ = false; // degenerate scale: generic requantize()
                return;
            }
        }
        mult_ = scratch().allocArray<std::int64_t>(n, 64);
        half_ = scratch().allocArray<std::int64_t>(n, 64);
        shift_ = scratch().allocArray<std::int64_t>(n, 64);
        for (std::size_t j = 0; j < n; ++j) {
            mult_[j] = rq[j].multiplier;
            half_[j] = std::int64_t{1} << (rq[j].shift - 1);
            shift_[j] = rq[j].shift;
        }
    }

    void operator()(std::size_t row,
                    const std::int32_t *KODAN_RESTRICT acc) const
    {
        const std::size_t n = n_;
        std::int8_t *KODAN_RESTRICT c_row = c_ + row * n;
        if (!fast_) {
            const Requant *KODAN_RESTRICT rq = rq_;
            const auto lo = static_cast<std::int32_t>(lo_);
            for (std::size_t j = 0; j < n; ++j) {
                c_row[j] = saturateI8(requantize(acc[j], rq[j]), lo);
            }
            return;
        }
        const std::int64_t *KODAN_RESTRICT mult = mult_;
        const std::int64_t *KODAN_RESTRICT half = half_;
        const std::int64_t *KODAN_RESTRICT shift = shift_;
        const std::int64_t lo = lo_;
        std::size_t j = 0;
#if defined(KODAN_I8_SIMD) && defined(__AVX2__)
        const __m256i vhi = _mm256_set1_epi64x(127);
        const __m256i vzero = _mm256_setzero_si256();
        const bool relu = lo == 0;
        for (; j + 4 <= n; j += 4) {
            // Sign-extend 4 accumulators into 64-bit lanes; vpmuldq
            // reads (and sign-extends) the low 32 bits of each lane,
            // so the products are the exact 64-bit acc * multiplier.
            const __m256i acc64 = _mm256_cvtepi32_epi64(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(acc + j)));
            const __m256i prod = _mm256_mul_epi32(
                acc64, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i *>(mult + j)));
            const __m256i sign = _mm256_cmpgt_epi64(vzero, prod);
            const __m256i mag = _mm256_sub_epi64(
                _mm256_xor_si256(prod, sign), sign);
            // mag + half is non-negative, so the logical variable
            // shift IS the arithmetic one.
            const __m256i shifted = _mm256_srlv_epi64(
                _mm256_add_epi64(
                    mag, _mm256_loadu_si256(
                             reinterpret_cast<const __m256i *>(half + j))),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(shift + j)));
            // Clamp the magnitude to 127 (AVX2 has no 64-bit min), then
            // apply the sign in clamped space: both saturation bounds
            // are symmetric in magnitude — ReLU (lo = 0) zeroes the
            // negative lanes outright, the plain store restores their
            // sign — so the magnitude-domain clamp is exact.
            const __m256i cmag = _mm256_blendv_epi8(
                shifted, vhi, _mm256_cmpgt_epi64(shifted, vhi));
            const __m256i v =
                relu ? _mm256_andnot_si256(sign, cmag)
                     : _mm256_sub_epi64(_mm256_xor_si256(cmag, sign),
                                        sign);
            const __m128i v32 = _mm_castps_si128(_mm_shuffle_ps(
                _mm_castsi128_ps(_mm256_castsi256_si128(v)),
                _mm_castsi128_ps(_mm256_extracti128_si256(v, 1)),
                _MM_SHUFFLE(2, 0, 2, 0)));
            const __m128i v8 =
                _mm_packs_epi16(_mm_packs_epi32(v32, v32), v32);
            std::memcpy(c_row + j, &v8, 4);
        }
#endif
        for (; j < n; ++j) {
            const std::int64_t prod =
                static_cast<std::int64_t>(acc[j]) * mult[j];
            // Round-half-away-from-zero in one arithmetic shift:
            // positives bias by half, negatives by half-1 (the sign
            // bit), which reproduces the magnitude formula for every
            // value including exact .5 ties.
            std::int64_t v =
                (prod + half[j] -
                 static_cast<std::int64_t>(
                     static_cast<std::uint64_t>(prod) >> 63)) >>
                shift[j];
            v = v < lo ? lo : v;
            v = v > 127 ? 127 : v;
            c_row[j] = static_cast<std::int8_t>(v);
        }
    }

  private:
    std::size_t n_;
    const Requant *rq_;
    std::int8_t *c_;
    std::int64_t lo_;
    std::int64_t *mult_ = nullptr;
    std::int64_t *half_ = nullptr;
    std::int64_t *shift_ = nullptr;
    bool fast_;
};

} // namespace

void
quantizeRows(const double *x, std::size_t count, double inv_scale,
             std::int8_t *out)
{
    std::size_t i = 0;
#ifdef KODAN_I8_SIMD
    // quantizeValue() two doubles at a time. minpd/maxpd return their
    // SECOND operand when either input is NaN, so with the bound first
    // a NaN passes both clamps exactly as it passes the scalar
    // ternaries. cvttpd2dq truncates like the int32 cast, and the
    // clamped values pass the saturating packs unchanged. A NaN
    // converts to INT_MIN, which the packs carry to -128, a byte no
    // other input produces; the final select pins those bytes to 0
    // like the scalar select.
    const __m128d inv = _mm_set1_pd(inv_scale);
    const __m128d hi = _mm_set1_pd(127.0);
    const __m128d lo = _mm_set1_pd(-127.0);
    const __m128d sign = _mm_set1_pd(-0.0);
    const __m128d half = _mm_set1_pd(0.5);
    const __m128i nan_byte = _mm_set1_epi8(-128);
    const auto quantize2 = [&](const double *p) {
        __m128d s = _mm_mul_pd(_mm_loadu_pd(p), inv);
        s = _mm_max_pd(lo, _mm_min_pd(hi, s));
        return _mm_cvttpd_epi32(
            _mm_add_pd(s, _mm_or_pd(_mm_and_pd(s, sign), half)));
    };
    const auto quantize4 = [&](const double *p) {
        return _mm_unpacklo_epi64(quantize2(p), quantize2(p + 2));
    };
    for (; i + 16 <= count; i += 16) {
        const __m128i q16_lo =
            _mm_packs_epi32(quantize4(x + i), quantize4(x + i + 4));
        const __m128i q16_hi =
            _mm_packs_epi32(quantize4(x + i + 8), quantize4(x + i + 12));
        const __m128i q = _mm_packs_epi16(q16_lo, q16_hi);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_andnot_si128(_mm_cmpeq_epi8(q, nan_byte), q));
    }
#endif
    for (; i < count; ++i) {
        out[i] = quantizeValue(x[i], inv_scale);
    }
}

PackedI8::PackedI8(std::size_t n_arg, std::size_t k_arg,
                   const std::int8_t *w, const std::int32_t *bias)
    : k(k_arg), n(n_arg), k_half((k_arg + 1) / 2),
      n_pad(channelPad(n_arg))
{
    assert(k >= 1 && k <= kMaxK);
    wpack.assign(k_half * 2 * n_pad, 0);
    for (std::size_t j = 0; j < n; ++j) {
        const std::int8_t *w_row = w + j * k;
        for (std::size_t h = 0; h < k_half; ++h) {
            std::int16_t *dst = wpack.data() + h * 2 * n_pad + 2 * j;
            dst[0] = w_row[2 * h];
            dst[1] = 2 * h + 1 < k ? w_row[2 * h + 1] : 0;
        }
    }
    bias_pad.assign(n_pad, 0);
    if (bias != nullptr) {
        std::memcpy(bias_pad.data(), bias, n * sizeof(std::int32_t));
    }
}

void
gemmI8(std::size_t m, const PackedI8 &w, const std::int8_t *a,
       std::int32_t *c)
{
    // Shared stage-attribution row with gemmI8Requant, mirroring how
    // the double path funnels both backends into "ml.kernels.gemm" —
    // one span in a `kodan-report diff` of two profiles covers the
    // whole quantized matmul substrate.
    KODAN_TRACE_SCOPE("ml.kernels.gemm_i8");
    if (m == 0 || w.n == 0) {
        return;
    }
    const std::size_t n = w.n;
    // A plain copy: the deployed head is one channel wide, where a
    // memcpy call per row costs more than the row's multiply-adds.
    runPacked(m, w, a, [c, n](std::size_t row, const std::int32_t *acc) {
        std::int32_t *c_row = c + row * n;
        for (std::size_t j = 0; j < n; ++j) {
            c_row[j] = acc[j];
        }
    });
}

void
gemmI8(std::size_t m, std::size_t k, std::size_t n, const std::int8_t *a,
       const std::int8_t *w, const std::int32_t *bias, std::int32_t *c)
{
    assert(k >= 1 && k <= kMaxK);
    if (m == 0 || n == 0) {
        return;
    }
    if (backend() == Backend::Naive) {
        KODAN_TRACE_SCOPE("ml.kernels.gemm_i8");
        gemmI8Naive(m, k, n, a, w, bias, c);
        return;
    }
    gemmI8(m, PackedI8(n, k, w, bias), a, c);
}

void
gemmI8Requant(std::size_t m, const PackedI8 &w, const std::int8_t *a,
              const Requant *rq, bool relu, std::int8_t *c)
{
    KODAN_TRACE_SCOPE("ml.kernels.gemm_i8");
    if (m == 0 || w.n == 0) {
        return;
    }
    // The per-channel fixed-point rescale and the ReLU clamp are one
    // fused pass over the finished accumulators — the quantized-domain
    // activation IS the clamp. The frame reclaims the store's lane
    // constants.
    Scratch::Frame frame(scratch());
    const RequantStore store(w.n, rq, relu, c);
    runPacked(m, w, a, store);
}

void
gemmI8Requant(std::size_t m, std::size_t k, std::size_t n,
              const std::int8_t *a, const std::int8_t *w,
              const std::int32_t *bias, const Requant *rq, bool relu,
              std::int8_t *c)
{
    assert(k >= 1 && k <= kMaxK);
    if (m == 0 || n == 0) {
        return;
    }
    if (backend() == Backend::Naive) {
        KODAN_TRACE_SCOPE("ml.kernels.gemm_i8");
        Scratch::Frame frame(scratch());
        auto *acc = scratch().allocArray<std::int32_t>(n);
        const RequantStore store(n, rq, relu, c);
        for (std::size_t i = 0; i < m; ++i) {
            gemmI8Naive(1, k, n, a + i * k, w, bias, acc);
            store(i, acc);
        }
        return;
    }
    gemmI8Requant(m, PackedI8(n, k, w, bias), a, rq, relu, c);
}

void
gemvI8(const PackedI8 &w, const std::int8_t *x, std::int32_t *y)
{
    if (w.n == 0) {
        return;
    }
    const std::size_t rows = w.n;
    // Single sample == one-row gemm: same packed layout, same bits.
    runPacked(1, w, x, [y, rows](std::size_t, const std::int32_t *acc) {
        std::memcpy(y, acc, rows * sizeof(std::int32_t));
    });
}

void
gemvI8(std::size_t rows, std::size_t cols, const std::int8_t *w,
       const std::int8_t *x, const std::int32_t *bias, std::int32_t *y)
{
    assert(cols >= 1 && cols <= kMaxK);
    if (rows == 0) {
        return;
    }
    if (backend() == Backend::Naive) {
        gemmI8Naive(1, cols, rows, x, w, bias, y);
        return;
    }
    gemvI8(PackedI8(rows, cols, w, bias), x, y);
}

} // namespace kodan::ml::kernels
