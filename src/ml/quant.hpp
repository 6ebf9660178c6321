/**
 * @file
 * Int8 quantized inference sibling of Mlp, plus the process-wide
 * precision knob.
 *
 * Scheme (see DESIGN.md "Quantized inference path"):
 *  - Weights: per-output-channel symmetric int8 — w_scale[o] =
 *    absmax(W[o,:]) / 127, wq = round(W / w_scale) clamped to
 *    [-127, 127]. Computed offline from the trained fp64 net.
 *  - Activations: per-tensor symmetric int8 with scales calibrated
 *    offline from a fp64 forward pass over the model's own training
 *    batch (absmax / 127 per layer input).
 *  - Hidden layers: int32 accumulation seeded by the quantized bias,
 *    then fixed-point requantization to the next layer's input scale
 *    (Q31 multiplier + right shift, round-half-away-from-zero) with
 *    ReLU fused as the [0, 127] saturation of the store.
 *  - Output layer: int32 accumulators dequantized to double
 *    (acc * in_scale * w_scale[o] + fp64 bias), then the sigmoid /
 *    softmax head evaluated in double exactly as the fp64 path does.
 *
 * Every arithmetic step between the input quantization and the final
 * dequantization is integer, so results are bit-identical at any
 * KODAN_THREADS, any batch split, and any kernel blocking — the
 * determinism contract holds by construction rather than by a fixed
 * summation order.
 */

#ifndef KODAN_ML_QUANT_HPP
#define KODAN_ML_QUANT_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/mlp.hpp"

namespace kodan::ml {

/** Numeric mode of the deployed inference path. */
enum class Precision
{
    /** Full double-precision inference (the default). */
    Fp64,
    /** Int8 quantized inference where a calibrated sibling exists. */
    Int8,
};

/**
 * The process's default inference precision. Fp64 unless the
 * KODAN_QUANT environment variable says "int8", "1", or "on";
 * setPrecision() overrides both. It is the default argument of
 * SpecializedZoo::predictRows, so it picks the sibling the runtime,
 * the pipeline infer stage, and the selection sweep's tables run. Set
 * it once per process, before any work: code that must run a given
 * sibling passes the precision explicitly instead of flipping this.
 */
Precision precision();

/** Set the default precision (process-wide). */
void setPrecision(Precision p);

/**
 * Immutable int8 inference sibling of a trained Mlp. Construction
 * quantizes the fp64 weights; inference is allocation-free at steady
 * state (all workspaces come from the per-thread Scratch arena via
 * allocBytes). Thread-safe for concurrent forward calls.
 */
class QuantizedMlp
{
  public:
    /**
     * Quantize @p net using precomputed per-layer activation scales
     * (one per linear layer: the scale of that layer's input tensor).
     * This is the deserialization path — scales round-trip through
     * saveZoo/loadZoo while the int8 weights are rebuilt from the
     * fp64 net, keeping the on-disk format small and exact.
     */
    QuantizedMlp(const Mlp &net, const std::vector<double> &act_scales);

    /**
     * Per-layer input absmax scales of @p net over a calibration
     * batch (row-major @p rows x input_dim). Runs the fp64 forward in
     * strips; deterministic for a fixed batch.
     */
    static std::vector<double> calibrate(const Mlp &net, const double *x,
                                         std::size_t rows);

    /** calibrate() + construct, the offline quantization entry point. */
    static QuantizedMlp fromCalibration(const Mlp &net, const double *x,
                                        std::size_t rows);

    /** Architecture (shared with the fp64 sibling). */
    const MlpConfig &config() const { return config_; }

    /** The calibrated activation scales (serialization payload). */
    const std::vector<double> &actScales() const { return act_scales_; }

    /**
     * Forward @p count samples: one gemmI8Requant per hidden layer,
     * gemmI8 + double dequantization for the head. Bit-identical for
     * any batch composition.
     */
    void forwardBatch(const double *x, std::size_t count,
                      double *out) const;

    /** Matrix convenience overload; @p out is resized. */
    void forwardBatch(const Matrix &x, Matrix &out) const;

  private:
    struct LayerQ
    {
        std::size_t fan_in = 0;
        std::size_t fan_out = 0;
        /** Per-output-channel weight scales. */
        std::vector<double> w_scale;
        /** Hidden layers: in_scale * w_scale[o] / out_scale encoded. */
        std::vector<kernels::Requant> rq;
        /** Output layer: in_scale * w_scale[o] dequantization factor. */
        std::vector<double> deq;
        /** Output layer: fp64 bias applied after dequantization. */
        std::vector<double> bias_f;
        /**
         * The int8 weights (row-major fan_out x fan_in, per-channel
         * round(W / w_scale)) and, on hidden layers, the int32 bias
         * seeds bias / (in_scale * w_scale[o]), clamped, in the
         * kernels' packed pair layout, built once at construction —
         * the int8 analogue of Mlp's eagerly-refreshed transposes.
         */
        kernels::PackedI8 packed;
    };

    MlpConfig config_;
    std::vector<LayerQ> layers_;
    std::vector<double> act_scales_;

    /** Quantize one input strip into the scratch arena. */
    const std::int8_t *quantizeInput(const double *x, std::size_t rows,
                                     std::int8_t *out) const;
};

} // namespace kodan::ml

#endif // KODAN_ML_QUANT_HPP
