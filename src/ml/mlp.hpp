/**
 * @file
 * Multilayer perceptron with Adam training.
 *
 * This is the stand-in for the paper's semantic-segmentation networks:
 * per-block binary cloud classifiers (sigmoid head) and the multi-class
 * context engine (softmax head). Seven capacity tiers play the role of
 * the seven application architectures of Table 1.
 *
 * Inference and training run one GEMM per layer over the whole batch
 * with scratch-arena workspaces (no per-call heap traffic). The
 * per-sample scalar loops they replaced survive as the bit-exact test
 * oracle (tests/ml/ml_oracle.hpp); both produce identical bits.
 */

#ifndef KODAN_ML_MLP_HPP
#define KODAN_ML_MLP_HPP

#include <iosfwd>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "util/rng.hpp"

namespace kodan::ml {

/** Output head of an Mlp. */
enum class OutputKind
{
    /** Independent sigmoid units, binary cross-entropy loss. */
    Sigmoid,
    /** Softmax over classes, cross-entropy loss. */
    Softmax,
};

/** Architecture description of an Mlp. */
struct MlpConfig
{
    /** Input dimension. */
    int input_dim = 0;
    /** Hidden layer widths (ReLU activations). */
    std::vector<int> hidden;
    /** Output dimension (1 for binary, class count for softmax). */
    int output_dim = 1;
    /** Output head. */
    OutputKind output = OutputKind::Sigmoid;
};

/** Training hyperparameters. */
struct TrainOptions
{
    /** Number of passes over the training set. */
    int epochs = 4;
    /** Minibatch size. */
    int batch_size = 64;
    /** Adam learning rate. */
    double learning_rate = 3.0e-3;
    /** L2 weight decay. */
    double weight_decay = 1.0e-5;
};

/**
 * Fully-connected network: input -> (Linear+ReLU)* -> Linear -> head.
 */
class Mlp
{
  public:
    /**
     * Construct with He-initialized weights.
     * @param config Architecture.
     * @param rng Initialization randomness.
     */
    Mlp(const MlpConfig &config, util::Rng &rng);

    /** Architecture. */
    const MlpConfig &config() const { return config_; }

    /** Total number of trainable parameters. */
    std::size_t parameterCount() const;

    /**
     * Forward pass of @p count samples at once: one GEMM per layer.
     * Rows are independent, so a row's bits do not depend on the batch
     * it rides in.
     *
     * @param x Row-major samples, count x config().input_dim.
     * @param count Number of samples.
     * @param out Row-major output, count x config().output_dim.
     */
    void forwardBatch(const double *x, std::size_t count,
                      double *out) const;

    /**
     * Matrix convenience overload of the batched forward pass; @p out
     * is resized to x.rows() x config().output_dim.
     */
    void forwardBatch(const Matrix &x, Matrix &out) const;

    /**
     * Train with Adam on (X, targets).
     *
     * For a Sigmoid head, @p targets holds one value per sample per output
     * unit in [0, 1] (soft labels are allowed). For a Softmax head it
     * holds one class index per sample (cast to double).
     *
     * @param x Samples, one per row.
     * @param targets Targets as described above.
     * @param options Hyperparameters.
     * @param rng Shuffling randomness.
     * @return Mean training loss of the final epoch.
     */
    double train(const Matrix &x, const std::vector<double> &targets,
                 const TrainOptions &options, util::Rng &rng);

    /** Serialize (architecture + weights) to a stream. */
    void save(std::ostream &os) const;

    /** Deserialize a network previously written by save(). */
    static Mlp load(std::istream &is);

    /** Number of linear layers (hidden layers + output layer). */
    std::size_t layerCount() const { return layers_.size(); }

    /**
     * Weights of layer @p l, row-major fan_out x fan_in — the view the
     * quantizer reads to build per-output-channel int8 siblings.
     */
    const Matrix &layerWeights(std::size_t l) const
    {
        return layers_[l].weights;
    }

    /** Bias of layer @p l (fan_out values). */
    const std::vector<double> &layerBias(std::size_t l) const
    {
        return layers_[l].bias;
    }

  private:
    struct Layer
    {
        Matrix weights; // out x in
        // Transposed weights (in x out), the GEMM operand of the
        // batched forward pass; refreshed eagerly whenever weights
        // change so const inference paths stay thread-safe.
        Matrix weights_t;
        std::vector<double> bias;
        // Adam state.
        Matrix m_w, v_w;
        std::vector<double> m_b, v_b;
    };

    MlpConfig config_;
    std::vector<Layer> layers_;
    long long adam_step_ = 0;

    /** Rebuild weights_t of every layer from weights. */
    void refreshTransposes();
};

} // namespace kodan::ml

#endif // KODAN_ML_MLP_HPP
