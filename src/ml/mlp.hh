/**
 * @file
 * Multi-layer perceptron — the paper's NN detector: "a single hidden
 * layer that has a number of neurons equal to the number of features
 * in the feature vector" with tanh activations.
 */

#ifndef RHMD_ML_MLP_HH
#define RHMD_ML_MLP_HH

#include "ml/classifier.hh"

namespace rhmd::ml
{

/** Training hyperparameters for the MLP. */
struct MlpConfig
{
    /** Hidden neurons; 0 means "equal to the input dimension". */
    std::size_t hidden = 0;
    double learningRate = 0.01;
    double l2 = 0.02;
    std::size_t epochs = 200;
    double momentum = 0.95;
    double initScale = 0.5;  ///< weight init: N(0, initScale/sqrt(d))
};

/**
 * One-hidden-layer tanh MLP with a sigmoid output, trained with
 * momentum SGD on log loss. Exposes its weight matrices so the
 * evasion framework can apply the paper's weight-collapse heuristic
 * (Fig. 7): w_j = sum_i w1_ji * wout_i.
 */
class Mlp : public Classifier
{
  public:
    explicit Mlp(MlpConfig config = {});

    void train(const Dataset &data, Rng &rng) override;
    std::vector<double>
    scoreBatch(const features::FeatureMatrix &x) const override;
    std::string name() const override { return "NN"; }

    /** Hidden-layer weights, [hidden][input]. */
    const std::vector<std::vector<double>> &hiddenWeights() const
    {
        return w1_;
    }

    /** Hidden-layer biases, [hidden]. */
    const std::vector<double> &hiddenBias() const { return b1_; }

    /** Output weights, [hidden]. */
    const std::vector<double> &outputWeights() const { return w2_; }

    /** Output bias. */
    double outputBias() const { return b2_; }

    /**
     * The paper's Fig. 7 collapse: per-input effective weight
     * w_j = sum_i w1_ij * wout_i.
     */
    std::vector<double> collapsedWeights() const;

    /** Directly install parameters (testing / serialization). */
    void setParams(std::vector<std::vector<double>> w1,
                   std::vector<double> b1, std::vector<double> w2,
                   double b2);

  private:
    MlpConfig config_;
    std::size_t inputDim_ = 0;
    std::vector<std::vector<double>> w1_;  ///< [hidden][input]
    std::vector<double> b1_;
    std::vector<double> w2_;               ///< [hidden]
    double b2_ = 0.0;
};

} // namespace rhmd::ml

#endif // RHMD_ML_MLP_HH
