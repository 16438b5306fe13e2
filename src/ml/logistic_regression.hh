/**
 * @file
 * Logistic regression — the paper's low-complexity HMD classifier,
 * chosen there because it "performs well and has low complexity,
 * facilitating hardware implementations".
 */

#ifndef RHMD_ML_LOGISTIC_REGRESSION_HH
#define RHMD_ML_LOGISTIC_REGRESSION_HH

#include "ml/classifier.hh"

namespace rhmd::ml
{

/** Numerically safe logistic function. */
double sigmoid(double z);

/** Training hyperparameters for logistic regression. */
struct LrConfig
{
    double learningRate = 0.15;
    double l2 = 1e-4;          ///< ridge penalty
    std::size_t epochs = 80;
    std::size_t batchSize = 32;
};

/**
 * L2-regularized logistic regression trained with mini-batch SGD
 * (decaying step size). Exposes its weight vector, which the evasion
 * framework reads to pick injection opcodes.
 */
class LogisticRegression : public Classifier
{
  public:
    explicit LogisticRegression(LrConfig config = {});

    void train(const Dataset &data, Rng &rng) override;
    std::vector<double>
    scoreBatch(const features::FeatureMatrix &x) const override;
    std::string name() const override { return "LR"; }

    /** Per-feature weights (valid after train()). */
    const std::vector<double> &weights() const { return weights_; }

    /** Intercept term. */
    double bias() const { return bias_; }

    /** Directly install parameters (testing / serialization). */
    void setParams(std::vector<double> weights, double bias);

  private:
    LrConfig config_;
    std::vector<double> weights_;
    double bias_ = 0.0;
};

} // namespace rhmd::ml

#endif // RHMD_ML_LOGISTIC_REGRESSION_HH
