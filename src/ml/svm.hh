/**
 * @file
 * Linear support vector machine — the third attacker-side algorithm
 * in the paper's reverse-engineering experiments.
 */

#ifndef RHMD_ML_SVM_HH
#define RHMD_ML_SVM_HH

#include "ml/classifier.hh"

namespace rhmd::ml
{

/** Pegasos training hyperparameters. */
struct SvmConfig
{
    double lambda = 1e-4;   ///< regularization strength
    std::size_t epochs = 60;
    /** Scale applied to the margin inside the sigmoid for score(). */
    double scoreSharpness = 2.0;
};

/**
 * Linear SVM trained with the Pegasos stochastic sub-gradient
 * solver. score() squashes the signed margin through a sigmoid so
 * the common [0, 1] threshold machinery applies.
 */
class LinearSvm : public Classifier
{
  public:
    explicit LinearSvm(SvmConfig config = {});

    void train(const Dataset &data, Rng &rng) override;
    std::vector<double>
    scoreBatch(const features::FeatureMatrix &x) const override;
    std::string name() const override { return "SVM"; }

    const std::vector<double> &weights() const { return weights_; }
    double bias() const { return bias_; }

    /** Sigmoid sharpness applied to the margin in score(). */
    double scoreSharpness() const { return config_.scoreSharpness; }

    /** Directly install parameters (testing / serialization). */
    void setParams(std::vector<double> weights, double bias);

  private:
    SvmConfig config_;
    std::vector<double> weights_;
    double bias_ = 0.0;
};

} // namespace rhmd::ml

#endif // RHMD_ML_SVM_HH
