/**
 * @file
 * Classifier factory and simple text serialization.
 *
 * Serialization covers the parametric models (LR, SVM, MLP) whose
 * weights a hardware deployment would flash into detector SRAM; the
 * format is line-oriented text so tests and humans can read it.
 * Every stream starts with a magic word and a format version
 * ("RHMD-MODEL 2") so corrupt or wrong-version files are rejected
 * up front with a recoverable error instead of being half-parsed.
 */

#ifndef RHMD_ML_SERIALIZE_HH
#define RHMD_ML_SERIALIZE_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "ml/classifier.hh"
#include "support/status.hh"

namespace rhmd::ml
{

/** Magic word opening every serialized model stream. */
inline constexpr std::string_view kModelMagic = "RHMD-MODEL";

/** Current serialization format version. */
inline constexpr int kModelFormatVersion = 2;

/**
 * Construct a fresh (untrained) classifier by algorithm name:
 * "LR", "NN", "DT", "SVM", or "RF".
 */
std::unique_ptr<Classifier> makeClassifier(const std::string &name);

/**
 * Serialize a trained LR, SVM, or MLP to text. Returns
 * InvalidArgument for non-parametric classifiers (DT, RF).
 */
support::Status trySaveModel(const Classifier &model, std::ostream &os);

/**
 * Deserialize a model previously written by saveModel(). Returns
 * InvalidArgument for a wrong magic word, unsupported version, or
 * unknown model kind; DataLoss for truncated or corrupt parameter
 * data (including non-finite weights). Never aborts the process.
 */
support::StatusOr<std::unique_ptr<Classifier>>
tryLoadModel(std::istream &is);

/** trySaveModel(), but fatal on error (config-time convenience). */
void saveModel(const Classifier &model, std::ostream &os);

/** tryLoadModel(), but fatal on error (config-time convenience). */
std::unique_ptr<Classifier> loadModel(std::istream &is);

} // namespace rhmd::ml

#endif // RHMD_ML_SERIALIZE_HH
