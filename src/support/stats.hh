/**
 * @file
 * Small statistics helpers shared across the library: running
 * moments, vector arithmetic, and histogram utilities.
 */

#ifndef RHMD_SUPPORT_STATS_HH
#define RHMD_SUPPORT_STATS_HH

#include <cstddef>
#include <vector>

namespace rhmd
{

/**
 * Numerically stable running mean/variance (Welford's algorithm).
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    std::size_t count() const { return count_; }

    /** Mean of observations (0 when empty). */
    double mean() const { return mean_; }

    /** Unbiased sample variance (0 when count < 2). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** Largest observation (-inf when empty). */
    double max() const { return max_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Dot product of two @p n-element arrays, summed in ascending index
 * from 0.0 (the order every linear score and trainer relies on).
 */
double dot(const double *a, const double *b, std::size_t n);

/** Dot product; vectors must have equal length. */
double dot(const std::vector<double> &a, const std::vector<double> &b);

/** Euclidean norm. */
double norm(const std::vector<double> &v);

/** a[i] += scale * b[i] for i < @p n, in place. */
void axpy(double *a, double scale, const double *b, std::size_t n);

/** a += scale * b, in place; vectors must have equal length. */
void axpy(std::vector<double> &a, double scale,
          const std::vector<double> &b);

/** Normalize a non-negative vector to sum to one (no-op if sum==0). */
void normalizeInPlace(std::vector<double> &v);

/**
 * Pearson chi-squared statistic of observed counts against expected
 * probabilities; used by tests to check the RHMD switch is uniform.
 */
double chiSquared(const std::vector<std::size_t> &observed,
                  const std::vector<double> &expected_probs);

} // namespace rhmd

#endif // RHMD_SUPPORT_STATS_HH
