// Entropy and divergence helpers (all in nats).
#ifndef LOGR_MAXENT_ENTROPY_H_
#define LOGR_MAXENT_ENTROPY_H_

#include <vector>

namespace logr {

/// Shannon entropy -sum p ln p of a probability vector. Zero entries are
/// skipped; the vector need not be exactly normalized.
double Entropy(const std::vector<double>& p);

/// Binary entropy h(p) = -p ln p - (1-p) ln (1-p), with h(0)=h(1)=0.
double BinaryEntropy(double p);

/// Kullback-Leibler divergence KL(p || q) = sum p ln(p/q).
///
/// Whenever p_i > 0 but q_i == 0 the divergence is undefined (the paper
/// notes the absolute-continuity caveat in Sec. 3.3); `epsilon` smoothing
/// substitutes max(q_i, epsilon) to keep estimates finite.
double KlDivergence(const std::vector<double>& p,
                    const std::vector<double>& q, double epsilon = 1e-12);

}  // namespace logr

#endif  // LOGR_MAXENT_ENTROPY_H_
