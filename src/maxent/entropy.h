// Entropy helpers (all in nats).
#ifndef LOGR_MAXENT_ENTROPY_H_
#define LOGR_MAXENT_ENTROPY_H_

#include <vector>

namespace logr {

/// Shannon entropy -sum p ln p of a probability vector. Zero entries are
/// skipped; the vector need not be exactly normalized.
double Entropy(const std::vector<double>& p);

/// Binary entropy h(p) = -p ln p - (1-p) ln (1-p), with h(0)=h(1)=0.
double BinaryEntropy(double p);

}  // namespace logr

#endif  // LOGR_MAXENT_ENTROPY_H_
