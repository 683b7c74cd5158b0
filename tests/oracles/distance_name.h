// A DistanceSpec's name, for test failure messages. Header-only; not
// part of `logr`, which never prints a metric's name.
#ifndef LOGR_ORACLES_DISTANCE_NAME_H_
#define LOGR_ORACLES_DISTANCE_NAME_H_

#include <string>

#include "cluster/distance.h"
#include "util/string_util.h"

namespace logr {

inline std::string DistanceName(const DistanceSpec& spec) {
  switch (spec.metric) {
    case Metric::kEuclidean: return "euclidean";
    case Metric::kManhattan: return "manhattan";
    case Metric::kMinkowski: return StrFormat("minkowski(p=%.0f)", spec.p);
    case Metric::kHamming: return "hamming";
  }
  return "?";
}

}  // namespace logr

#endif  // LOGR_ORACLES_DISTANCE_NAME_H_
