#include "oracles/hierarchical_reference.h"

#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "util/check.h"

namespace logr {

Dendrogram AgglomerativeAverageLinkageReference(
    const CondensedDistances& distances, const std::vector<double>& weights) {
  const std::size_t n = distances.size();
  LOGR_CHECK(n >= 1);

  Dendrogram out;
  out.num_leaves = n;
  if (n == 1) return out;

  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d(i, j) = distances.at(i, j);
      d(j, i) = distances.at(i, j);
    }
  }
  // Leaf masses as the shipped kernel resolves them: 1 per leaf unless
  // weights are given, non-positive weights floored at 1e-12.
  std::vector<double> mass(n, 1.0);
  if (!weights.empty()) {
    LOGR_CHECK(weights.size() == n);
    for (std::size_t i = 0; i < n; ++i) {
      mass[i] = weights[i] > 0.0 ? weights[i] : 1e-12;
    }
  }
  std::vector<bool> active(n, true);
  std::vector<int> node_of_slot(n);
  std::iota(node_of_slot.begin(), node_of_slot.end(), 0);

  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::size_t remaining = n;

  auto nearest = [&](std::size_t a) {
    double best = std::numeric_limits<double>::max();
    std::size_t arg = a;
    for (std::size_t j = 0; j < n; ++j) {
      if (!active[j] || j == a) continue;
      // Deterministic tie-break on index.
      if (d(a, j) < best || (d(a, j) == best && j < arg)) {
        best = d(a, j);
        arg = j;
      }
    }
    return std::make_pair(arg, best);
  };

  while (remaining > 1) {
    if (chain.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
          chain.push_back(i);
          break;
        }
      }
    }
    for (;;) {
      std::size_t a = chain.back();
      auto [b, dist_ab] = nearest(a);
      if (chain.size() >= 2 && b == chain[chain.size() - 2]) {
        chain.pop_back();
        chain.pop_back();
        int node_a = node_of_slot[a];
        int node_b = node_of_slot[b];
        out.merge_a.push_back(node_a);
        out.merge_b.push_back(node_b);
        out.height.push_back(dist_ab);
        // Lance-Williams weighted average-linkage update into slot a.
        double ma = mass[a], mb = mass[b];
        for (std::size_t j2 = 0; j2 < n; ++j2) {
          if (!active[j2] || j2 == a || j2 == b) continue;
          double nd = (ma * d(a, j2) + mb * d(b, j2)) / (ma + mb);
          d(a, j2) = nd;
          d(j2, a) = nd;
        }
        mass[a] = ma + mb;
        active[b] = false;
        node_of_slot[a] =
            static_cast<int>(n + out.merge_a.size() - 1);
        --remaining;
        break;
      }
      chain.push_back(b);
    }
  }
  return out;
}

}  // namespace logr
