#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/distance.h"
#include "util/check.h"
#include "util/prng.h"

namespace logr {

namespace {

/// Lloyd iterations per restart, at most.
constexpr int kMaxIterations = 100;

std::vector<double> ResolveWeights(std::size_t count,
                                   const std::vector<double>& weights) {
  if (weights.empty()) return std::vector<double>(count, 1.0);
  LOGR_CHECK(weights.size() == count);
  return weights;
}

// Squared Euclidean distance from sparse binary x to dense centroid c,
// given ||c||^2: ||x - c||^2 = |x| - 2 * sum_{f in x} c_f + ||c||^2.
double SparseSqDist(const FeatureVec& x, const double* c, double c_norm_sq) {
  double dot = 0.0;
  for (FeatureId f : x.ids) dot += c[f];
  return static_cast<double>(x.size()) - 2.0 * dot + c_norm_sq;
}

double DenseSqDist(const Vector& x, const Vector& c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double d = x[i] - c[i];
    acc += d * d;
  }
  return acc;
}

// k-means++ seeding over abstract points: `sq_dist_to(i, j)` returns the
// squared distance between input points i and j.
template <typename SqDistFn>
std::vector<std::size_t> PlusPlusSeed(std::size_t count, std::size_t k,
                                      const std::vector<double>& weights,
                                      Pcg32* rng, SqDistFn sq_dist_to) {
  std::vector<std::size_t> centers;
  centers.push_back(rng->NextDiscrete(weights));
  std::vector<double> best_d2(count, std::numeric_limits<double>::max());
  while (centers.size() < k) {
    std::size_t latest = centers.back();
    std::vector<double> probs(count);
    for (std::size_t i = 0; i < count; ++i) {
      best_d2[i] = std::min(best_d2[i], sq_dist_to(i, latest));
      probs[i] = weights[i] * best_d2[i];
    }
    centers.push_back(rng->NextDiscrete(probs));
  }
  return centers;
}

}  // namespace

ClusteringResult KMeansSparse(const std::vector<FeatureVec>& vecs,
                              const std::vector<double>& weights_in,
                              const ClusterRequest& req) {
  const std::size_t count = vecs.size();
  LOGR_CHECK(count > 0 && req.k >= 1);
  const std::size_t k = std::min(req.k, count);
  const std::size_t n = req.num_features;
  std::vector<double> weights = ResolveWeights(count, weights_in);
  Pcg32 rng(req.seed);
  ThreadPool* pool = req.pool ? req.pool : ThreadPool::Shared();

  ClusteringResult best;
  best.inertia = std::numeric_limits<double>::max();
  std::vector<int> new_assign(count);
  std::vector<double> best_dist(count);

  // Every restart's ++ seeding reads squared point-to-point distances
  // (= exact symmetric-difference counts): from the XOR+popcount kernel
  // when the caller shares a packed pool, otherwise from the merge
  // kernel over the sparse id lists.
  auto seed_sq_dist = [&](std::size_t i, std::size_t j) {
    return static_cast<double>(
        req.packed ? req.packed->SymmetricDifference(i, j)
                   : SymmetricDifference(vecs[i], vecs[j]));
  };

  for (int init = 0; init < std::max(1, req.n_init); ++init) {
    // --- seed ---
    auto seed_centers = PlusPlusSeed(count, k, weights, &rng, seed_sq_dist);
    Matrix centroids(k, n);
    for (std::size_t c = 0; c < k; ++c) {
      for (FeatureId f : vecs[seed_centers[c]].ids) centroids(c, f) = 1.0;
    }

    std::vector<int> assignment(count, -1);
    double inertia = 0.0;
    for (int iter = 0; iter < kMaxIterations; ++iter) {
      // --- assign ---
      std::vector<double> norm_sq(k, 0.0);
      for (std::size_t c = 0; c < k; ++c) {
        const double* row = centroids.Row(c);
        double acc = 0.0;
        for (std::size_t f = 0; f < n; ++f) acc += row[f] * row[f];
        norm_sq[c] = acc;
      }
      // Parallel scan into per-point slots; the order-sensitive inertia
      // sum stays serial so every pool size gives identical results.
      ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
        int best_c = 0;
        double best_d = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < k; ++c) {
          double d = SparseSqDist(vecs[i], centroids.Row(c), norm_sq[c]);
          if (d < best_d) {
            best_d = d;
            best_c = static_cast<int>(c);
          }
        }
        new_assign[i] = best_c;
        best_dist[i] = best_d;
      });
      bool changed = false;
      inertia = 0.0;
      for (std::size_t i = 0; i < count; ++i) {
        if (assignment[i] != new_assign[i]) {
          assignment[i] = new_assign[i];
          changed = true;
        }
        inertia += weights[i] * std::max(0.0, best_dist[i]);
      }
      if (!changed) break;
      // --- update ---
      centroids = Matrix(k, n);
      std::vector<double> mass(k, 0.0);
      for (std::size_t i = 0; i < count; ++i) {
        int c = assignment[i];
        mass[c] += weights[i];
        double* row = centroids.Row(c);
        for (FeatureId f : vecs[i].ids) row[f] += weights[i];
      }
      for (std::size_t c = 0; c < k; ++c) {
        if (mass[c] <= 0.0) {
          // Empty cluster: reseed at a point drawn uniformly from rng.
          std::size_t far = rng.NextBounded(static_cast<std::uint32_t>(count));
          double* row = centroids.Row(c);
          std::fill(row, row + n, 0.0);
          for (FeatureId f : vecs[far].ids) row[f] = 1.0;
          continue;
        }
        double* row = centroids.Row(c);
        for (std::size_t f = 0; f < n; ++f) row[f] /= mass[c];
      }
    }
    if (inertia < best.inertia) {
      best.assignment = std::move(assignment);
      best.inertia = inertia;
    }
  }
  best.k = k;
  return best;
}

ClusteringResult KMeansDense(const std::vector<Vector>& points,
                             const std::vector<double>& weights_in,
                             std::size_t k_in, std::uint64_t seed, int n_init,
                             ThreadPool* pool) {
  const std::size_t count = points.size();
  LOGR_CHECK(count > 0 && k_in >= 1);
  const std::size_t dim = points[0].size();
  const std::size_t k = std::min(k_in, count);
  std::vector<double> weights = ResolveWeights(count, weights_in);
  Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  if (pool == nullptr) pool = ThreadPool::Shared();

  ClusteringResult best;
  best.inertia = std::numeric_limits<double>::max();
  std::vector<int> new_assign(count);
  std::vector<double> best_dist(count);

  for (int init = 0; init < std::max(1, n_init); ++init) {
    auto seed_centers = PlusPlusSeed(
        count, k, weights, &rng, [&](std::size_t i, std::size_t j) {
          return DenseSqDist(points[i], points[j]);
        });
    std::vector<Vector> centroids;
    centroids.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      centroids.push_back(points[seed_centers[c]]);
    }

    std::vector<int> assignment(count, -1);
    double inertia = 0.0;
    for (int iter = 0; iter < kMaxIterations; ++iter) {
      ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
        int best_c = 0;
        double best_d = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < k; ++c) {
          double d = DenseSqDist(points[i], centroids[c]);
          if (d < best_d) {
            best_d = d;
            best_c = static_cast<int>(c);
          }
        }
        new_assign[i] = best_c;
        best_dist[i] = best_d;
      });
      bool changed = false;
      inertia = 0.0;
      for (std::size_t i = 0; i < count; ++i) {
        if (assignment[i] != new_assign[i]) {
          assignment[i] = new_assign[i];
          changed = true;
        }
        inertia += weights[i] * best_dist[i];
      }
      if (!changed) break;
      for (auto& c : centroids) std::fill(c.begin(), c.end(), 0.0);
      std::vector<double> mass(k, 0.0);
      for (std::size_t i = 0; i < count; ++i) {
        int c = assignment[i];
        mass[c] += weights[i];
        for (std::size_t f = 0; f < dim; ++f) {
          centroids[c][f] += weights[i] * points[i][f];
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
        if (mass[c] <= 0.0) {
          centroids[c] =
              points[rng.NextBounded(static_cast<std::uint32_t>(count))];
          continue;
        }
        for (double& v : centroids[c]) v /= mass[c];
      }
    }
    if (inertia < best.inertia) {
      best.assignment = std::move(assignment);
      best.inertia = inertia;
    }
  }
  best.k = k;
  return best;
}

}  // namespace logr
