#include "cluster/kmeans.h"

#include <algorithm>
#include <limits>

#include "cluster/distance.h"
#include "util/check.h"
#include "util/prng.h"

namespace logr {

namespace {

/// Lloyd iterations per restart, at most.
constexpr int kMaxIterations = 100;

/// Sparse binary query vectors; each centroid is a dense row over the
/// feature universe, with its squared norm kept beside it.
struct SparseGeometry {
  const std::vector<FeatureVec>& vecs;
  const PackedVecPool* packed;
  Matrix centroids;
  std::vector<double> norm_sq;

  // The exact symmetric-difference count: from the XOR+popcount kernel
  // when the caller shares a packed pool, otherwise from the merge
  // kernel over the sparse id lists.
  double PointSqDist(std::size_t i, std::size_t j) const {
    return static_cast<double>(packed ? packed->SymmetricDifference(i, j)
                                      : SymmetricDifference(vecs[i], vecs[j]));
  }
  // ||x - c||^2 = |x| - 2 * sum_{f in x} c_f + ||c||^2.
  double CentroidSqDist(std::size_t i, std::size_t c) const {
    const double* row = centroids.Row(c);
    double dot = 0.0;
    for (FeatureId f : vecs[i].ids) dot += row[f];
    return static_cast<double>(vecs[i].size()) - 2.0 * dot + norm_sq[c];
  }
  void SetToPoint(std::size_t c, std::size_t i) {
    double* row = centroids.Row(c);
    std::fill(row, row + centroids.cols(), 0.0);
    for (FeatureId f : vecs[i].ids) row[f] = 1.0;
    norm_sq[c] = static_cast<double>(vecs[i].size());  // exact: 0/1 entries
  }
  void Clear() { centroids = Matrix(centroids.rows(), centroids.cols()); }
  void Accumulate(std::size_t c, std::size_t i, double w) {
    double* row = centroids.Row(c);
    for (FeatureId f : vecs[i].ids) row[f] += w;
  }
  void Divide(std::size_t c, double mass) {
    double* row = centroids.Row(c);
    double acc = 0.0;
    for (std::size_t f = 0; f < centroids.cols(); ++f) {
      row[f] /= mass;
      acc += row[f] * row[f];
    }
    norm_sq[c] = acc;
  }
};

/// Dense points of equal length; each centroid is a point-sized vector.
struct DenseGeometry {
  const std::vector<Vector>& points;
  std::vector<Vector> centroids;

  static double SqDist(const Vector& x, const Vector& c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double d = x[i] - c[i];
      acc += d * d;
    }
    return acc;
  }
  double PointSqDist(std::size_t i, std::size_t j) const {
    return SqDist(points[i], points[j]);
  }
  double CentroidSqDist(std::size_t i, std::size_t c) const {
    return SqDist(points[i], centroids[c]);
  }
  void SetToPoint(std::size_t c, std::size_t i) { centroids[c] = points[i]; }
  void Clear() {
    for (Vector& c : centroids) std::fill(c.begin(), c.end(), 0.0);
  }
  void Accumulate(std::size_t c, std::size_t i, double w) {
    for (std::size_t f = 0; f < centroids[c].size(); ++f) {
      centroids[c][f] += w * points[i][f];
    }
  }
  void Divide(std::size_t c, double mass) {
    for (double& v : centroids[c]) v /= mass;
  }
};

/// Weighted Lloyd over `count` points with `k` centroids in `geometry`:
/// ++ seeding from point-to-point distances, then assign and update
/// until no point moves; of `n_init` restarts the one with the lowest
/// inertia wins. `rng` drives every seeding and empty-cluster reseed.
template <typename Geometry>
ClusteringResult Lloyd(Geometry* geometry, std::size_t count, std::size_t k,
                       const std::vector<double>& weights_in, Pcg32 rng,
                       int n_init, ThreadPool* pool) {
  const std::vector<double> weights =
      weights_in.empty() ? std::vector<double>(count, 1.0) : weights_in;
  LOGR_CHECK(weights.size() == count);
  if (pool == nullptr) pool = ThreadPool::Shared();

  ClusteringResult best;
  best.inertia = std::numeric_limits<double>::max();
  std::vector<int> new_assign(count);
  std::vector<double> best_dist(count), seed_d2(count), probs(count);

  for (int init = 0; init < std::max(1, n_init); ++init) {
    // --- ++ seed: each next center drawn by weight times its squared
    // distance to the nearest center so far ---
    std::size_t latest = rng.NextDiscrete(weights);
    geometry->SetToPoint(0, latest);
    std::fill(seed_d2.begin(), seed_d2.end(),
              std::numeric_limits<double>::max());
    for (std::size_t c = 1; c < k; ++c) {
      for (std::size_t i = 0; i < count; ++i) {
        seed_d2[i] = std::min(seed_d2[i], geometry->PointSqDist(i, latest));
        probs[i] = weights[i] * seed_d2[i];
      }
      latest = rng.NextDiscrete(probs);
      geometry->SetToPoint(c, latest);
    }

    std::vector<int> assignment(count, -1);
    double inertia = 0.0;
    for (int iter = 0; iter < kMaxIterations; ++iter) {
      // --- assign --- Parallel scan into per-point slots; the
      // order-sensitive inertia sum stays serial so every pool size
      // gives identical results.
      ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
        int best_c = 0;
        double best_d = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < k; ++c) {
          double d = geometry->CentroidSqDist(i, c);
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
        // The sparse expansion can round a zero distance below 0.
        inertia += weights[i] * std::max(0.0, best_dist[i]);
      }
      if (!changed) break;
      // --- update ---
      geometry->Clear();
      std::vector<double> mass(k, 0.0);
      for (std::size_t i = 0; i < count; ++i) {
        mass[assignment[i]] += weights[i];
        geometry->Accumulate(assignment[i], i, weights[i]);
      }
      for (std::size_t c = 0; c < k; ++c) {
        if (mass[c] <= 0.0) {
          // Empty cluster: reseed at a point drawn uniformly from rng.
          geometry->SetToPoint(
              c, rng.NextBounded(static_cast<std::uint32_t>(count)));
        } else {
          geometry->Divide(c, mass[c]);
        }
      }
    }
    if (inertia < best.inertia) {
      best.assignment = std::move(assignment);
      best.inertia = inertia;
    }
  }
  return best;
}

}  // namespace

ClusteringResult KMeansSparse(const std::vector<FeatureVec>& vecs,
                              const std::vector<double>& weights,
                              const ClusterRequest& req) {
  LOGR_CHECK(!vecs.empty() && req.k >= 1);
  const std::size_t k = std::min(req.k, vecs.size());
  SparseGeometry geometry{vecs, req.packed, Matrix(k, req.num_features),
                          std::vector<double>(k)};
  return Lloyd(&geometry, vecs.size(), k, weights, Pcg32(req.seed),
               req.n_init, req.pool);
}

ClusteringResult KMeansDense(const std::vector<Vector>& points,
                             const std::vector<double>& weights,
                             std::size_t k, std::uint64_t seed, int n_init,
                             ThreadPool* pool) {
  LOGR_CHECK(!points.empty() && k >= 1);
  k = std::min(k, points.size());
  DenseGeometry geometry{points, std::vector<Vector>(k)};
  return Lloyd(&geometry, points.size(), k, weights,
               Pcg32(seed ^ 0x9e3779b97f4a7c15ULL), n_init, pool);
}

}  // namespace logr
