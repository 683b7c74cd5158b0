#include "maxent/factored_model.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "maxent/entropy.h"
#include "util/check.h"

namespace logr {

namespace {

/// Union-find over feature ids with component feature counts.
class FeatureComponents {
 public:
  int Find(FeatureId f) {
    auto it = parent_.find(f);
    if (it == parent_.end()) {
      parent_[f] = f;
      size_[f] = 1;
      return static_cast<int>(f);
    }
    FeatureId root = f;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[f] != root) {
      FeatureId next = parent_[f];
      parent_[f] = root;
      f = next;
    }
    return static_cast<int>(root);
  }

  std::size_t MergedSize(const FeatureVec& feats) {
    std::size_t total = 0;
    std::map<int, bool> roots;
    for (FeatureId f : feats.ids) {
      if (parent_.find(f) == parent_.end()) {
        ++total;
        continue;
      }
      int r = Find(f);
      if (!roots.count(r)) {
        roots[r] = true;
        total += size_[static_cast<FeatureId>(r)];
      }
    }
    return total;
  }

  void Merge(const FeatureVec& feats) {
    if (feats.ids.empty()) return;
    int r0 = Find(feats.ids[0]);
    for (std::size_t i = 1; i < feats.ids.size(); ++i) {
      int r = Find(feats.ids[i]);
      if (r == r0) continue;
      size_[static_cast<FeatureId>(r0)] +=
          size_[static_cast<FeatureId>(r)];
      parent_[static_cast<FeatureId>(r)] = static_cast<FeatureId>(r0);
    }
  }

 private:
  std::unordered_map<FeatureId, FeatureId> parent_;
  std::unordered_map<FeatureId, std::size_t> size_;
};

/// Fit settings of every block's dense IPF.
constexpr ScalingOptions kBlockFit{300, 1e-9};

}  // namespace

FactoredMaxEnt::FactoredMaxEnt(
    std::vector<std::pair<FeatureId, double>> singletons,
    std::vector<PatternConstraint> patterns,
    std::size_t max_block_features) {
  for (const auto& [f, p] : singletons) {
    if (p > 0.0) singleton_.emplace(f, std::min(p, 1.0));
  }

  // Greedy retention in caller-priority order under the block ceiling.
  FeatureComponents comps;
  std::vector<const PatternConstraint*> retained_constraints;
  for (const PatternConstraint& pc : patterns) {
    if (pc.pattern.size() < 2) continue;  // singletons are the base model
    if (comps.MergedSize(pc.pattern) > max_block_features) continue;
    comps.Merge(pc.pattern);
    retained_.push_back(pc.pattern);
    retained_constraints.push_back(&pc);
  }

  // Group retained patterns into components by root feature.
  std::map<int, std::vector<const PatternConstraint*>> by_root;
  for (const PatternConstraint* pc : retained_constraints) {
    by_root[comps.Find(pc->pattern.ids[0])].push_back(pc);
  }

  // Build blocks and fit each by IPF.
  for (const auto& [root, block_patterns] : by_root) {
    Block block;
    std::unordered_map<FeatureId, std::size_t> local;
    for (const PatternConstraint* pc : block_patterns) {
      for (FeatureId f : pc->pattern.ids) {
        if (!local.count(f)) {
          local[f] = block.features.size();
          block.features.push_back(f);
        }
      }
    }
    // Dense IPF over the block's 2^d states, starting uniform: one
    // singleton constraint per block feature, then the block's patterns.
    const std::size_t d = block.features.size();
    LOGR_CHECK(d <= 24);
    std::vector<IpfConstraint> constraints;
    constraints.reserve(d + block_patterns.size());
    for (std::size_t f = 0; f < d; ++f) {
      auto it = singleton_.find(block.features[f]);
      constraints.push_back({std::uint32_t(1) << f,
                             it == singleton_.end() ? 0.0 : it->second});
    }
    for (const PatternConstraint* pc : block_patterns) {
      std::uint32_t mask = 0;
      for (FeatureId f : pc->pattern.ids) {
        mask |= std::uint32_t(1) << local[f];
      }
      constraints.push_back({mask, pc->marginal});
    }
    const std::size_t states = std::size_t(1) << d;
    block.states.resize(states);
    for (std::size_t s = 0; s < states; ++s) {
      block.states[s] = {static_cast<std::uint32_t>(s),
                         1.0 / static_cast<double>(states)};
    }
    converged_ &= FitIpf(&block.states, constraints, kBlockFit).converged;
    for (FeatureId f : block.features) {
      block_of_.emplace(f, blocks_.size());
    }
    blocks_.push_back(std::move(block));
  }

  // Entropy: independent features outside blocks + per-block joints.
  double h = 0.0;
  for (const auto& [f, p] : singleton_) {
    if (!block_of_.count(f)) h += BinaryEntropy(p);
  }
  for (const Block& b : blocks_) {
    std::vector<double> mass;
    mass.reserve(b.states.size());
    for (const IpfState& st : b.states) mass.push_back(st.mass);
    h += Entropy(mass);
  }
  entropy_ = h;
}

double FactoredMaxEnt::MarginalOf(const FeatureVec& b) const {
  // Partition b's features into independent features and per-block masks.
  // The masks are multiplied into `prob` below, and FP multiplication
  // rounds differently per order — std::map keeps the factor order
  // (ascending block index) identical across platforms/hash seeds.
  double prob = 1.0;
  std::map<std::size_t, std::uint32_t> block_masks;
  for (FeatureId f : b.ids) {
    auto blk = block_of_.find(f);
    if (blk == block_of_.end()) {
      auto it = singleton_.find(f);
      if (it == singleton_.end()) return 0.0;
      prob *= it->second;
      continue;
    }
    const Block& block = blocks_[blk->second];
    std::size_t local = 0;
    for (; local < block.features.size(); ++local) {
      if (block.features[local] == f) break;
    }
    block_masks[blk->second] |= std::uint32_t(1) << local;
  }
  for (const auto& [bi, mask] : block_masks) {
    prob *= MassUnderMask(blocks_[bi].states, mask);
  }
  return prob;
}

}  // namespace logr
