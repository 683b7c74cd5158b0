#include "workload/log_view.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace logr {

namespace {

/// True when the sorted id span [ids, ids+len) contains every id of `b`
/// (the ⊇ test behind Marginal, span-based so subviews never copy).
bool SpanContains(const FeatureId* ids, std::size_t len, const FeatureVec& b) {
  const FeatureId* end = ids + len;
  for (FeatureId f : b.ids) {
    ids = std::lower_bound(ids, end, f);
    if (ids == end || *ids != f) return false;
    ++ids;
  }
  return true;
}

}  // namespace

FeatureVec LogView::VectorAt(std::size_t i) const {
  i = Map(i);
  if (log_) return log_->Vector(i);
  return mmap_->VectorAt(i);
}

double LogView::Marginal(const FeatureVec& b) const {
  if (!subset_) return log_ ? log_->Marginal(b) : mmap_->Marginal(b);
  if (subset_total_ == 0) return 0.0;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < subset_->size(); ++i) {
    if (SpanContains(VectorIds(i), VectorSize(i), b)) {
      hits += Multiplicity(i);
    }
  }
  return static_cast<double>(hits) / static_cast<double>(subset_total_);
}

QueryLog LogView::MaterializeSubset(
    const std::vector<std::size_t>& indices) const {
  if (subset_) {
    // Compose the windows so the copy comes straight off the base log.
    std::vector<std::size_t> base_indices;
    base_indices.reserve(indices.size());
    for (std::size_t i : indices) {
      LOGR_CHECK(i < subset_->size());
      base_indices.push_back((*subset_)[i]);
    }
    LogView base = *this;
    base.subset_ = nullptr;
    return base.MaterializeSubset(base_indices);
  }
  if (log_) return log_->Subset(indices);
  QueryLog out;
  *out.mutable_vocabulary() = mmap_->vocabulary();
  for (std::size_t i : indices) {
    LOGR_CHECK(i < mmap_->NumDistinct());
    out.Add(mmap_->VectorAt(i), mmap_->Multiplicity(i),
            std::string(mmap_->SampleSql(i)));
  }
  return out;
}

LogView LogView::Subview(const std::vector<std::size_t>& indices) const {
  LOGR_CHECK_MSG(subset_ == nullptr, "subviews do not nest");
  LOGR_CHECK(log_ != nullptr || mmap_ != nullptr);
  LogView out = *this;
  out.subset_ = &indices;
  const std::size_t base_n = NumDistinct();
  std::size_t max_bound = 0;
  for (std::size_t i : indices) {
    LOGR_CHECK(i < base_n);
    const std::uint64_t count = Multiplicity(i);
    out.subset_total_ += count;
    out.subset_max_multiplicity_ =
        std::max(out.subset_max_multiplicity_, count);
    const std::size_t len = VectorSize(i);
    if (len > 0) {
      // Ids are sorted ascending, so the last one is the row's max.
      max_bound = std::max(
          max_bound, static_cast<std::size_t>(VectorIds(i)[len - 1]) + 1);
    }
  }
  out.subset_num_features_ = std::max(vocabulary().size(), max_bound);
  return out;
}

PackedVecPool LogView::Pack() const {
  const LogView& v = *this;
  return PackedVecPool(NumDistinct(), NumFeatures(), [&v](std::size_t i) {
    return std::pair<const FeatureId*, std::size_t>(v.VectorIds(i),
                                                    v.VectorSize(i));
  });
}

}  // namespace logr
