#include "workload/log_view.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "util/check.h"

namespace logr {

FeatureVec LogView::VectorAt(std::size_t i) const {
  FeatureVec v;
  const FeatureId* ids = VectorIds(i);
  v.ids.assign(ids, ids + VectorSize(i));  // sorted + distinct at the source
  return v;
}

QueryLog LogView::MaterializeSubset(
    const std::vector<std::size_t>& indices) const {
  std::vector<FeatureVec> vectors;
  std::vector<std::uint64_t> counts;
  std::vector<std::string> sample_sql;
  vectors.reserve(indices.size());
  counts.reserve(indices.size());
  sample_sql.reserve(indices.size());
  for (std::size_t i : indices) {
    LOGR_CHECK(i < NumDistinct());
    vectors.push_back(VectorAt(i));
    counts.push_back(Multiplicity(i));
    sample_sql.emplace_back(SampleSql(i));
  }
  return QueryLog::FromColumns(vocabulary(), std::move(vectors),
                               std::move(counts), std::move(sample_sql));
}

QueryLog LogView::Materialize() const {
  std::vector<std::size_t> all(NumDistinct());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return MaterializeSubset(all);
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
    out.subset_total_ += Multiplicity(i);
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
