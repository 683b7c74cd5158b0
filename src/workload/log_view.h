// Non-owning read view over a query log's distinct-vector columns.
//
// A view serves columns only: per-vector feature-id spans,
// multiplicities, sample SQL, the feature-universe width and the
// vocabulary. Both the heap QueryLog and the mmap-backed MmapQueryLog
// serve those columns, so a LogView lets Compress run straight off an
// mmap'd .logrl without copying every vector onto the heap first. The
// view borrows; the backing log must outlive it. Log statistics
// (marginals, entropy, ...) live on QueryLog alone; MaterializeSubset
// is the one function that copies a view's rows into an owning
// QueryLog, whatever the backing.
//
// A view can also window a *subset* of the backing log's distinct
// vectors (Subview): row i of the subview is row indices[i] of the
// base. Sharded compression hands each shard such a subview instead of
// materializing a per-shard QueryLog copy — same vocabulary, same
// feature universe as MaterializeSubset would report, zero copies.
#ifndef LOGR_WORKLOAD_LOG_VIEW_H_
#define LOGR_WORKLOAD_LOG_VIEW_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "workload/binary_log.h"
#include "workload/feature_vec.h"
#include "workload/query_log.h"

namespace logr {

/// Read-only, non-owning view satisfied by QueryLog and MmapQueryLog.
/// Implicit construction keeps every QueryLog call site source-
/// compatible when an API moves from `const QueryLog&` to
/// `const LogView&`.
class LogView {
 public:
  /// Unbound view; every accessor is invalid until one of the binding
  /// constructors replaces it. Exists so owning structs (e.g. the
  /// pipeline context) can default-construct before binding.
  LogView() = default;
  LogView(const QueryLog& log) : log_(&log) {}          // NOLINT(runtime/explicit)
  LogView(const MmapQueryLog& log) : mmap_(&log) {}     // NOLINT(runtime/explicit)

  std::size_t NumDistinct() const {
    if (subset_) return subset_->size();
    return log_ ? log_->NumDistinct() : mmap_->NumDistinct();
  }
  std::uint64_t TotalQueries() const {
    if (subset_) return subset_total_;
    return log_ ? log_->TotalQueries() : mmap_->TotalQueries();
  }
  std::size_t NumFeatures() const {
    if (subset_) return subset_num_features_;
    return log_ ? log_->NumFeatures() : mmap_->NumFeatures();
  }
  std::uint64_t Multiplicity(std::size_t i) const {
    i = Map(i);
    return log_ ? log_->Multiplicity(i) : mmap_->Multiplicity(i);
  }

  /// Number of feature ids in distinct vector `i`.
  std::size_t VectorSize(std::size_t i) const {
    i = Map(i);
    return log_ ? log_->Vector(i).ids.size() : mmap_->VectorSize(i);
  }
  /// Span over vector `i`'s sorted feature ids — a borrowed pointer
  /// into the backing log's storage (heap vector or mapped column).
  const FeatureId* VectorIds(std::size_t i) const {
    i = Map(i);
    return log_ ? log_->Vector(i).ids.data() : mmap_->VectorIds(i);
  }
  /// Owning copy of vector `i`.
  FeatureVec VectorAt(std::size_t i) const;
  /// Sample SQL of vector `i` ("" when the backing log kept none).
  std::string_view SampleSql(std::size_t i) const {
    i = Map(i);
    return log_ ? std::string_view(log_->SampleSql(i)) : mmap_->SampleSql(i);
  }

  const Vocabulary& vocabulary() const {
    return log_ ? log_->vocabulary() : mmap_->vocabulary();
  }

  /// Builds an owning sub-log of the given distinct-vector indices
  /// (vectors, counts, sample SQL, a vocabulary copy, the dedup index)
  /// through QueryLog::FromColumns — the per-component logs the refine /
  /// pattern encoders mine and the per-shard logs `split` writes. Reads
  /// only the view's columns, so every backing yields the same log.
  /// Indices must be distinct (FromColumns CHECK-fails on duplicates).
  QueryLog MaterializeSubset(const std::vector<std::size_t>& indices) const;

  /// Owning copy of the whole view: MaterializeSubset over every row.
  QueryLog Materialize() const;

  /// Non-owning window over a subset of this view's distinct vectors:
  /// row i of the subview is row indices[i] of this view. The subview
  /// reports the same vocabulary and the feature universe
  /// MaterializeSubset would (max of the vocabulary size and the
  /// windowed rows' largest id + 1), with totals computed once here — so
  /// a pipeline run over the subview is bit-identical to one over the
  /// materialized subset. Borrows `indices` alongside the backing log;
  /// both must outlive the subview and every copy of it. Subviews do not
  /// nest.
  LogView Subview(const std::vector<std::size_t>& indices) const;

  /// Packs the view's vectors into a PackedVecPool straight from the
  /// id spans — no intermediate FeatureVec copies.
  PackedVecPool Pack() const;

 private:
  /// Base row index behind subview row `i` (identity for full views).
  std::size_t Map(std::size_t i) const {
    return subset_ ? (*subset_)[i] : i;
  }

  const QueryLog* log_ = nullptr;
  const MmapQueryLog* mmap_ = nullptr;
  /// Borrowed subset window (null = the whole backing log), plus the
  /// aggregate columns cached at Subview() time so the hot accessors
  /// stay O(1).
  const std::vector<std::size_t>* subset_ = nullptr;
  std::uint64_t subset_total_ = 0;
  std::size_t subset_num_features_ = 0;
};

}  // namespace logr

#endif  // LOGR_WORKLOAD_LOG_VIEW_H_
