#include "workload/feature_vec.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "util/check.h"

namespace logr {

FeatureVec::FeatureVec(std::vector<FeatureId> raw_ids)
    : ids(std::move(raw_ids)) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

bool FeatureVec::Contains(FeatureId f) const {
  return std::binary_search(ids.begin(), ids.end(), f);
}

bool FeatureVec::ContainsAll(const FeatureVec& pattern) const {
  return logr::ContainsAll(ids.data(), ids.size(), pattern);
}

std::size_t FeatureVec::IntersectionSize(const FeatureVec& o) const {
  std::size_t count = 0;
  auto a = ids.begin();
  auto b = o.ids.begin();
  while (a != ids.end() && b != o.ids.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

FeatureVec FeatureVec::Union(const FeatureVec& a, const FeatureVec& b) {
  FeatureVec out;
  out.ids.reserve(a.ids.size() + b.ids.size());
  std::set_union(a.ids.begin(), a.ids.end(), b.ids.begin(), b.ids.end(),
                 std::back_inserter(out.ids));
  return out;
}

std::string FeatureVec::HashKey() const {
  std::string key(ids.size() * sizeof(FeatureId), '\0');
  if (!ids.empty()) {
    std::memcpy(key.data(), ids.data(), key.size());
  }
  return key;
}

namespace {
std::atomic<std::uint64_t> g_pool_builds{0};
}  // namespace

PackedVecPool::PackedVecPool(const std::vector<FeatureVec>& vecs,
                             std::size_t n_features) {
  Build(vecs.size(), n_features, [&vecs](std::size_t i) {
    return std::pair<const FeatureId*, std::size_t>(vecs[i].ids.data(),
                                                    vecs[i].ids.size());
  });
}

PackedVecPool::PackedVecPool(std::size_t count, std::size_t n_features,
                             const IdSpanFn& ids_of) {
  Build(count, n_features, ids_of);
}

void PackedVecPool::Build(std::size_t count, std::size_t n_features,
                          const IdSpanFn& ids_of) {
  g_pool_builds.fetch_add(1, std::memory_order_relaxed);
  count_ = count;
  words_ = (n_features + 63) / 64;
  n_features_ = n_features;
  data_.assign(count_ * words_, 0);
  bits_.assign(count_, 0);
  word_off_.assign(count_ + 1, 0);
  // Single pass over the ids: the id count upper-bounds the nonzero
  // word count, so reserving it keeps the push_backs allocation-free.
  std::size_t total_ids = 0;
  for (std::size_t i = 0; i < count_; ++i) total_ids += ids_of(i).second;
  word_idx_.reserve(total_ids);
  for (std::size_t i = 0; i < count_; ++i) {
    const auto span = ids_of(i);
    std::uint64_t* row = data_.data() + i * words_;
    std::uint64_t last_word = static_cast<std::uint64_t>(-1);
    for (std::size_t t = 0; t < span.second; ++t) {
      const FeatureId f = span.first[t];  // ids sorted => words ascending
      LOGR_DCHECK(f < n_features_);
      const std::uint64_t w = f >> 6;
      if (w != last_word) {
        word_idx_.push_back(static_cast<std::uint32_t>(w));
        last_word = w;
      }
      row[w] |= std::uint64_t{1} << (f & 63);
    }
    bits_[i] = static_cast<std::uint32_t>(span.second);
    max_bits_ = std::max<std::size_t>(max_bits_, bits_[i]);
    word_off_[i + 1] = word_idx_.size();
  }
  // Word-major copy + per-(word, row) popcounts for column sweeps.
  transposed_.resize(words_ * count_);
  pc8_.resize(words_ * count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const std::uint64_t* row = Row(i);
    for (std::size_t w = 0; w < words_; ++w) {
      transposed_[w * count_ + i] = row[w];
      pc8_[w * count_ + i] =
          static_cast<std::uint8_t>(__builtin_popcountll(row[w]));
    }
  }
}

std::uint64_t PackedVecPool::BuildCount() {
  return g_pool_builds.load(std::memory_order_relaxed);
}

std::size_t PackedVecPool::SymmetricDifference(std::size_t i,
                                               std::size_t j) const {
  // Drive from the row with fewer nonzero words; every word outside its
  // list contributes the other row's popcount there, pre-paid by the
  // bits() term.
  if (NumWordIndices(j) < NumWordIndices(i)) std::swap(i, j);
  const std::uint64_t* a = Row(i);
  const std::uint64_t* b = Row(j);
  const std::uint32_t* nzw = WordIndices(i);
  const std::size_t n_nzw = NumWordIndices(i);
  std::int64_t acc = 0;
  for (std::size_t t = 0; t < n_nzw; ++t) {
    const std::uint64_t x = b[nzw[t]];
    acc += __builtin_popcountll(a[nzw[t]] ^ x) - __builtin_popcountll(x);
  }
  return static_cast<std::size_t>(static_cast<std::int64_t>(bits_[j]) + acc);
}

std::size_t PackedVecPool::StorageWords(std::size_t count,
                                        std::size_t n_features) {
  // Row-major u64 data, its transposed copy and the u8 popcount plane,
  // plus the fixed per-row metadata (u32 popcount and the u64 CSR
  // offset with its +1 sentinel). The nonzero-word index list is
  // data-dependent (bounded by the id count, typically ~15 entries/row)
  // and deliberately excluded.
  const std::size_t words = count * ((n_features + 63) / 64);
  const std::size_t meta = (4 * count + 8 * (count + 1) + 7) / 8;
  return meta + 2 * words + (words + 7) / 8;
}

}  // namespace logr
