#include "workload/binary_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <unordered_set>

#include "util/bytes.h"
#include "util/check.h"
#include "util/file_io.h"

namespace logr {

namespace {

/// What a writer stores in the summary trailer's reserved slots.
constexpr std::uint64_t kReservedSummarySlot = UINT64_MAX;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "binary log: " + message;
  return false;
}

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

/// Returns false unless [off, off + size) lies inside [kHeaderSize,
/// file_size) without overflow.
bool SectionInBounds(std::uint64_t off, std::uint64_t size,
                     std::uint64_t file_size) {
  return off >= kBinaryLogHeaderSize && off <= file_size &&
         size <= file_size - off;
}

}  // namespace

std::uint64_t BinaryLogChecksum(const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

// ----------------------------------------------------------------- writer

bool BinaryLogWriter::Write(const QueryLog& log,
                            const DatasetSummary& summary, std::ostream* out,
                            std::string* error) {
  if (!HostIsLittleEndian()) {
    // Mirror the reader's guard: a native-order image written here
    // would be unreadable everywhere, so fail instead of "succeeding".
    return Fail(error, "big-endian hosts are not supported by logr-log v1");
  }
  const std::size_t n = log.NumDistinct();
  std::uint64_t num_ids = 0;
  for (std::size_t i = 0; i < n; ++i) num_ids += log.Vector(i).size();

  // Payload sections, each 8-byte aligned relative to the header end.
  std::string payload;
  payload.reserve(16 * n + 4 * num_ids);

  const std::uint64_t offsets_off = kBinaryLogHeaderSize;
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    AppendU64(&payload, running);
    running += log.Vector(i).size();
  }
  AppendU64(&payload, running);

  const std::uint64_t ids_off = kBinaryLogHeaderSize + payload.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (FeatureId f : log.Vector(i).ids) AppendU32(&payload, f);
  }
  PadTo8(&payload);

  const std::uint64_t counts_off = kBinaryLogHeaderSize + payload.size();
  for (std::size_t i = 0; i < n; ++i) AppendU64(&payload, log.Multiplicity(i));

  const Vocabulary& vocab = log.vocabulary();
  const std::uint64_t vocab_off = kBinaryLogHeaderSize + payload.size();
  for (FeatureId f = 0; f < vocab.size(); ++f) {
    const Feature& feat = vocab.Get(f);
    AppendU8(&payload, static_cast<std::uint8_t>(feat.clause));
    AppendU32(&payload, static_cast<std::uint32_t>(feat.text.size()));
    payload.append(feat.text);
  }
  const std::uint64_t vocab_size =
      kBinaryLogHeaderSize + payload.size() - vocab_off;
  PadTo8(&payload);

  bool any_sql = false;
  for (std::size_t i = 0; i < n && !any_sql; ++i) {
    any_sql = !log.SampleSql(i).empty();
  }
  std::uint64_t sql_off = 0;
  std::uint64_t sql_size = 0;
  if (any_sql) {
    sql_off = kBinaryLogHeaderSize + payload.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& sql = log.SampleSql(i);
      AppendU32(&payload, static_cast<std::uint32_t>(sql.size()));
      payload.append(sql);
    }
    sql_size = kBinaryLogHeaderSize + payload.size() - sql_off;
    PadTo8(&payload);
  }

  const std::uint64_t summary_off = kBinaryLogHeaderSize + payload.size();
  AppendU32(&payload, static_cast<std::uint32_t>(summary.name.size()));
  payload.append(summary.name);
  AppendU64(&payload, summary.num_queries);
  AppendU64(&payload, summary.num_non_select);
  AppendU64(&payload, summary.num_parse_errors);
  AppendU64(&payload, kReservedSummarySlot);
  AppendU64(&payload, summary.num_distinct_no_const);
  AppendU64(&payload, kReservedSummarySlot);
  AppendU64(&payload, kReservedSummarySlot);
  AppendU64(&payload, summary.max_multiplicity);
  AppendU64(&payload, kReservedSummarySlot);
  AppendU64(&payload, summary.num_features_no_const);
  AppendF64(&payload, summary.avg_features_per_query);
  const std::uint64_t summary_size =
      kBinaryLogHeaderSize + payload.size() - summary_off;

  std::string header;
  header.reserve(kBinaryLogHeaderSize);
  header.append(kBinaryLogMagic, sizeof(kBinaryLogMagic));
  AppendU32(&header, kBinaryLogVersion);
  AppendU32(&header, 0);  // flags
  AppendU64(&header, kBinaryLogHeaderSize + payload.size());  // file_size
  AppendU64(&header, BinaryLogChecksum(payload.data(), payload.size()));
  AppendU64(&header, n);
  AppendU64(&header, log.TotalQueries());
  AppendU64(&header, num_ids);
  AppendU64(&header, vocab.size());
  AppendU64(&header, log.NumFeatures());
  AppendU64(&header, offsets_off);
  AppendU64(&header, ids_off);
  AppendU64(&header, counts_off);
  AppendU64(&header, vocab_off);
  AppendU64(&header, vocab_size);
  AppendU64(&header, sql_off);
  AppendU64(&header, sql_size);
  AppendU64(&header, summary_off);
  AppendU64(&header, summary_size);
  AppendU64(&header, 0);  // reserved
  LOGR_CHECK(header.size() == kBinaryLogHeaderSize);

  out->write(header.data(), static_cast<std::streamsize>(header.size()));
  out->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!*out) return Fail(error, "stream write failed");
  return true;
}

bool BinaryLogWriter::WriteFile(const std::string& path, const QueryLog& log,
                                const DatasetSummary& summary,
                                std::string* error) {
  // `Write` sets `error` itself; only the publish steps need the prefix.
  std::string why;
  if (WriteFileAtomically(
          path, "log",
          [&](std::ostream* out) { return Write(log, summary, out, error); },
          &why)) {
    return true;
  }
  if (!why.empty()) Fail(error, why);
  return false;
}

// ----------------------------------------------------------------- reader

MmapQueryLog::~MmapQueryLog() { Reset(); }

void MmapQueryLog::Reset() {
  if (map_ != nullptr) munmap(map_, map_size_);
  map_ = nullptr;
  map_size_ = 0;
  owned_.clear();
  owned_.shrink_to_fit();
  base_ = nullptr;
  size_ = 0;
  offsets_ = ids_ = counts_ = nullptr;
  num_distinct_ = 0;
  total_ = 0;
  num_ids_ = 0;
  num_features_ = 0;
  sqls_.clear();
  vocab_ = Vocabulary();
  summary_ = DatasetSummary();
}

bool MmapQueryLog::Adopt(const char* base, std::size_t size,
                         std::string* error) {
  base_ = base;
  size_ = size;
  if (Parse(error)) return true;
  Reset();
  return false;
}

bool MmapQueryLog::Parse(std::string* error) {
  if (!HostIsLittleEndian()) {
    return Fail(error, "big-endian hosts are not supported by logr-log v1");
  }
  if (size_ < kBinaryLogHeaderSize) {
    return Fail(error, "truncated: file smaller than the header");
  }
  if (std::memcmp(base_, kBinaryLogMagic, sizeof(kBinaryLogMagic)) != 0) {
    return Fail(error, "bad magic (not a logr-log file)");
  }
  const std::uint32_t version = LoadU32(base_ + 8);
  if (version != kBinaryLogVersion) {
    return Fail(error,
                "unsupported version " + std::to_string(version) +
                    " (reader supports v" +
                    std::to_string(kBinaryLogVersion) + ")");
  }
  if (LoadU32(base_ + 12) != 0) {
    return Fail(error, "reserved flags are nonzero");
  }
  const std::uint64_t file_size = LoadU64(base_ + 16);
  if (file_size != size_) {
    return Fail(error, "file size mismatch (header says " +
                           std::to_string(file_size) + ", file has " +
                           std::to_string(size_) + " bytes): truncated or "
                           "over-long file");
  }
  const std::uint64_t checksum = LoadU64(base_ + kBinaryLogChecksumOffset);
  const std::uint64_t actual = BinaryLogChecksum(
      base_ + kBinaryLogHeaderSize, size_ - kBinaryLogHeaderSize);
  if (actual != checksum) {
    return Fail(error, "payload checksum mismatch (file is corrupt)");
  }

  const std::uint64_t n = LoadU64(base_ + 32);
  total_ = LoadU64(base_ + 40);
  const std::uint64_t num_ids = LoadU64(base_ + 48);
  const std::uint64_t vocab_count = LoadU64(base_ + 56);
  const std::uint64_t num_features = LoadU64(base_ + 64);
  const std::uint64_t offsets_off = LoadU64(base_ + 72);
  const std::uint64_t ids_off = LoadU64(base_ + 80);
  const std::uint64_t counts_off = LoadU64(base_ + 88);
  const std::uint64_t vocab_off = LoadU64(base_ + 96);
  const std::uint64_t vocab_size = LoadU64(base_ + 104);
  const std::uint64_t sql_off = LoadU64(base_ + 112);
  const std::uint64_t sql_size = LoadU64(base_ + 120);
  const std::uint64_t summary_off = LoadU64(base_ + 128);
  const std::uint64_t summary_size = LoadU64(base_ + 136);

  // Column extents, guarded against multiplication overflow before the
  // bounds checks use them.
  if (n >= (std::numeric_limits<std::uint64_t>::max() / 8) - 1 ||
      num_ids >= std::numeric_limits<std::uint64_t>::max() / 4) {
    return Fail(error, "implausible vector/id counts");
  }
  const std::uint64_t offsets_bytes = (n + 1) * 8;
  const std::uint64_t ids_bytes = num_ids * 4;
  const std::uint64_t counts_bytes = n * 8;
  if (!SectionInBounds(offsets_off, offsets_bytes, size_) ||
      offsets_off % 8 != 0) {
    return Fail(error, "offset table out of bounds");
  }
  if (!SectionInBounds(ids_off, ids_bytes, size_) || ids_off % 4 != 0) {
    return Fail(error, "id column out of bounds");
  }
  if (!SectionInBounds(counts_off, counts_bytes, size_) ||
      counts_off % 8 != 0) {
    return Fail(error, "count column out of bounds");
  }
  if (!SectionInBounds(vocab_off, vocab_size, size_)) {
    return Fail(error, "vocabulary block out of bounds");
  }
  if (sql_off != 0 && !SectionInBounds(sql_off, sql_size, size_)) {
    return Fail(error, "sample-SQL block out of bounds");
  }
  if (!SectionInBounds(summary_off, summary_size, size_)) {
    return Fail(error, "summary block out of bounds");
  }

  num_distinct_ = static_cast<std::size_t>(n);
  num_ids_ = num_ids;
  offsets_ = base_ + offsets_off;
  ids_ = base_ + ids_off;
  counts_ = base_ + counts_off;

  // Offsets: zero-based, nondecreasing, ending exactly at num_ids.
  if (LoadU64(offsets_) != 0) {
    return Fail(error, "offset table does not start at 0");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (LoadU64(offsets_ + 8 * i) > LoadU64(offsets_ + 8 * (i + 1))) {
      return Fail(error, "offset table is not nondecreasing");
    }
  }
  if (LoadU64(offsets_ + 8 * n) != num_ids) {
    return Fail(error, "offset table does not cover the id column");
  }

  // Ids: strictly ascending within each vector, all below num_features;
  // vectors pairwise distinct (their raw byte spans are compared).
  std::uint64_t max_id_bound = 0;  // largest id + 1
  std::unordered_set<std::string_view> seen_vectors;
  seen_vectors.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t begin = LoadU64(offsets_ + 8 * i);
    const std::uint64_t end = LoadU64(offsets_ + 8 * (i + 1));
    std::uint32_t prev = 0;
    for (std::uint64_t j = begin; j < end; ++j) {
      const std::uint32_t id = LoadU32(ids_ + 4 * j);
      if (j > begin && id <= prev) {
        return Fail(error, "vector ids are not strictly ascending");
      }
      prev = id;
      if (id >= num_features) {
        return Fail(error, "feature id " + std::to_string(id) +
                               " out of range (num_features " +
                               std::to_string(num_features) + ")");
      }
      if (static_cast<std::uint64_t>(id) + 1 > max_id_bound) {
        max_id_bound = static_cast<std::uint64_t>(id) + 1;
      }
    }
    std::string_view span(ids_ + 4 * begin,
                          static_cast<std::size_t>(4 * (end - begin)));
    if (!seen_vectors.insert(span).second) {
      return Fail(error, "duplicate distinct vectors");
    }
  }

  // Counts: positive, summing exactly to total_queries.
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t c = LoadU64(counts_ + 8 * i);
    if (c == 0) return Fail(error, "zero multiplicity");
    sum += c;
    if (sum < c) return Fail(error, "multiplicity sum overflows");
  }
  if (sum != total_) {
    return Fail(error, "multiplicities do not sum to total_queries");
  }

  // Vocabulary block: exactly vocab_count entries, interning to dense
  // ids 0..vocab_count-1 (a repeated feature would intern short).
  {
    const char* p = base_ + vocab_off;
    const char* limit = p + vocab_size;
    for (std::uint64_t f = 0; f < vocab_count; ++f) {
      if (limit - p < 5) return Fail(error, "truncated vocabulary block");
      Feature feat;
      if (!ClauseFromCode(static_cast<std::uint8_t>(*p), &feat.clause)) {
        return Fail(error, "invalid feature clause byte");
      }
      const std::uint32_t len = LoadU32(p + 1);
      p += 5;
      if (static_cast<std::uint64_t>(limit - p) < len) {
        return Fail(error, "truncated vocabulary block");
      }
      feat.text.assign(p, p + len);
      p += len;
      if (vocab_.Intern(feat) != f) {
        return Fail(error, "duplicate feature in vocabulary: " + feat.text);
      }
    }
    if (p != limit) return Fail(error, "vocabulary block has trailing bytes");
  }

  if (num_features !=
      std::max<std::uint64_t>(vocab_count, max_id_bound)) {
    return Fail(error, "num_features inconsistent with vocabulary and ids");
  }
  num_features_ = static_cast<std::size_t>(num_features);

  // Sample-SQL block: one length-prefixed string per vector, or absent.
  if (sql_off != 0) {
    const char* p = base_ + sql_off;
    const char* limit = p + sql_size;
    sqls_.reserve(num_distinct_);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (limit - p < 4) return Fail(error, "truncated sample-SQL block");
      const std::uint32_t len = LoadU32(p);
      p += 4;
      if (static_cast<std::uint64_t>(limit - p) < len) {
        return Fail(error, "truncated sample-SQL block");
      }
      sqls_.emplace_back(p, len);
      p += len;
    }
    if (p != limit) {
      return Fail(error, "sample-SQL block has trailing bytes");
    }
  }

  // Summary trailer.
  {
    const char* p = base_ + summary_off;
    const char* limit = p + summary_size;
    if (limit - p < 4) return Fail(error, "truncated summary block");
    const std::uint32_t name_len = LoadU32(p);
    p += 4;
    if (static_cast<std::uint64_t>(limit - p) < name_len) {
      return Fail(error, "truncated summary block");
    }
    summary_.name.assign(p, name_len);
    p += name_len;
    if (limit - p != 10 * 8 + 8) {
      return Fail(error, "summary block has the wrong size");
    }
    // Offsets 24, 40, 48 and 64 are reserved slots, skipped.
    summary_.num_queries = LoadU64(p + 0);
    summary_.num_non_select = LoadU64(p + 8);
    summary_.num_parse_errors = LoadU64(p + 16);
    summary_.num_distinct_no_const = LoadU64(p + 32);
    summary_.max_multiplicity = LoadU64(p + 56);
    summary_.num_features_no_const = LoadU64(p + 72);
    summary_.avg_features_per_query = LoadF64(p + 80);
    if (!std::isfinite(summary_.avg_features_per_query) ||
        summary_.avg_features_per_query < 0.0) {
      return Fail(error, "summary avg_features_per_query not finite and "
                         "non-negative");
    }
  }
  return true;
}

bool MmapQueryLog::Open(const std::string& path, MmapQueryLog* out,
                        std::string* error) {
  return Open(path, BinaryLogReadOptions(), out, error);
}

bool MmapQueryLog::Open(const std::string& path,
                        const BinaryLogReadOptions& options,
                        MmapQueryLog* out, std::string* error) {
  out->Reset();
  if (options.prefer_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Fail(error, "cannot open for reading: " + path);
    struct stat st;
    if (fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Fail(error, "cannot stat: " + path);
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return Fail(error, "truncated: file smaller than the header");
    }
    void* map = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map != MAP_FAILED) {
      out->map_ = map;
      out->map_size_ = size;
      return out->Adopt(static_cast<const char*>(map), size, error);
    }
    // Some filesystems (FUSE/network mounts) refuse mmap; fall through
    // to the eager read — the documented fallback — instead of failing.
  }
  // Eager fallback: read the whole file into memory.
  std::string why;
  if (!ReadWholeFile(path, &out->owned_, &why)) return Fail(error, why);
  return out->Adopt(out->owned_.data(), out->owned_.size(), error);
}

bool MmapQueryLog::OpenBuffer(const void* data, std::size_t size,
                              MmapQueryLog* out, std::string* error) {
  out->Reset();
  const char* p = static_cast<const char*>(data);
  out->owned_.assign(p, p + size);
  return out->Adopt(out->owned_.data(), out->owned_.size(), error);
}

std::uint64_t MmapQueryLog::Multiplicity(std::size_t i) const {
  LOGR_CHECK(i < num_distinct_);
  return LoadU64(counts_ + 8 * i);
}

std::size_t MmapQueryLog::VectorSize(std::size_t i) const {
  LOGR_CHECK(i < num_distinct_);
  return static_cast<std::size_t>(LoadU64(offsets_ + 8 * (i + 1)) -
                                  LoadU64(offsets_ + 8 * i));
}

const FeatureId* MmapQueryLog::VectorIds(std::size_t i) const {
  LOGR_CHECK(i < num_distinct_);
  // The id column starts 4-byte aligned (section offsets are validated),
  // so in-place u32 access is aligned.
  return reinterpret_cast<const FeatureId*>(ids_ +
                                            4 * LoadU64(offsets_ + 8 * i));
}

std::string_view MmapQueryLog::SampleSql(std::size_t i) const {
  LOGR_CHECK(i < num_distinct_);
  if (sqls_.empty()) return {};
  return std::string_view(sqls_[i].first, sqls_[i].second);
}

std::uint64_t MmapQueryLog::CountContaining(const FeatureVec& b) const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < num_distinct_; ++i) {
    if (ContainsAll(VectorIds(i), VectorSize(i), b)) count += Multiplicity(i);
  }
  return count;
}

// ------------------------------------------------------------ free helpers

bool IsBinaryLogFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kBinaryLogMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kBinaryLogMagic, sizeof(magic)) == 0;
}

bool ListBinaryLogShards(const std::string& dir,
                         std::vector<std::string>* paths,
                         std::string* error) {
  paths->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (error) *error = "cannot read directory " + dir;
    return false;
  }
  const std::string suffix = ".logrl";
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string path =
        dir.empty() || dir.back() == '/' ? dir + name : dir + "/" + name;
    if (IsBinaryLogFile(path)) paths->push_back(path);
  }
  ::closedir(d);
  std::sort(paths->begin(), paths->end());
  return true;
}

}  // namespace logr
