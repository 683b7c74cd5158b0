// Binary columnar query-log format: "logr-log v1" (extension .logrl).
//
// The text funnel (workload/loader.h) re-lexes, re-parses, and
// re-regularizes every SQL statement on every run, which dominates
// wall-clock on large logs. This format persists the *result* of that
// funnel — the QueryLog's distinct vectors and multiplicities, the
// interned Vocabulary, and the Table-1 DatasetSummary — as flat columns
// that an mmap-backed reader serves without touching the SQL again.
//
// Layout (all integers little-endian; every section starts 8-byte
// aligned, so mapped columns can be read in place):
//
//   header (152 bytes):
//     off   0  magic          8 bytes  "logrlog1"
//     off   8  version        u32      1
//     off  12  flags          u32      0 (reserved; nonzero rejected)
//     off  16  file_size      u64      total bytes (rejects truncation)
//     off  24  checksum       u64      FNV-1a 64 over [152, file_size)
//     off  32  num_distinct   u64      N, distinct vectors
//     off  40  total_queries  u64      multiplicity-weighted total
//     off  48  num_ids        u64      M, id entries across all vectors
//     off  56  vocab_count    u64      interned features
//     off  64  num_features   u64      max(vocab_count, largest id + 1)
//     off  72  offsets_off    u64      -> u64[N + 1] prefix offsets
//     off  80  ids_off        u64      -> u32[M] concatenated ids,
//                                         strictly ascending per vector
//     off  88  counts_off     u64      -> u64[N] multiplicities (all > 0)
//     off  96  vocab_off      u64      -> per feature: u8 clause,
//                                         u32 len, text bytes
//     off 104  vocab_size     u64
//     off 112  sql_off        u64      -> per vector: u32 len, bytes
//                                         (0 = no sample-SQL block)
//     off 120  sql_size       u64
//     off 128  summary_off    u64      -> DatasetSummary trailer
//     off 136  summary_size   u64
//     off 144  reserved       u64      0
//
//   summary trailer: u32 name len, name bytes, then ten u64 slots and an
//   f64, at offsets counted from the end of the name:
//     off   0  num_queries            off  40  reserved
//     off   8  num_non_select         off  48  reserved
//     off  16  num_parse_errors       off  56  max_multiplicity
//     off  24  reserved               off  64  reserved
//     off  32  num_distinct_no_const  off  72  num_features_no_const
//     off  80  avg_features_per_query (f64)
//   The reserved slots once held Table 1's with-constants and
//   conjunctive/rewritable counts. Writers store UINT64_MAX there and
//   readers ignore them, so files that still carry those counts open.
//
// Vector i's feature ids are ids[offsets[i] .. offsets[i+1]). The header
// itself is not checksummed, so structural fields (counts, bounds,
// section offsets) are fully re-validated on load; the payload checksum
// catches bit rot in the columns. Readers fail loudly — never crash,
// never silently load — on truncation, bad magic/version, out-of-range
// or unsorted feature ids, offset tables past EOF, duplicate vectors or
// vocabulary entries, zero counts, and checksum mismatches.
#ifndef LOGR_WORKLOAD_BINARY_LOG_H_
#define LOGR_WORKLOAD_BINARY_LOG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/loader.h"
#include "workload/query_log.h"

namespace logr {

inline constexpr char kBinaryLogMagic[8] = {'l', 'o', 'g', 'r',
                                            'l', 'o', 'g', '1'};
inline constexpr std::uint32_t kBinaryLogVersion = 1;
inline constexpr std::size_t kBinaryLogHeaderSize = 152;
/// Byte offset of the u64 payload checksum within the header (tests
/// patch payload bytes and re-stamp this slot).
inline constexpr std::size_t kBinaryLogChecksumOffset = 24;

/// FNV-1a 64 over `size` bytes — the payload checksum of the format.
std::uint64_t BinaryLogChecksum(const void* data, std::size_t size);

/// Serializes a loaded QueryLog + its Table-1 summary into the columnar
/// layout above.
class BinaryLogWriter {
 public:
  /// Writes to a stream. Returns false (and fills `error`) only on
  /// stream failure; any QueryLog, including an empty one, serializes.
  static bool Write(const QueryLog& log, const DatasetSummary& summary,
                    std::ostream* out, std::string* error);

  /// Writes to `path`, replacing any existing file atomically
  /// (WriteFileAtomically, util/file_io.h): a log already mapped from
  /// `path` keeps its bytes.
  static bool WriteFile(const std::string& path, const QueryLog& log,
                        const DatasetSummary& summary, std::string* error);
};

struct BinaryLogReadOptions {
  /// Map the file instead of reading it eagerly. When the filesystem
  /// refuses mmap (FUSE and network mounts), Open reads eagerly anyway.
  bool prefer_mmap = true;
};

/// Read-only query log served straight from a mapped (or, as a
/// fallback, eagerly read) .logrl file. It serves columns only — id
/// spans, multiplicities, sample SQL, vocabulary — which LogView wraps
/// so the compression pipeline runs on them without a heap copy and
/// without touching SQL. Statistics live on QueryLog: an owning copy is
/// `LogView(log).Materialize()`. An in-memory image opens through
/// OpenBuffer.
class MmapQueryLog {
 public:
  MmapQueryLog() = default;
  ~MmapQueryLog();
  MmapQueryLog(MmapQueryLog&&) = delete;
  MmapQueryLog& operator=(MmapQueryLog&&) = delete;
  MmapQueryLog(const MmapQueryLog&) = delete;
  MmapQueryLog& operator=(const MmapQueryLog&) = delete;

  /// Opens and fully validates `path`. On failure returns false, fills
  /// `error`, and leaves `out` empty. Uses mmap when available and
  /// requested; otherwise falls back to an eager read of the file.
  static bool Open(const std::string& path, MmapQueryLog* out,
                   std::string* error);
  static bool Open(const std::string& path,
                   const BinaryLogReadOptions& options, MmapQueryLog* out,
                   std::string* error);

  /// Validates an in-memory image (copied; no file involved). The
  /// corruption tests and the fuzz harness drive this directly.
  static bool OpenBuffer(const void* data, std::size_t size,
                         MmapQueryLog* out, std::string* error);

  /// True when the columns are served from an mmap'd region; false for
  /// the eager-read fallback (or a buffer open).
  bool mapped() const { return map_ != nullptr; }

  // --- column read API, served from the mapped columns ---
  std::size_t NumDistinct() const { return num_distinct_; }
  std::uint64_t TotalQueries() const { return total_; }
  std::size_t NumFeatures() const { return num_features_; }
  std::uint64_t Multiplicity(std::size_t i) const;
  /// Number of feature ids in vector `i`.
  std::size_t VectorSize(std::size_t i) const;
  /// Pointer into the mapped id column for vector `i` (zero copy).
  const FeatureId* VectorIds(std::size_t i) const;
  /// Sample SQL for vector `i` ("" when the block is absent).
  std::string_view SampleSql(std::size_t i) const;
  /// Γ_b over the mapped columns. Kept only because the end-to-end
  /// benchmark (bench/e2e/logr_e2e.cc) calls it for its count oracle;
  /// every other statistic lives on QueryLog. Delete once that program
  /// counts through a materialized log.
  std::uint64_t CountContaining(const FeatureVec& b) const;
  const Vocabulary& vocabulary() const { return vocab_; }
  /// The Table-1 statistics persisted at write time. The funnel counters
  /// are not recomputable from the log, which is why the trailer exists.
  const DatasetSummary& summary() const { return summary_; }

 private:
  void Reset();
  /// Serves the image [base, base + size) (mapped or owned_): validates
  /// it with Parse, or resets and returns false.
  bool Adopt(const char* base, std::size_t size, std::string* error);
  bool Parse(std::string* error);

  void* map_ = nullptr;  // mmap'd region; null for eager opens
  std::size_t map_size_ = 0;
  std::vector<char> owned_;  // eager-read / buffer fallback storage
  const char* base_ = nullptr;
  std::size_t size_ = 0;

  const char* offsets_ = nullptr;  // u64[N + 1]
  const char* ids_ = nullptr;      // u32[M]
  const char* counts_ = nullptr;   // u64[N]
  std::size_t num_distinct_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t num_ids_ = 0;
  std::size_t num_features_ = 0;
  std::vector<std::pair<const char*, std::uint32_t>> sqls_;
  Vocabulary vocab_;
  DatasetSummary summary_;
};

/// True when `path` starts with the .logrl magic (used by the CLI to
/// accept binary logs wherever text logs are accepted).
bool IsBinaryLogFile(const std::string& path);

/// Enumerates the binary log shards in a directory: every regular file
/// whose name ends in ".logrl" and whose leading bytes carry the
/// format magic, sorted by name so the shard order is stable across
/// filesystems. Returns false (and fills `error`) when the directory
/// cannot be read; an empty directory yields an empty list and true.
/// The coordinator (`logr_cli distribute DIR`) scatters exactly this
/// list.
bool ListBinaryLogShards(const std::string& dir,
                         std::vector<std::string>* paths,
                         std::string* error);

}  // namespace logr

#endif  // LOGR_WORKLOAD_BINARY_LOG_H_
