// Raw-SQL-to-QueryLog loading funnel with Table-1 statistics.
//
// The paper's bank log contains 73M operations of which 58M are stored
// procedures, 13M are unparseable, and 1.25M are valid SELECTs (Sec. 7).
// LogLoader reproduces that funnel: every input line is classified
// (SELECT / non-SELECT / parse error), regularized, feature-extracted, and
// accumulated, with counters for each stage and for the distinct-query /
// distinct-feature statistics reported in Table 1.
#ifndef LOGR_WORKLOAD_LOADER_H_
#define LOGR_WORKLOAD_LOADER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sql/normalizer.h"
#include "util/thread_pool.h"
#include "workload/extractor.h"
#include "workload/query_log.h"

namespace logr {

/// Table 1 of the paper, computed over everything fed to a LogLoader.
struct DatasetSummary {
  /// The value of `num_distinct` and `num_features` when the loader did
  /// not track the with-constants statistics. A .logrl stores it as the
  /// plain u64 it is.
  static constexpr std::uint64_t kNotTracked = UINT64_MAX;

  std::string name;
  std::uint64_t num_queries = 0;              // valid SELECTs
  std::uint64_t num_non_select = 0;           // stored procs / DML / DDL
  std::uint64_t num_parse_errors = 0;
  std::uint64_t num_distinct = 0;             // distinct with constants
  std::uint64_t num_distinct_no_const = 0;    // distinct w/o constants
  std::uint64_t num_distinct_conjunctive = 0; // conjunctive, w/o constants
  std::uint64_t num_distinct_rewritable = 0;  // rewritable, w/o constants
  std::uint64_t max_multiplicity = 0;
  std::uint64_t num_features = 0;             // with constants
  std::uint64_t num_features_no_const = 0;
  double avg_features_per_query = 0.0;
};

/// Streaming loader: feed SQL strings, then take the QueryLog + summary.
///
/// AddSql does no SQL work: it queues the raw line and its count. Every
/// kBatchLines queued lines, and before any reader returns, the batch is
/// parsed (once per line), classified, regularized and featurized on a
/// ThreadPool, then folded into the log and the funnel counters serially
/// in input order. Feature ids, vector order, sample SQL and every output
/// byte are therefore the same for any pool size. A pass's last partial
/// batch is folded by the first reader, usually Summary().
///
/// The fold keeps one record per constant-free template, keyed by its
/// canonical print: the first line of a template interns its features
/// and stores the vector, and every later line costs one hash lookup.
/// The print is injective (Parse(Print(ast)) round-trips), so equal
/// prints have equal feature lists, and the workers skip featurizing a
/// template an earlier batch already folded.
///
/// The with-constants statistics (Table 1's "# Distinct queries" and
/// "# Distinct features") are opt-in: only a caller that reports Table 1
/// sets Options::track_with_constant_stats. Compression reads only the
/// log and the funnel counters, and pays none of that work.
///
/// A pooled ParallelFor is not reentrant, so a LogLoader must not be
/// driven from inside a pool task. Not thread-safe: the const readers
/// fold the pending batch too.
class LogLoader {
 public:
  struct Options {
    sql::RegularizeOptions regularize;  // anonymize_constants applies to
                                        // the *primary* (w/o const) log
    ExtractOptions extract;
    /// Also maintain the with-constants statistics (distinct queries and
    /// features including literal values). Opt in for Table 1: it costs
    /// a statement clone and a second regularization, print and feature
    /// listing per SELECT, plus a pooled shard fill, all on the pool.
    /// Left off, Summary() reports DatasetSummary::kNotTracked in
    /// `num_distinct` and `num_features`.
    bool track_with_constant_stats = false;
    /// Pool the batched statement work runs on; nullptr selects
    /// ThreadPool::Shared(). Never changes results, only wall-clock.
    ThreadPool* pool = nullptr;
  };

  /// Lines queued per batch, whatever their kind: enough to amortize a
  /// pool dispatch, few enough that the queued raw text stays small.
  static constexpr std::size_t kBatchLines = 1024;

  LogLoader() : LogLoader(Options()) {}
  explicit LogLoader(Options opts);

  /// Queues one statement with `count` copies; the workers parse and
  /// classify it when its batch is folded. `count == 0` records nothing,
  /// not even a funnel classification: a zero-multiplicity log record
  /// carries no information, and counting its template as "distinct"
  /// would skew every Table-1 statistic.
  void AddSql(std::string_view raw_sql, std::uint64_t count = 1);

  /// Serializes the accumulated log plus the Table-1 summary (under
  /// `dataset_name`) as a logr-log v1 binary file (.logrl; see
  /// workload/binary_log.h). Reloading it skips the SQL parse stage.
  bool WriteBinary(const std::string& path, const std::string& dataset_name,
                   std::string* error) const;

  /// The accumulated constant-free log (the object all compression
  /// experiments run on).
  const QueryLog& log() const {
    Flush();
    return log_;
  }
  QueryLog TakeLog() {
    Flush();
    return std::move(log_);
  }

  /// Table-1 statistics for everything added so far.
  DatasetSummary Summary(std::string name) const;

 private:
  struct PendingLine {
    std::string sql;
    std::uint64_t count = 0;
  };

  /// One constant-free template: its interned features, and whether it
  /// has been counted as conjunctive / rewritable yet. A template counts
  /// once per flag, on the first line that sets it: `b IN (1, 2)` and
  /// `b = 3` share a canonical print but only the second is conjunctive.
  struct Template {
    FeatureVec features;
    bool conjunctive = false;
    bool rewritable = false;
  };

  /// A string with its hash, computed once on the pool: it picks the
  /// shard and is the shard's bucket hash, so no string is hashed twice.
  struct HashedString {
    std::string text;
    std::size_t hash = 0;
  };
  struct ByHash {
    std::size_t operator()(const HashedString& s) const { return s.hash; }
  };
  struct ByText {
    bool operator()(const HashedString& a, const HashedString& b) const {
      return a.text == b.text;
    }
  };
  using StringSet = std::unordered_set<HashedString, ByHash, ByText>;

  /// Shards of each with-constants set: enough to keep four workers busy
  /// on one batch, few enough that each shard task scans a batch cheaply.
  static constexpr std::size_t kShards = 16;
  struct ShardedSet {
    std::array<StringSet, kShards> shards;
    std::size_t size() const;
  };

  struct PreparedLine;

  /// Processes the queued lines on the pool and folds them in order.
  void Flush() const;

  Options opts_;
  // Folded state: the const readers fold the pending batch, so all of it
  // is mutable.
  mutable std::vector<PendingLine> pending_;
  mutable QueryLog log_;
  // Keyed by the canonical (constant-free) print.
  mutable std::unordered_map<std::string, Template> templates_;
  mutable std::uint64_t num_distinct_conjunctive_ = 0;
  mutable std::uint64_t num_distinct_rewritable_ = 0;
  // Only ever counted, so each holds its full strings and nothing else:
  // Vocabulary::Key for the with-constants features, printed statements
  // for the distinct queries.
  mutable ShardedSet with_const_features_;
  mutable ShardedSet distinct_with_const_;
  mutable std::uint64_t num_queries_ = 0;
  mutable std::uint64_t num_non_select_ = 0;
  mutable std::uint64_t num_parse_errors_ = 0;
};

/// Splits one line of a text log into its SQL text and count. The
/// format is one statement per line with an optional "COUNT<TAB>"
/// prefix: an all-digit prefix before the first tab is the count, and
/// anything else (no tab, an empty prefix, a space or a sign in it)
/// leaves the whole line as SQL with count 1. Returns false, with `sql`
/// and `count` unset, when an all-digit prefix does not fit in 64 bits.
bool SplitCountPrefix(std::string_view line, std::string_view* sql,
                      std::uint64_t* count);

/// Reads a text log from `in` and calls `add(sql, count)` for each
/// non-empty line, in order; a count of 0 is passed on too, and
/// LogLoader::AddSql skips it. CRLF line endings read as LF. Returns
/// false, with `error` naming the line, when a count does not fit in 64
/// bits or the counts summed over the log would pass UINT64_MAX.
bool ReadTextLog(std::istream& in,
                 const std::function<void(std::string_view sql,
                                          std::uint64_t count)>& add,
                 std::string* error);

}  // namespace logr

#endif  // LOGR_WORKLOAD_LOADER_H_
