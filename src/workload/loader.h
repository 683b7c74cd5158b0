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

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sql/normalizer.h"
#include "util/thread_pool.h"
#include "workload/extractor.h"
#include "workload/query_log.h"

namespace logr {

/// Table 1 of the paper, computed over everything fed to a LogLoader.
struct DatasetSummary {
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
    /// features including literal values). Costs a second regularization
    /// pass per query; disable for pure compression workloads.
    bool track_with_constant_stats = true;
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

  /// Processes the queued lines on the pool and folds them in order.
  void Flush() const;

  Options opts_;
  // Folded state: the const readers fold the pending batch, so all of it
  // is mutable.
  mutable std::vector<PendingLine> pending_;
  mutable QueryLog log_;
  // Only ever counted, so each holds its full strings and nothing else:
  // Vocabulary::Key for the with-constants features, printed statements
  // for the distinct-query sets.
  mutable std::unordered_set<std::string> with_const_features_;
  mutable std::unordered_set<std::string> distinct_with_const_;
  mutable std::unordered_set<std::string> distinct_no_const_;
  mutable std::unordered_set<std::string> distinct_conjunctive_;
  mutable std::unordered_set<std::string> distinct_rewritable_;
  mutable std::uint64_t num_queries_ = 0;
  mutable std::uint64_t num_non_select_ = 0;
  mutable std::uint64_t num_parse_errors_ = 0;
};

}  // namespace logr

#endif  // LOGR_WORKLOAD_LOADER_H_
