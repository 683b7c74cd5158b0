// Raw-SQL-to-QueryLog loading funnel.
//
// The paper's bank log contains 73M operations of which 58M are stored
// procedures, 13M are unparseable, and 1.25M are valid SELECTs (Sec. 7).
// LogLoader reproduces that funnel: every input line is classified
// (SELECT / non-SELECT / parse error), regularized, feature-extracted, and
// accumulated into the constant-free log, with counters for each stage.
// Table 1's with-constants and conjunctive/rewritable columns describe
// the datasets only; the paper programs compute them with
// Table1Statistics (data/table1.h).
#ifndef LOGR_WORKLOAD_LOADER_H_
#define LOGR_WORKLOAD_LOADER_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sql/parser.h"
#include "util/thread_pool.h"
#include "workload/extractor.h"
#include "workload/query_log.h"

namespace logr {

/// The Table-1 statistics of everything fed to a LogLoader: the funnel
/// and the constant-free log's shape.
struct DatasetSummary {
  std::string name;
  std::uint64_t num_queries = 0;              // valid SELECTs
  std::uint64_t num_non_select = 0;           // stored procs / DML / DDL
  std::uint64_t num_parse_errors = 0;
  std::uint64_t num_distinct_no_const = 0;    // distinct w/o constants
  std::uint64_t max_multiplicity = 0;
  std::uint64_t num_features_no_const = 0;
  double avg_features_per_query = 0.0;
};

/// Streaming loader: feed SQL strings, then take the QueryLog + summary.
///
/// AddSql does no SQL work: it queues the raw line and its count. Every
/// kBatchLines queued lines, and before any reader returns, the batch is
/// processed on a ThreadPool and folded into the log and the funnel
/// counters serially in input order. Feature ids, vector order, sample
/// SQL and every output byte are therefore the same for any pool size. A
/// pass's last partial batch is folded by the first reader, usually
/// Summary().
///
/// The workers lex each line into its TemplateKey and look the key up
/// among the keys already folded. Only the first line of each new key in
/// a batch is parsed, classified, regularized and featurized (once per
/// new key); every other line reuses that line's kind and template.
///
/// The fold keeps one record per constant-free template, keyed by its
/// canonical print: the first line of a template interns its features
/// and stores the vector, and every later line costs one hash lookup.
/// The print is injective (Parse(Print(ast)) round-trips), so equal
/// prints have equal feature lists, and the workers skip featurizing a
/// template an earlier batch already folded.
///
/// A pooled ParallelFor is not reentrant, so a LogLoader must not be
/// driven from inside a pool task. Not thread-safe: the const readers
/// fold the pending batch too.
class LogLoader {
 public:
  struct Options {
    ExtractOptions extract;
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

  struct PreparedLine;

  /// What the fold learned from the first line of one template key.
  struct KeyedLine {
    sql::StatementKind kind = sql::StatementKind::kParseError;
    /// The template's interned features (a node of `templates_`, whose
    /// address never moves) for a SELECT, else null.
    const FeatureVec* features = nullptr;
  };

  /// Processes the queued lines on the pool and folds them in order.
  void Flush() const;

  Options opts_;
  // Folded state: the const readers fold the pending batch, so all of it
  // is mutable.
  mutable std::vector<PendingLine> pending_;
  mutable QueryLog log_;
  // One record per constant-free template: its canonical print and its
  // interned features.
  mutable std::unordered_map<std::string, FeatureVec> templates_;
  // One record per TemplateKey folded so far. Workers only read it; the
  // fold alone inserts.
  mutable std::unordered_map<std::string, KeyedLine> keys_;
  mutable std::uint64_t num_queries_ = 0;
  mutable std::uint64_t num_non_select_ = 0;
  mutable std::uint64_t num_parse_errors_ = 0;
};

/// The template key of `sql`: a byte string over its tokens such that
/// lines with equal keys parse to the same statement kind and, for a
/// SELECT, to the same constant-free canonical print. Each token adds a
/// tag and, where the key keeps it, length-prefixed text, so two token
/// walks never give the same bytes:
///   - identifiers keep their ASCII-lowercased text, as
///     sql::LowercaseIdentifiers lowercases them;
///   - keywords keep their id; operators and parameters their text;
///   - integer, float and string literals before the first LIMIT or
///     OFFSET keyword share one tag and keep no text: the parser makes
///     all three a literal and sql::AnonymizeConstants prints each as
///     `?`. From that keyword on, a literal keeps its type and text,
///     since LIMIT and OFFSET constants stay in the print;
///   - a lex error ends the walk with its own tag. Such a line never
///     parses as a SELECT, and its kind depends only on its first token.
std::string TemplateKey(std::string_view sql);

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
/// bits, the counts summed over the log would pass UINT64_MAX, or the
/// stream fails to read (a directory, an I/O error).
bool ReadTextLog(std::istream& in,
                 const std::function<void(std::string_view sql,
                                          std::uint64_t count)>& add,
                 std::string* error);

}  // namespace logr

#endif  // LOGR_WORKLOAD_LOADER_H_
