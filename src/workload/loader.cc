#include "workload/loader.h"

#include "sql/parser.h"
#include "sql/printer.h"
#include "util/check.h"
#include "workload/binary_log.h"

namespace logr {

namespace {

/// Everything the fold needs from one queued SELECT, computed on the pool.
struct PreparedSelect {
  sql::RegularizeInfo info;
  std::string canonical;  // constant-free printed form
  std::vector<Feature> features;
  std::string with_const;  // printed with constants
  std::vector<Feature> with_const_features;
};

PreparedSelect Prepare(std::string_view raw_sql,
                       const LogLoader::Options& opts) {
  sql::ParseResult parsed = sql::Parse(raw_sql);
  LOGR_CHECK(parsed.ok());  // AddSql queued it as a valid SELECT
  PreparedSelect p;

  // Primary pass: constant-free regularization feeding the QueryLog.
  sql::StatementPtr regular =
      sql::Regularize(*parsed.statement, opts.regularize, &p.info);
  p.canonical = sql::PrintStatement(*regular);
  p.features = ListFeatures(*regular, opts.extract);

  // Secondary pass: with-constants statistics (Table 1 columns
  // "# Distinct queries" and "# Distinct features").
  if (opts.track_with_constant_stats) {
    sql::RegularizeOptions keep_consts = opts.regularize;
    keep_consts.anonymize_constants = false;
    sql::StatementPtr with_const =
        sql::Regularize(*parsed.statement, keep_consts, nullptr);
    p.with_const = sql::PrintStatement(*with_const);
    p.with_const_features = ListFeatures(*with_const, opts.extract);
  }
  return p;
}

}  // namespace

LogLoader::LogLoader(Options opts) : opts_(std::move(opts)) {}

bool LogLoader::AddSql(std::string_view raw_sql, std::uint64_t count) {
  if (count == 0) return false;  // zero occurrences: nothing to record
  sql::ParseResult parsed = sql::Parse(raw_sql);
  if (parsed.kind == sql::StatementKind::kParseError) {
    num_parse_errors_ += count;
    return false;
  }
  if (!parsed.ok()) {
    num_non_select_ += count;
    return false;
  }
  num_queries_ += count;
  pending_.push_back({std::string(raw_sql), count});
  if (pending_.size() >= kBatchLines) Flush();
  return true;
}

void LogLoader::Flush() const {
  if (pending_.empty()) return;
  std::vector<PreparedSelect> prepared(pending_.size());
  ThreadPool* pool = opts_.pool ? opts_.pool : ThreadPool::Shared();
  ParallelFor(pool, 0, pending_.size(), kFineGrain, [&](std::size_t i) {
    prepared[i] = Prepare(pending_[i].sql, opts_);
  });

  // Serial fold in input order: interning order fixes the feature ids and
  // Add order fixes the distinct-vector order and sample SQL.
  // Long-lived strings are copied, not moved, out of `prepared`: a copy is
  // made only for a new distinct entry, and it keeps the workers' malloc
  // arenas holding nothing but this batch's scratch.
  Vocabulary* vocab = log_.mutable_vocabulary();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const PreparedSelect& p = prepared[i];
    distinct_no_const_.insert(p.canonical);
    if (p.info.conjunctive) distinct_conjunctive_.insert(p.canonical);
    if (p.info.rewritable) distinct_rewritable_.insert(p.canonical);

    std::vector<FeatureId> ids;
    ids.reserve(p.features.size());
    for (const Feature& f : p.features) ids.push_back(vocab->Intern(f));
    log_.Add(FeatureVec(std::move(ids)), pending_[i].count,
             std::move(pending_[i].sql));

    if (opts_.track_with_constant_stats) {
      distinct_with_const_.insert(p.with_const);
      for (const Feature& f : p.with_const_features) {
        with_const_vocab_.Intern(f);
      }
    }
  }
  pending_.clear();
}

bool LogLoader::WriteBinary(const std::string& path,
                            const std::string& dataset_name,
                            std::string* error) const {
  return BinaryLogWriter::WriteFile(path, log(), Summary(dataset_name), error);
}

DatasetSummary LogLoader::Summary(std::string name) const {
  Flush();
  DatasetSummary s;
  s.name = std::move(name);
  s.num_queries = num_queries_;
  s.num_non_select = num_non_select_;
  s.num_parse_errors = num_parse_errors_;
  s.num_distinct = opts_.track_with_constant_stats
                       ? distinct_with_const_.size()
                       : distinct_no_const_.size();
  s.num_distinct_no_const = distinct_no_const_.size();
  s.num_distinct_conjunctive = distinct_conjunctive_.size();
  s.num_distinct_rewritable = distinct_rewritable_.size();
  s.max_multiplicity = log_.MaxMultiplicity();
  s.num_features = opts_.track_with_constant_stats ? with_const_vocab_.size()
                                                   : log_.NumFeatures();
  s.num_features_no_const = log_.NumFeatures();
  s.avg_features_per_query = log_.AvgFeaturesPerQuery();
  return s;
}

}  // namespace logr
