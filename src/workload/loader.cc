#include "workload/loader.h"

#include <istream>

#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "workload/binary_log.h"

namespace logr {

/// Everything the fold needs from one queued line, computed on the pool.
/// Only `kind` is set unless the line is a valid SELECT.
struct LogLoader::PreparedLine {
  sql::StatementKind kind = sql::StatementKind::kParseError;
  std::string canonical;  // constant-free printed form
  std::vector<Feature> features;
};

LogLoader::LogLoader(Options opts) : opts_(std::move(opts)) {}

void LogLoader::AddSql(std::string_view raw_sql, std::uint64_t count) {
  if (count == 0) return;  // zero occurrences: nothing to record
  pending_.push_back({std::string(raw_sql), count});
  if (pending_.size() >= kBatchLines) Flush();
}

void LogLoader::Flush() const {
  if (pending_.empty()) return;
  std::vector<PreparedLine> prepared(pending_.size());
  ThreadPool* pool = opts_.pool ? opts_.pool : ThreadPool::Shared();
  ParallelFor(pool, 0, pending_.size(), kFineGrain, [&](std::size_t i) {
    PreparedLine& p = prepared[i];
    sql::ParseResult parsed = sql::Parse(pending_[i].sql);
    p.kind = parsed.kind;
    if (!parsed.ok()) return;
    sql::StatementPtr regular = sql::Regularize(
        std::move(parsed.statement), sql::RegularizeOptions(), nullptr);
    p.canonical = sql::PrintStatement(*regular);
    // A template folded by an earlier batch already has its features:
    // the fold only needs them for a template it has not seen. Workers
    // only read `templates_`; the fold alone writes it, after this loop.
    if (templates_.count(p.canonical) == 0) {
      p.features = ListFeatures(*regular, opts_.extract);
    }
  });

  // Serial fold in input order: interning order fixes the feature ids and
  // Add order fixes the distinct-vector order and sample SQL.
  Vocabulary* vocab = log_.mutable_vocabulary();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const PreparedLine& p = prepared[i];
    const std::uint64_t count = pending_[i].count;
    if (p.kind == sql::StatementKind::kParseError) {
      num_parse_errors_ += count;
      continue;
    }
    if (p.kind != sql::StatementKind::kSelect) {
      num_non_select_ += count;
      continue;
    }
    num_queries_ += count;
    auto [it, fresh] = templates_.try_emplace(p.canonical);
    if (fresh) {
      std::vector<FeatureId> ids;
      ids.reserve(p.features.size());
      for (const Feature& f : p.features) ids.push_back(vocab->Intern(f));
      it->second = FeatureVec(std::move(ids));
    }
    log_.Add(it->second, count, std::move(pending_[i].sql));
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
  s.num_distinct_no_const = templates_.size();
  s.max_multiplicity = log_.MaxMultiplicity();
  s.num_features_no_const = log_.NumFeatures();
  s.avg_features_per_query = log_.AvgFeaturesPerQuery();
  return s;
}

bool SplitCountPrefix(std::string_view line, std::string_view* sql,
                      std::uint64_t* count) {
  const std::size_t tab = line.find('\t');
  const std::string_view prefix = line.substr(0, tab);
  if (tab == std::string_view::npos || prefix.empty() ||
      prefix.find_first_not_of("0123456789") != std::string_view::npos) {
    *sql = line;
    *count = 1;
    return true;
  }
  if (!ParseUint64(prefix, 0, UINT64_MAX, count)) return false;
  *sql = line.substr(tab + 1);
  return true;
}

bool ReadTextLog(std::istream& in,
                 const std::function<void(std::string_view sql,
                                          std::uint64_t count)>& add,
                 std::string* error) {
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::string_view sql;
    std::uint64_t count = 0;
    if (!SplitCountPrefix(line, &sql, &count)) {
      *error = StrFormat("line %llu: count %s does not fit in 64 bits",
                         static_cast<unsigned long long>(line_no),
                         line.substr(0, line.find('\t')).c_str());
      return false;
    }
    if (count > UINT64_MAX - total) {
      *error = StrFormat(
          "line %llu: count %llu takes the log's total past %llu",
          static_cast<unsigned long long>(line_no),
          static_cast<unsigned long long>(count),
          static_cast<unsigned long long>(UINT64_MAX));
      return false;
    }
    total += count;
    add(sql, count);
  }
  return true;
}

}  // namespace logr
