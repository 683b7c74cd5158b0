#include "workload/loader.h"

#include <istream>

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
  sql::RegularizeInfo info;
  std::string canonical;  // constant-free printed form
  std::vector<Feature> features;
  HashedString with_const;  // printed with constants
  std::vector<HashedString> with_const_keys;  // Vocabulary::Key per feature
};

std::size_t LogLoader::ShardedSet::size() const {
  std::size_t n = 0;
  for (const StringSet& shard : shards) n += shard.size();
  return n;
}

LogLoader::LogLoader(Options opts) : opts_(std::move(opts)) {}

void LogLoader::AddSql(std::string_view raw_sql, std::uint64_t count) {
  if (count == 0) return;  // zero occurrences: nothing to record
  pending_.push_back({std::string(raw_sql), count});
  if (pending_.size() >= kBatchLines) Flush();
}

void LogLoader::Flush() const {
  if (pending_.empty()) return;
  const std::hash<std::string> hasher;
  const bool with_const = opts_.track_with_constant_stats;
  std::vector<PreparedLine> prepared(pending_.size());
  ThreadPool* pool = opts_.pool ? opts_.pool : ThreadPool::Shared();
  ParallelFor(pool, 0, pending_.size(), kFineGrain, [&](std::size_t i) {
    PreparedLine& p = prepared[i];
    sql::ParseResult parsed = sql::Parse(pending_[i].sql);
    p.kind = parsed.kind;
    if (!parsed.ok()) return;

    // Secondary pass, on a clone: with-constants statistics (Table 1
    // columns "# Distinct queries" and "# Distinct features").
    if (with_const) {
      sql::RegularizeOptions keep_consts;
      keep_consts.anonymize_constants = false;
      sql::StatementPtr constants =
          sql::Regularize(parsed.statement->Clone(), keep_consts, nullptr);
      p.with_const.text = sql::PrintStatement(*constants);
      p.with_const.hash = hasher(p.with_const.text);
      for (const Feature& f : ListFeatures(*constants, opts_.extract)) {
        std::string key = Vocabulary::Key(f);
        const std::size_t hash = hasher(key);
        p.with_const_keys.push_back({std::move(key), hash});
      }
    }

    // Primary pass, consuming the parse: constant-free regularization
    // feeding the QueryLog.
    sql::StatementPtr regular = sql::Regularize(
        std::move(parsed.statement), sql::RegularizeOptions(), &p.info);
    p.canonical = sql::PrintStatement(*regular);
    // A template folded by an earlier batch already has its features:
    // the fold only needs them for a template it has not seen. Workers
    // only read `templates_`; the fold alone writes it, after this loop.
    if (templates_.count(p.canonical) == 0) {
      p.features = ListFeatures(*regular, opts_.extract);
    }
  });

  // The with-constants sets are only ever counted, so insertion order
  // does not matter: one task per shard files that shard's strings from
  // the whole batch. A string is copied only when it is new to its shard.
  if (with_const) {
    ParallelFor(pool, 0, kShards, kCoarseGrain, [&](std::size_t shard) {
      StringSet& queries = distinct_with_const_.shards[shard];
      StringSet& features = with_const_features_.shards[shard];
      for (const PreparedLine& p : prepared) {
        if (p.kind != sql::StatementKind::kSelect) continue;
        if (p.with_const.hash % kShards == shard) {
          queries.insert(p.with_const);
        }
        for (const HashedString& key : p.with_const_keys) {
          if (key.hash % kShards == shard) features.insert(key);
        }
      }
    });
  }

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
    Template& t = it->second;
    if (fresh) {
      std::vector<FeatureId> ids;
      ids.reserve(p.features.size());
      for (const Feature& f : p.features) ids.push_back(vocab->Intern(f));
      t.features = FeatureVec(std::move(ids));
    }
    if (p.info.conjunctive && !t.conjunctive) {
      t.conjunctive = true;
      ++num_distinct_conjunctive_;
    }
    if (p.info.rewritable && !t.rewritable) {
      t.rewritable = true;
      ++num_distinct_rewritable_;
    }
    log_.Add(t.features, count, std::move(pending_[i].sql));
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
  const bool tracked = opts_.track_with_constant_stats;
  s.num_distinct = tracked ? distinct_with_const_.size()
                           : DatasetSummary::kNotTracked;
  s.num_distinct_no_const = templates_.size();
  s.num_distinct_conjunctive = num_distinct_conjunctive_;
  s.num_distinct_rewritable = num_distinct_rewritable_;
  s.max_multiplicity = log_.MaxMultiplicity();
  s.num_features = tracked ? with_const_features_.size()
                           : DatasetSummary::kNotTracked;
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
