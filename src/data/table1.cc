#include "data/table1.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/extractor.h"

namespace logr {

Table1Counts Table1Statistics(const std::vector<LogEntry>& entries) {
  // Only ever counted, so each set holds its strings and nothing else:
  // printed statements, constant-free prints and Vocabulary::Key.
  std::unordered_set<std::string> with_const, conjunctive, rewritable,
      features;
  sql::RegularizeOptions keep_consts;
  keep_consts.anonymize_constants = false;
  for (const LogEntry& e : entries) {
    if (e.count == 0) continue;
    sql::ParseResult parsed = sql::Parse(e.sql);
    if (!parsed.ok()) continue;
    sql::RegularizeInfo info;
    const std::string canonical = sql::PrintStatement(
        *sql::Regularize(*parsed.statement, sql::RegularizeOptions(), &info));
    if (info.conjunctive) conjunctive.insert(canonical);
    if (info.rewritable) rewritable.insert(canonical);
    const sql::StatementPtr constants =
        sql::Regularize(std::move(parsed.statement), keep_consts, nullptr);
    with_const.insert(sql::PrintStatement(*constants));
    for (const Feature& f : ListFeatures(*constants, ExtractOptions())) {
      features.insert(Vocabulary::Key(f));
    }
  }
  Table1Counts counts;
  counts.distinct_queries = with_const.size();
  counts.distinct_conjunctive = conjunctive.size();
  counts.distinct_rewritable = rewritable.size();
  counts.distinct_features = features.size();
  return counts;
}

}  // namespace logr
