// Table 1's paper-only columns.
//
// The paper compresses the constant-free log (Sec. 7), and LogLoader
// builds only that log and its funnel. Four columns of Table 1 describe
// the datasets and nothing else reads them: the distinct queries and
// features *with* constants, and the distinct constant-free templates
// that are conjunctive or rewritable into a UNION of conjunctive blocks.
// Table1Statistics computes them in one serial pass over the raw lines.
#ifndef LOGR_DATA_TABLE1_H_
#define LOGR_DATA_TABLE1_H_

#include <cstdint>
#include <vector>

#include "data/sql_log.h"

namespace logr {

/// The four counts of Table 1 that LogLoader's DatasetSummary omits.
struct Table1Counts {
  std::uint64_t distinct_queries = 0;      // printed with constants
  std::uint64_t distinct_conjunctive = 0;  // constant-free templates
  std::uint64_t distinct_rewritable = 0;   // constant-free templates
  std::uint64_t distinct_features = 0;     // with constants
};

/// Parses every valid SELECT of `entries` once and counts Table 1's
/// paper-only columns over them. Entries with `count == 0`, non-SELECTs
/// and parse errors count toward none of them, as in LogLoader::AddSql.
/// A template counts as conjunctive (rewritable) when any of its lines
/// is: `b IN (1, 2)` and `b = 3` share one template, and only the second
/// is conjunctive.
Table1Counts Table1Statistics(const std::vector<LogEntry>& entries);

}  // namespace logr

#endif  // LOGR_DATA_TABLE1_H_
