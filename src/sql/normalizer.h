// Query regularization (paper Section 7, "Query Regularization" and
// "Constant Removal").
//
// The pipeline rewrites parsed statements into the conjunctive form the
// Aligon feature scheme expects:
//   1. identifiers are lowercased (SQL is case-insensitive);
//   2. literal constants are replaced by `?` parameters ("constant
//      removal"), optionally preserving LIMIT/OFFSET counts;
//   3. NOT is pushed down to atoms (De Morgan; comparisons are inverted);
//   4. BETWEEN becomes a pair of range atoms, IN-lists become equality
//      disjunctions (which collapse to a single atom after constant
//      removal);
//   5. each WHERE clause is expanded to disjunctive normal form with a
//      configurable size cap, and each disjunct becomes one conjunctive
//      SELECT block of a UNION.
//
// A statement is *conjunctive* when the result is a single UNION-free
// block; it is *rewritable* when DNF expansion succeeds within the cap.
// These two flags feed the Table 1 statistics.
#ifndef LOGR_SQL_NORMALIZER_H_
#define LOGR_SQL_NORMALIZER_H_

#include <memory>

#include "sql/ast.h"

namespace logr::sql {

/// Maximum number of DNF disjuncts before giving up on the rewrite.
inline constexpr std::size_t kMaxDnfDisjuncts = 64;

struct RegularizeOptions {
  /// Replace literal constants with `?`. Integer constants in LIMIT /
  /// OFFSET are always kept (they carry workload information, cf. the
  /// "Limit 500" cluster of Fig. 10).
  bool anonymize_constants = true;
};

struct RegularizeInfo {
  /// True if the regularized statement is a single conjunctive block.
  bool conjunctive = false;
  /// True if the statement could be rewritten into a UNION of conjunctive
  /// blocks within the DNF cap. Conjunctive implies rewritable.
  bool rewritable = false;
};

/// True if `stmt` is already a single conjunctive SELECT block: no UNION,
/// and its (NOT-normalized) WHERE / HAVING / join conditions contain no
/// disjunction. Multi-item IN lists and NOT BETWEEN are disjunctions;
/// BETWEEN and single-item IN are conjunctive. This classifies the
/// *original* query (Table 1's "# Distinct conjunctive queries"), before
/// constant removal can collapse IN-lists.
bool IsConjunctive(const Statement& stmt);

/// Full regularization pipeline. Never fails: if DNF expansion blows the
/// kMaxDnfDisjuncts cap, the original (normalized) statement is returned with
/// `info->rewritable == false`. `info` may be null, which also skips the
/// IsConjunctive walk.
///
/// This overload consumes `stmt` (non-null): it is rewritten in place and
/// its blocks move into the result, so a caller that no longer needs the
/// parse saves the deep Clone the const overload makes. IsConjunctive
/// reads `stmt` before anything is rewritten.
StatementPtr Regularize(StatementPtr stmt, const RegularizeOptions& opts,
                        RegularizeInfo* info);

/// Same as above on a copy: `Regularize(stmt.Clone(), opts, info)`.
StatementPtr Regularize(const Statement& stmt, const RegularizeOptions& opts,
                        RegularizeInfo* info);

}  // namespace logr::sql

#endif  // LOGR_SQL_NORMALIZER_H_
