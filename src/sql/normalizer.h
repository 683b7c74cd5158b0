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

struct RegularizeOptions {
  /// Replace literal constants with `?`.
  bool anonymize_constants = true;
  /// Keep integer constants in LIMIT / OFFSET (they carry workload
  /// information, cf. the "Limit 500" cluster of Fig. 10).
  bool keep_limit_constants = true;
  /// Maximum number of DNF disjuncts before giving up on the rewrite.
  std::size_t max_dnf_disjuncts = 64;
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

/// Lowercases all table / column / function / alias identifiers in place.
void LowercaseIdentifiers(Statement* stmt);

/// Replaces literals with `?` in place (recursing into subqueries).
void AnonymizeConstants(Statement* stmt, bool keep_limit_constants);

/// Returns an equivalent expression with NOT pushed down to atoms,
/// BETWEEN split, and IN-lists expanded to equality disjunctions.
ExprPtr NormalizeBooleanExpr(ExprPtr e);

/// Full regularization pipeline. Never fails: if DNF expansion blows the
/// cap, the original (normalized) statement is returned with
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
