#include "workload/extractor.h"

#include <set>

#include "sql/printer.h"
#include "util/check.h"

namespace logr {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::BinaryOp;
using sql::SelectStmt;
using sql::TableRef;
using sql::TableRefKind;

/// Collects features of one statement into an ordered, deduplicated set.
class Collector {
 public:
  explicit Collector(const ExtractOptions& opts) : opts_(opts) {}

  void AddStatement(const sql::Statement& stmt) {
    for (const auto& s : stmt.selects) AddSelect(*s);
  }

  std::vector<Feature> TakeFeatures() {
    std::vector<Feature> out;
    out.reserve(ordered_.size());
    for (auto& f : ordered_) out.push_back(std::move(f));
    return out;
  }

 private:
  void Add(FeatureClause clause, std::string text) {
    std::string key(1, static_cast<char>('0' + static_cast<int>(clause)));
    key += text;
    if (seen_.insert(std::move(key)).second) {
      ordered_.push_back(Feature{clause, std::move(text)});
    }
  }

  void AddSelect(const SelectStmt& s) {
    for (const auto& item : s.items) {
      Add(FeatureClause::kSelect, sql::PrintExpr(*item.expr));
    }
    for (const auto& t : s.from) AddTableRef(*t);
    if (s.where) AddConjunction(*s.where);
    if (s.having) AddConjunction(*s.having);
    if (opts_.extended_clauses) {
      for (const auto& g : s.group_by) {
        Add(FeatureClause::kGroupBy, sql::PrintExpr(*g));
      }
      for (const auto& o : s.order_by) {
        Add(FeatureClause::kOrderBy,
            std::string(o.ascending ? "asc " : "desc ") +
                sql::PrintExpr(*o.expr));
      }
      if (s.limit) {
        Add(FeatureClause::kLimit, "limit " + sql::PrintExpr(*s.limit));
      }
    }
  }

  void AddTableRef(const TableRef& t) {
    switch (t.kind) {
      case TableRefKind::kBaseTable:
        Add(FeatureClause::kFrom, t.table_name);
        break;
      case TableRefKind::kDerived:
        // A subquery in FROM is a single feature (Aligon); its own
        // clauses are not flattened into the outer query.
        Add(FeatureClause::kFrom, "(" + sql::PrintSelect(*t.derived) + ")");
        break;
      case TableRefKind::kJoin:
        AddTableRef(*t.left);
        AddTableRef(*t.right);
        if (t.join_condition) AddConjunction(*t.join_condition);
        break;
    }
  }

  // Splits a (normalized) boolean expression on AND and records each
  // conjunctive atom. OR subtrees that survived regularization are kept
  // as one opaque atom so no information is silently dropped.
  void AddConjunction(const Expr& e) {
    if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
      AddConjunction(*e.children[0]);
      AddConjunction(*e.children[1]);
      return;
    }
    Add(FeatureClause::kWhere, sql::PrintExpr(e));
  }

  ExtractOptions opts_;
  std::set<std::string> seen_;
  std::vector<Feature> ordered_;
};

}  // namespace

std::vector<Feature> ListFeatures(const sql::Statement& stmt,
                                  const ExtractOptions& opts) {
  Collector c(opts);
  c.AddStatement(stmt);
  return c.TakeFeatures();
}

FeatureVec ExtractFeatures(const sql::Statement& stmt,
                           const ExtractOptions& opts, Vocabulary* vocab) {
  std::vector<FeatureId> ids;
  for (const Feature& f : ListFeatures(stmt, opts)) {
    ids.push_back(vocab->Intern(f));
  }
  return FeatureVec(std::move(ids));
}

}  // namespace logr
