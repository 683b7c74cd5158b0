#include "sql/normalizer.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "sql/printer.h"
#include "util/check.h"

namespace logr::sql {

namespace {

void LowercaseExpr(Expr* e);
void LowercaseSelect(SelectStmt* s);

/// ASCII-lowercases `s` where it stands: no allocation per identifier,
/// and no locale lookup per character (std::tolower in the "C" locale
/// maps exactly 'A'..'Z').
void Lowercase(std::string* s) {
  for (char& c : *s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + ('a' - 'A'));
  }
}

void LowercaseTableRef(TableRef* t) {
  Lowercase(&t->table_name);
  Lowercase(&t->alias);
  if (t->derived) LowercaseSelect(t->derived.get());
  if (t->left) LowercaseTableRef(t->left.get());
  if (t->right) LowercaseTableRef(t->right.get());
  if (t->join_condition) LowercaseExpr(t->join_condition.get());
}

void LowercaseExpr(Expr* e) {
  Lowercase(&e->table);
  if (e->kind == ExprKind::kColumnRef || e->kind == ExprKind::kFunction) {
    Lowercase(&e->column);
  }
  for (auto& c : e->children) {
    if (c) LowercaseExpr(c.get());
  }
  if (e->subquery) LowercaseSelect(e->subquery.get());
}

void LowercaseSelect(SelectStmt* s) {
  for (auto& item : s->items) {
    LowercaseExpr(item.expr.get());
    Lowercase(&item.alias);
  }
  for (auto& t : s->from) LowercaseTableRef(t.get());
  if (s->where) LowercaseExpr(s->where.get());
  for (auto& g : s->group_by) LowercaseExpr(g.get());
  if (s->having) LowercaseExpr(s->having.get());
  for (auto& o : s->order_by) LowercaseExpr(o.expr.get());
  if (s->limit) LowercaseExpr(s->limit.get());
  if (s->offset) LowercaseExpr(s->offset.get());
}

void AnonymizeExpr(Expr* e);
void AnonymizeSelect(SelectStmt* s, bool keep_limit);

void AnonymizeTableRef(TableRef* t, bool keep_limit) {
  if (t->derived) AnonymizeSelect(t->derived.get(), keep_limit);
  if (t->left) AnonymizeTableRef(t->left.get(), keep_limit);
  if (t->right) AnonymizeTableRef(t->right.get(), keep_limit);
  if (t->join_condition) AnonymizeExpr(t->join_condition.get());
}

void AnonymizeExpr(Expr* e) {
  if (e->kind == ExprKind::kLiteral) {
    *e = Expr(ExprKind::kParameter);
    return;
  }
  for (auto& c : e->children) {
    if (c) AnonymizeExpr(c.get());
  }
  if (e->subquery) AnonymizeSelect(e->subquery.get(), /*keep_limit=*/true);
}

void AnonymizeSelect(SelectStmt* s, bool keep_limit) {
  for (auto& item : s->items) AnonymizeExpr(item.expr.get());
  for (auto& t : s->from) AnonymizeTableRef(t.get(), keep_limit);
  if (s->where) AnonymizeExpr(s->where.get());
  for (auto& g : s->group_by) AnonymizeExpr(g.get());
  if (s->having) AnonymizeExpr(s->having.get());
  for (auto& o : s->order_by) AnonymizeExpr(o.expr.get());
  if (!keep_limit) {
    if (s->limit) AnonymizeExpr(s->limit.get());
    if (s->offset) AnonymizeExpr(s->offset.get());
  }
}

BinaryOp InvertComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return BinaryOp::kNe;
    case BinaryOp::kNe: return BinaryOp::kEq;
    case BinaryOp::kLt: return BinaryOp::kGe;
    case BinaryOp::kLe: return BinaryOp::kGt;
    case BinaryOp::kGt: return BinaryOp::kLe;
    case BinaryOp::kGe: return BinaryOp::kLt;
    default: LOGR_CHECK(false); return op;
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
    case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Forward declaration: normalize with an optional pending negation.
ExprPtr NormalizeNeg(ExprPtr e, bool negate);

ExprPtr NormalizeNeg(ExprPtr e, bool negate) {
  switch (e->kind) {
    case ExprKind::kUnary:
      if (e->unary_op == UnaryOp::kNot) {
        ExprPtr child = std::move(e->children[0]);
        return NormalizeNeg(std::move(child), !negate);
      }
      return negate ? MakeUnary(UnaryOp::kNot, std::move(e)) : std::move(e);
    case ExprKind::kBinary: {
      BinaryOp op = e->binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        ExprPtr l = NormalizeNeg(std::move(e->children[0]), negate);
        ExprPtr r = NormalizeNeg(std::move(e->children[1]), negate);
        BinaryOp out_op = op;
        if (negate) {
          out_op = (op == BinaryOp::kAnd) ? BinaryOp::kOr : BinaryOp::kAnd;
        }
        return MakeBinary(out_op, std::move(l), std::move(r));
      }
      if (IsComparison(op)) {
        if (negate) e->binary_op = InvertComparison(op);
        return e;
      }
      // Arithmetic / concat under negation: wrap.
      return negate ? MakeUnary(UnaryOp::kNot, std::move(e)) : std::move(e);
    }
    case ExprKind::kBetween: {
      bool effective_neg = e->negated != negate;
      ExprPtr x = std::move(e->children[0]);
      ExprPtr lo = std::move(e->children[1]);
      ExprPtr hi = std::move(e->children[2]);
      ExprPtr x_copy = x->Clone();
      if (!effective_neg) {
        // x >= lo AND x <= hi
        ExprPtr lo_atom = MakeBinary(BinaryOp::kGe, std::move(x_copy),
                                     std::move(lo));
        ExprPtr hi_atom = MakeBinary(BinaryOp::kLe, std::move(x),
                                     std::move(hi));
        return MakeBinary(BinaryOp::kAnd, std::move(lo_atom),
                          std::move(hi_atom));
      }
      // x < lo OR x > hi
      ExprPtr lo_atom = MakeBinary(BinaryOp::kLt, std::move(x_copy),
                                   std::move(lo));
      ExprPtr hi_atom = MakeBinary(BinaryOp::kGt, std::move(x),
                                   std::move(hi));
      return MakeBinary(BinaryOp::kOr, std::move(lo_atom),
                        std::move(hi_atom));
    }
    case ExprKind::kInList: {
      bool effective_neg = e->negated != negate;
      ExprPtr lhs = std::move(e->children[0]);
      // Expand to a chain of (in)equalities, deduplicating identical
      // disjuncts (after constant removal all items are `?`).
      std::vector<ExprPtr> terms;
      std::set<std::string> seen;
      for (std::size_t i = 1; i < e->children.size(); ++i) {
        BinaryOp op = effective_neg ? BinaryOp::kNe : BinaryOp::kEq;
        ExprPtr term =
            MakeBinary(op, lhs->Clone(), std::move(e->children[i]));
        if (seen.insert(PrintExpr(*term)).second) {
          terms.push_back(std::move(term));
        }
      }
      LOGR_CHECK(!terms.empty());
      ExprPtr out = std::move(terms[0]);
      for (std::size_t i = 1; i < terms.size(); ++i) {
        // IN = disjunction of equalities; NOT IN = conjunction of !=.
        out = MakeBinary(effective_neg ? BinaryOp::kAnd : BinaryOp::kOr,
                         std::move(out), std::move(terms[i]));
      }
      return out;
    }
    case ExprKind::kIsNull:
    case ExprKind::kLike:
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
      if (negate) e->negated = !e->negated;
      return e;
    default:
      return negate ? MakeUnary(UnaryOp::kNot, std::move(e)) : std::move(e);
  }
}

// DNF expansion. Each inner vector is one conjunct list (a disjunct of the
// DNF). Returns false if the expansion exceeds `cap`.
bool ToDnf(const Expr& e, std::size_t cap,
           std::vector<std::vector<const Expr*>>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kOr) {
    std::vector<std::vector<const Expr*>> l, r;
    if (!ToDnf(*e.children[0], cap, &l)) return false;
    if (!ToDnf(*e.children[1], cap, &r)) return false;
    out->clear();
    out->reserve(l.size() + r.size());
    for (auto& d : l) out->push_back(std::move(d));
    for (auto& d : r) out->push_back(std::move(d));
    return out->size() <= cap;
  }
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    std::vector<std::vector<const Expr*>> l, r;
    if (!ToDnf(*e.children[0], cap, &l)) return false;
    if (!ToDnf(*e.children[1], cap, &r)) return false;
    if (l.size() * r.size() > cap) return false;
    out->clear();
    out->reserve(l.size() * r.size());
    for (const auto& dl : l) {
      for (const auto& dr : r) {
        std::vector<const Expr*> merged = dl;
        merged.insert(merged.end(), dr.begin(), dr.end());
        out->push_back(std::move(merged));
      }
    }
    return true;
  }
  out->assign(1, std::vector<const Expr*>{&e});
  return true;
}

// Appends the conjuncts of the OR-free `e` to `out`, left to right (the
// order ToDnf lists them in), moving them out of the tree.
void TakeConjuncts(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    TakeConjuncts(std::move(e->children[0]), out);
    TakeConjuncts(std::move(e->children[1]), out);
    return;
  }
  out->push_back(std::move(e));
}

// Rebuilds a conjunction from atoms, deduplicating by printed form (the
// first of equal atoms stays) and sorting for canonical ordering.
ExprPtr BuildConjunction(std::vector<ExprPtr> atoms) {
  std::vector<std::pair<std::string, ExprPtr>> keyed;
  keyed.reserve(atoms.size());
  for (ExprPtr& a : atoms) keyed.emplace_back(PrintExpr(*a), std::move(a));
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  ExprPtr out;
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i > 0 && keyed[i].first == keyed[i - 1].first) continue;
    ExprPtr atom = std::move(keyed[i].second);
    out = out ? MakeBinary(BinaryOp::kAnd, std::move(out), std::move(atom))
              : std::move(atom);
  }
  return out;
}

bool ExprHasOr(const Expr& e) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kOr) return true;
  for (const auto& c : e.children) {
    if (c && ExprHasOr(*c)) return true;
  }
  return false;
}

}  // namespace

namespace {

// Would the NOT-normalized form of `e` (under a pending negation `neg`)
// contain a disjunction? Works structurally so that a multi-item
// IN (?, ?) counts as disjunctive even when its items print identically
// (JDBC parameters) — Table 1 classifies the *original* query.
bool HasDisjunction(const Expr& e, bool neg) {
  switch (e.kind) {
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNot) {
        return HasDisjunction(*e.children[0], !neg);
      }
      return false;
    case ExprKind::kBinary:
      if (e.binary_op == BinaryOp::kAnd) {
        // NOT (a AND b) = NOT a OR NOT b: disjunctive under negation.
        if (neg) return true;
        return HasDisjunction(*e.children[0], false) ||
               HasDisjunction(*e.children[1], false);
      }
      if (e.binary_op == BinaryOp::kOr) {
        if (!neg) return true;
        // NOT (a OR b) = NOT a AND NOT b.
        return HasDisjunction(*e.children[0], true) ||
               HasDisjunction(*e.children[1], true);
      }
      return false;  // comparisons / arithmetic: negation flips operator
    case ExprKind::kInList: {
      bool is_in = (e.negated == neg);  // effective IN vs NOT IN
      bool multi = e.children.size() > 2;
      // x IN (a, b, ...) is a disjunction; NOT IN is a conjunction of !=.
      return is_in && multi;
    }
    case ExprKind::kBetween:
      // NOT BETWEEN = (x < lo OR x > hi).
      return e.negated != neg;
    default:
      return false;
  }
}

}  // namespace

bool IsConjunctive(const Statement& stmt) {
  if (stmt.selects.size() != 1) return false;
  const SelectStmt& s = *stmt.selects[0];
  auto boolean_expr_disjunctive = [](const Expr& raw) {
    return HasDisjunction(raw, /*neg=*/false);
  };
  if (s.where && boolean_expr_disjunctive(*s.where)) return false;
  if (s.having && boolean_expr_disjunctive(*s.having)) return false;
  // Join conditions are conjuncts of the WHERE in spirit.
  std::vector<const TableRef*> stack;
  for (const auto& t : s.from) stack.push_back(t.get());
  while (!stack.empty()) {
    const TableRef* t = stack.back();
    stack.pop_back();
    if (t->kind == TableRefKind::kJoin) {
      if (t->join_condition &&
          boolean_expr_disjunctive(*t->join_condition)) {
        return false;
      }
      stack.push_back(t->left.get());
      stack.push_back(t->right.get());
    }
  }
  return true;
}

void LowercaseIdentifiers(Statement* stmt) {
  for (auto& s : stmt->selects) LowercaseSelect(s.get());
}

void AnonymizeConstants(Statement* stmt, bool keep_limit_constants) {
  for (auto& s : stmt->selects) {
    AnonymizeSelect(s.get(), keep_limit_constants);
  }
}

ExprPtr NormalizeBooleanExpr(ExprPtr e) {
  return NormalizeNeg(std::move(e), /*negate=*/false);
}

StatementPtr Regularize(const Statement& stmt, const RegularizeOptions& opts,
                        RegularizeInfo* info) {
  return Regularize(stmt.Clone(), opts, info);
}

StatementPtr Regularize(StatementPtr work, const RegularizeOptions& opts,
                        RegularizeInfo* info) {
  // Conjunctive-ness is a property of the original query, judged before
  // constant removal can merge IN-list items (Table 1 semantics), so it
  // is read before `work` is rewritten.
  if (info) info->conjunctive = IsConjunctive(*work);
  LowercaseIdentifiers(work.get());
  if (opts.anonymize_constants) {
    AnonymizeConstants(work.get(), opts.keep_limit_constants);
  }

  auto out = std::make_unique<Statement>();
  out->union_all = work->union_all;
  bool all_rewritable = true;

  for (auto& select : work->selects) {
    if (select->where) {
      select->where = NormalizeBooleanExpr(std::move(select->where));
    }
    if (!select->where || !ExprHasOr(*select->where)) {
      // Already conjunctive (canonicalize atom order).
      if (select->where) {
        std::vector<ExprPtr> atoms;
        TakeConjuncts(std::move(select->where), &atoms);
        select->where = BuildConjunction(std::move(atoms));
      }
      // `work` is consumed, so its finished selects move out.
      out->selects.push_back(std::move(select));
      continue;
    }
    std::vector<std::vector<const Expr*>> dnf;
    if (!ToDnf(*select->where, opts.max_dnf_disjuncts, &dnf)) {
      all_rewritable = false;
      out->selects.push_back(std::move(select));
      continue;
    }
    // One UNION branch per disjunct; dedupe identical branches. The dnf
    // points into `where`, so the branches clone the select without it.
    const ExprPtr where = std::move(select->where);
    std::set<std::string> seen_branches;
    for (const auto& disjunct : dnf) {
      SelectPtr branch = select->Clone();
      std::vector<ExprPtr> atoms;
      atoms.reserve(disjunct.size());
      for (const Expr* a : disjunct) atoms.push_back(a->Clone());
      branch->where = BuildConjunction(std::move(atoms));
      if (seen_branches.insert(PrintSelect(*branch)).second) {
        out->selects.push_back(std::move(branch));
      }
    }
  }

  if (info) info->rewritable = all_rewritable;
  return out;
}

}  // namespace logr::sql
