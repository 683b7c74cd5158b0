#include "sql/printer.h"

#include "util/check.h"

namespace logr::sql {

namespace {

// Precedence levels for parenthesization (higher binds tighter).
int Precedence(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kOr: return 1;
        case BinaryOp::kAnd: return 2;
        case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
        case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe:
          return 4;
        case BinaryOp::kConcat: return 5;
        case BinaryOp::kAdd: case BinaryOp::kSub: return 6;
        case BinaryOp::kMul: case BinaryOp::kDiv: case BinaryOp::kMod:
          return 7;
      }
      return 9;
    case ExprKind::kUnary:
      return e.unary_op == UnaryOp::kNot ? 3 : 8;
    case ExprKind::kInList:
    case ExprKind::kInSubquery:
    case ExprKind::kBetween:
    case ExprKind::kIsNull:
    case ExprKind::kLike:
      return 4;
    default:
      return 10;  // primaries never need parens
  }
}

const char* BinaryOpText(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kConcat: return "||";
  }
  return "?";
}

void AppendExpr(const Expr& e, std::string* out);
void AppendSelect(const SelectStmt& s, std::string* out);

void AppendChild(const Expr& parent, const Expr& child, std::string* out) {
  const bool parens = Precedence(child) < Precedence(parent);
  if (parens) out->push_back('(');
  AppendExpr(child, out);
  if (parens) out->push_back(')');
}

/// Appends `items` printed by `append`, separated by ", ".
template <typename Items, typename Append>
void AppendList(const Items& items, std::string* out, Append append) {
  bool first = true;
  for (const auto& item : items) {
    if (!first) out->append(", ");
    first = false;
    append(item);
  }
}

void AppendTableRef(const TableRef& t, std::string* out) {
  switch (t.kind) {
    case TableRefKind::kBaseTable:
      out->append(t.table_name);
      break;
    case TableRefKind::kDerived:
      out->push_back('(');
      AppendSelect(*t.derived, out);
      out->push_back(')');
      break;
    case TableRefKind::kJoin: {
      const char* kw = "JOIN";
      switch (t.join_type) {
        case JoinType::kInner: kw = "JOIN"; break;
        case JoinType::kLeft: kw = "LEFT JOIN"; break;
        case JoinType::kRight: kw = "RIGHT JOIN"; break;
        case JoinType::kFull: kw = "FULL JOIN"; break;
        case JoinType::kCross: kw = "CROSS JOIN"; break;
      }
      AppendTableRef(*t.left, out);
      out->push_back(' ');
      out->append(kw);
      out->push_back(' ');
      AppendTableRef(*t.right, out);
      if (t.join_condition) {
        out->append(" ON ");
        AppendExpr(*t.join_condition, out);
      }
      return;  // a join has no alias
    }
  }
  if (!t.alias.empty()) {
    out->push_back(' ');
    out->append(t.alias);
  }
}

void AppendQuoted(const std::string& raw, std::string* out) {
  out->push_back('\'');
  for (char c : raw) {
    if (c == '\'') out->push_back('\'');
    out->push_back(c);
  }
  out->push_back('\'');
}

void AppendExpr(const Expr& e, std::string* out) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (!e.table.empty()) {
        out->append(e.table);
        out->push_back('.');
      }
      out->append(e.column);
      return;
    case ExprKind::kLiteral:
      switch (e.literal_kind) {
        case LiteralKind::kString: AppendQuoted(e.literal_text, out); return;
        case LiteralKind::kNull: out->append("NULL"); return;
        case LiteralKind::kBool:
          out->append(e.bool_value ? "TRUE" : "FALSE");
          return;
        default: out->append(e.literal_text); return;
      }
    case ExprKind::kParameter:
      out->push_back('?');
      return;
    case ExprKind::kStar:
      if (!e.table.empty()) {
        out->append(e.table);
        out->push_back('.');
      }
      out->push_back('*');
      return;
    case ExprKind::kUnary:
      switch (e.unary_op) {
        case UnaryOp::kNot: out->append("NOT "); break;
        case UnaryOp::kNeg: out->push_back('-'); break;
        case UnaryOp::kPlus: out->push_back('+'); break;
      }
      AppendChild(e, *e.children[0], out);
      return;
    case ExprKind::kBinary:
      AppendChild(e, *e.children[0], out);
      out->push_back(' ');
      out->append(BinaryOpText(e.binary_op));
      out->push_back(' ');
      AppendChild(e, *e.children[1], out);
      return;
    case ExprKind::kFunction:
      if (e.column == "CAST" && e.children.size() == 1) {
        out->append("CAST(");
        AppendExpr(*e.children[0], out);
        out->append(" AS ");
        out->append(e.table);
        out->push_back(')');
        return;
      }
      out->append(e.column);
      out->push_back('(');
      if (e.distinct_arg) out->append("DISTINCT ");
      AppendList(e.children, out,
                 [&](const ExprPtr& c) { AppendExpr(*c, out); });
      out->push_back(')');
      return;
    case ExprKind::kInList: {
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT IN (" : " IN (");
      for (std::size_t i = 1; i < e.children.size(); ++i) {
        if (i > 1) out->append(", ");
        AppendExpr(*e.children[i], out);
      }
      out->push_back(')');
      return;
    }
    case ExprKind::kInSubquery:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT IN (" : " IN (");
      AppendSelect(*e.subquery, out);
      out->push_back(')');
      return;
    case ExprKind::kBetween:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT BETWEEN " : " BETWEEN ");
      AppendChild(e, *e.children[1], out);
      out->append(" AND ");
      AppendChild(e, *e.children[2], out);
      return;
    case ExprKind::kIsNull:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " IS NOT NULL" : " IS NULL");
      return;
    case ExprKind::kLike:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT LIKE " : " LIKE ");
      AppendChild(e, *e.children[1], out);
      if (e.children.size() > 2) {
        out->append(" ESCAPE ");
        AppendExpr(*e.children[2], out);
      }
      return;
    case ExprKind::kExists:
      if (e.negated) out->append("NOT ");
      out->append("EXISTS (");
      AppendSelect(*e.subquery, out);
      out->push_back(')');
      return;
    case ExprKind::kCase: {
      out->append("CASE");
      std::size_t idx = 0;
      if (e.has_case_operand) {
        out->push_back(' ');
        AppendExpr(*e.children[idx++], out);
      }
      for (std::size_t w = 0; w < e.n_when; ++w) {
        out->append(" WHEN ");
        AppendExpr(*e.children[idx++], out);
        out->append(" THEN ");
        AppendExpr(*e.children[idx++], out);
      }
      if (e.has_else) {
        out->append(" ELSE ");
        AppendExpr(*e.children[idx++], out);
      }
      out->append(" END");
      return;
    }
    case ExprKind::kSubquery:
      out->push_back('(');
      AppendSelect(*e.subquery, out);
      out->push_back(')');
      return;
  }
}

void AppendSelect(const SelectStmt& s, std::string* out) {
  out->append("SELECT ");
  if (s.distinct) out->append("DISTINCT ");
  AppendList(s.items, out, [&](const SelectItem& item) {
    AppendExpr(*item.expr, out);
    if (!item.alias.empty()) {
      out->append(" AS ");
      out->append(item.alias);
    }
  });
  if (!s.from.empty()) {
    out->append(" FROM ");
    AppendList(s.from, out,
               [&](const TableRefPtr& t) { AppendTableRef(*t, out); });
  }
  if (s.where) {
    out->append(" WHERE ");
    AppendExpr(*s.where, out);
  }
  if (!s.group_by.empty()) {
    out->append(" GROUP BY ");
    AppendList(s.group_by, out, [&](const ExprPtr& g) { AppendExpr(*g, out); });
  }
  if (s.having) {
    out->append(" HAVING ");
    AppendExpr(*s.having, out);
  }
  if (!s.order_by.empty()) {
    out->append(" ORDER BY ");
    AppendList(s.order_by, out, [&](const OrderItem& o) {
      AppendExpr(*o.expr, out);
      if (!o.ascending) out->append(" DESC");
    });
  }
  if (s.limit) {
    out->append(" LIMIT ");
    AppendExpr(*s.limit, out);
  }
  if (s.offset) {
    out->append(" OFFSET ");
    AppendExpr(*s.offset, out);
  }
}

}  // namespace

std::string PrintExpr(const Expr& e) {
  std::string out;
  AppendExpr(e, &out);
  return out;
}

std::string PrintSelect(const SelectStmt& s) {
  std::string out;
  AppendSelect(s, &out);
  return out;
}

std::string PrintStatement(const Statement& s) {
  LOGR_CHECK(!s.selects.empty());
  std::string out;
  AppendSelect(*s.selects[0], &out);
  for (std::size_t i = 1; i < s.selects.size(); ++i) {
    out.append(s.union_all ? " UNION ALL " : " UNION ");
    AppendSelect(*s.selects[i], &out);
  }
  return out;
}

}  // namespace logr::sql
