#include "sql/parser.h"

#include <utility>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace logr::sql {

namespace {

/// The statement kind a leading keyword announces; kOther for SELECT and
/// anything else the funnel does not classify.
StatementKind NonSelectKind(Keyword kw) {
  switch (kw) {
    case Keyword::kInsert: return StatementKind::kInsert;
    case Keyword::kUpdate: return StatementKind::kUpdate;
    case Keyword::kDelete: return StatementKind::kDelete;
    case Keyword::kCreate: case Keyword::kDrop: case Keyword::kAlter:
      return StatementKind::kDdl;
    case Keyword::kExec: case Keyword::kExecute: case Keyword::kCall:
      return StatementKind::kProcedureCall;
    default:
      return StatementKind::kOther;
  }
}

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(TokenList list) : list_(std::move(list)) {}

  ParseResult ParseStatement() {
    ParseResult result;
    if (Check(TokenType::kError)) {
      return Fail(std::string(Peek().text));
    }
    if (Check(TokenType::kEndOfInput)) {
      return Fail("empty statement");
    }
    // Classify non-SELECT statements without full parsing.
    const StatementKind kind = NonSelectKind(Peek().keyword);
    if (kind != StatementKind::kOther) {
      result.kind = kind;
      return result;
    }
    if (!Peek().IsKeyword(Keyword::kSelect) && !Peek().IsOperator("(")) {
      return Fail("expected SELECT");
    }

    auto stmt = std::make_unique<Statement>();
    SelectPtr first = ParseSelectBlock();
    if (!first) return Fail(error_);
    stmt->selects.push_back(std::move(first));
    while (Peek().IsKeyword(Keyword::kUnion)) {
      Advance();
      if (Peek().IsKeyword(Keyword::kAll)) {
        stmt->union_all = true;
        Advance();
      }
      SelectPtr next = ParseSelectBlock();
      if (!next) return Fail(error_);
      stmt->selects.push_back(std::move(next));
    }
    if (Peek().IsOperator(";")) Advance();
    if (!Check(TokenType::kEndOfInput)) {
      return Fail(StrFormat("unexpected trailing token '%s'",
                            PeekText().c_str()));
    }
    result.kind = StatementKind::kSelect;
    result.statement = std::move(stmt);
    return result;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::vector<Token>& tokens = list_.tokens;
    std::size_t i = pos_ + ahead;
    if (i >= tokens.size()) return tokens.back();
    return tokens[i];
  }
  const Token& Advance() {
    const std::vector<Token>& tokens = list_.tokens;
    return tokens[pos_ >= tokens.size() ? tokens.size() - 1 : pos_++];
  }
  bool Check(TokenType t) const { return Peek().type == t; }
  /// The next token's text, copied for an error message.
  std::string PeekText() const { return std::string(Peek().text); }

  bool Accept(Keyword kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptOp(std::string_view op) {
    if (Peek().IsOperator(op)) {
      Advance();
      return true;
    }
    return false;
  }
  bool Expect(Keyword kw) {
    if (Accept(kw)) return true;
    SetError(StrFormat("expected %s, found '%s'",
                       std::string(KeywordText(kw)).c_str(),
                       PeekText().c_str()));
    return false;
  }
  bool ExpectOp(std::string_view op) {
    if (AcceptOp(op)) return true;
    SetError(StrFormat("expected '%s', found '%s'", std::string(op).c_str(),
                       PeekText().c_str()));
    return false;
  }

  void SetError(std::string msg) {
    if (error_.empty()) {
      error_ = std::move(msg);
      error_pos_ = Peek().position;
    }
  }

  ParseResult Fail(std::string msg) {
    ParseResult r;
    r.kind = StatementKind::kParseError;
    r.error = msg.empty() ? "parse error" : std::move(msg);
    r.error_position = error_pos_ ? error_pos_ : Peek().position;
    return r;
  }

  // --- SELECT ---------------------------------------------------------

  SelectPtr ParseSelectBlock() {
    // Parenthesized select block: ( SELECT ... )
    if (Peek().IsOperator("(") && Peek(1).IsKeyword(Keyword::kSelect)) {
      Advance();
      SelectPtr inner = ParseSelectBlock();
      if (!inner) return nullptr;
      if (!ExpectOp(")")) return nullptr;
      return inner;
    }
    if (!Expect(Keyword::kSelect)) return nullptr;
    auto select = std::make_unique<SelectStmt>();
    if (Accept(Keyword::kDistinct)) {
      select->distinct = true;
    } else {
      Accept(Keyword::kAll);
    }
    // Select list.
    do {
      SelectItem item;
      item.expr = ParseExpr();
      if (!item.expr) return nullptr;
      if (Accept(Keyword::kAs)) {
        if (!Check(TokenType::kIdentifier)) {
          SetError("expected alias after AS");
          return nullptr;
        }
        item.alias = std::string(Advance().text);
      } else if (Check(TokenType::kIdentifier)) {
        item.alias = std::string(Advance().text);
      }
      select->items.push_back(std::move(item));
    } while (AcceptOp(","));

    if (Accept(Keyword::kFrom)) {
      do {
        TableRefPtr t = ParseTableRef();
        if (!t) return nullptr;
        select->from.push_back(std::move(t));
      } while (AcceptOp(","));
    }
    if (Accept(Keyword::kWhere)) {
      select->where = ParseExpr();
      if (!select->where) return nullptr;
    }
    if (Peek().IsKeyword(Keyword::kGroup)) {
      Advance();
      if (!Expect(Keyword::kBy)) return nullptr;
      do {
        ExprPtr g = ParseExpr();
        if (!g) return nullptr;
        select->group_by.push_back(std::move(g));
      } while (AcceptOp(","));
    }
    if (Accept(Keyword::kHaving)) {
      select->having = ParseExpr();
      if (!select->having) return nullptr;
    }
    if (Peek().IsKeyword(Keyword::kOrder)) {
      Advance();
      if (!Expect(Keyword::kBy)) return nullptr;
      do {
        OrderItem o;
        o.expr = ParseExpr();
        if (!o.expr) return nullptr;
        if (Accept(Keyword::kDesc)) {
          o.ascending = false;
        } else {
          Accept(Keyword::kAsc);
        }
        select->order_by.push_back(std::move(o));
      } while (AcceptOp(","));
    }
    if (Accept(Keyword::kLimit)) {
      select->limit = ParseExpr();
      if (!select->limit) return nullptr;
      if (Accept(Keyword::kOffset)) {
        select->offset = ParseExpr();
        if (!select->offset) return nullptr;
      } else if (AcceptOp(",")) {  // LIMIT offset, count (MySQL form)
        select->offset = std::move(select->limit);
        select->limit = ParseExpr();
        if (!select->limit) return nullptr;
      }
    }
    return select;
  }

  // --- Table references -------------------------------------------------

  TableRefPtr ParseTableRef() {
    TableRefPtr left = ParseTablePrimary();
    if (!left) return nullptr;
    for (;;) {
      JoinType jt;
      bool is_join = false;
      if (Peek().IsKeyword(Keyword::kJoin)) {
        jt = JoinType::kInner;
        is_join = true;
        Advance();
      } else if (Peek().IsKeyword(Keyword::kInner) &&
                 Peek(1).IsKeyword(Keyword::kJoin)) {
        jt = JoinType::kInner;
        is_join = true;
        Advance();
        Advance();
      } else if (Peek().IsKeyword(Keyword::kCross) &&
                 Peek(1).IsKeyword(Keyword::kJoin)) {
        jt = JoinType::kCross;
        is_join = true;
        Advance();
        Advance();
      } else if (Peek().IsKeyword(Keyword::kLeft) ||
                 Peek().IsKeyword(Keyword::kRight) ||
                 Peek().IsKeyword(Keyword::kFull)) {
        const Keyword d = Peek().keyword;
        jt = d == Keyword::kLeft
                 ? JoinType::kLeft
                 : (d == Keyword::kRight ? JoinType::kRight : JoinType::kFull);
        std::size_t ahead = 1;
        if (Peek(1).IsKeyword(Keyword::kOuter)) ahead = 2;
        if (!Peek(ahead).IsKeyword(Keyword::kJoin)) break;
        is_join = true;
        for (std::size_t i = 0; i <= ahead; ++i) Advance();
      }
      if (!is_join) break;

      TableRefPtr right = ParseTablePrimary();
      if (!right) return nullptr;
      auto join = std::make_unique<TableRef>();
      join->kind = TableRefKind::kJoin;
      join->join_type = jt;
      join->left = std::move(left);
      join->right = std::move(right);
      if (Accept(Keyword::kOn)) {
        join->join_condition = ParseExpr();
        if (!join->join_condition) return nullptr;
      }
      left = std::move(join);
    }
    return left;
  }

  TableRefPtr ParseTablePrimary() {
    auto t = std::make_unique<TableRef>();
    if (Peek().IsOperator("(")) {
      if (Peek(1).IsKeyword(Keyword::kSelect)) {
        Advance();
        t->kind = TableRefKind::kDerived;
        t->derived = ParseSelectBlock();
        if (!t->derived) return nullptr;
        if (!ExpectOp(")")) return nullptr;
      } else {
        // Parenthesized join tree.
        Advance();
        TableRefPtr inner = ParseTableRef();
        if (!inner) return nullptr;
        if (!ExpectOp(")")) return nullptr;
        return inner;
      }
    } else if (Check(TokenType::kIdentifier)) {
      t->kind = TableRefKind::kBaseTable;
      t->table_name = std::string(Advance().text);
      // Dotted schema names: schema.table
      while (Peek().IsOperator(".") && Peek(1).type == TokenType::kIdentifier) {
        Advance();
        t->table_name += '.';
        t->table_name += Advance().text;
      }
    } else {
      SetError(StrFormat("expected table reference, found '%s'",
                         PeekText().c_str()));
      return nullptr;
    }
    if (Accept(Keyword::kAs)) {
      if (!Check(TokenType::kIdentifier)) {
        SetError("expected alias after AS");
        return nullptr;
      }
      t->alias = std::string(Advance().text);
    } else if (Check(TokenType::kIdentifier)) {
      t->alias = std::string(Advance().text);
    }
    return t;
  }

  // --- Expressions --------------------------------------------------------
  // Grammar (low -> high precedence):
  //   or_expr    := and_expr (OR and_expr)*
  //   and_expr   := not_expr (AND not_expr)*
  //   not_expr   := NOT not_expr | predicate
  //   predicate  := concat ((= != < <= > >=) concat
  //                 | [NOT] IN (...) | [NOT] BETWEEN a AND b
  //                 | [NOT] LIKE p | IS [NOT] NULL)?
  //   concat     := additive (|| additive)*
  //   additive   := multiplicative ((+ -) multiplicative)*
  //   multiplicative := unary ((* / %) unary)*
  //   unary      := (- +) unary | primary
  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr lhs = ParseAnd();
    if (!lhs) return nullptr;
    while (Peek().IsKeyword(Keyword::kOr)) {
      Advance();
      ExprPtr rhs = ParseAnd();
      if (!rhs) return nullptr;
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr ParseAnd() {
    ExprPtr lhs = ParseNot();
    if (!lhs) return nullptr;
    while (Peek().IsKeyword(Keyword::kAnd)) {
      Advance();
      ExprPtr rhs = ParseNot();
      if (!rhs) return nullptr;
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr ParseNot() {
    if (Accept(Keyword::kNot)) {
      ExprPtr operand = ParseNot();
      if (!operand) return nullptr;
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParsePredicate();
  }

  ExprPtr ParsePredicate() {
    ExprPtr lhs = ParseConcat();
    if (!lhs) return nullptr;

    // Comparison operators.
    static constexpr std::pair<std::string_view, BinaryOp> kCmps[] = {
        {"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& [op, bop] : kCmps) {
      if (Peek().IsOperator(op)) {
        Advance();
        ExprPtr rhs = ParseConcat();
        if (!rhs) return nullptr;
        return MakeBinary(bop, std::move(lhs), std::move(rhs));
      }
    }

    bool negated = false;
    if (Peek().IsKeyword(Keyword::kNot) &&
        (Peek(1).IsKeyword(Keyword::kIn) ||
         Peek(1).IsKeyword(Keyword::kBetween) ||
         Peek(1).IsKeyword(Keyword::kLike) ||
         Peek(1).IsKeyword(Keyword::kGlob) ||
         Peek(1).IsKeyword(Keyword::kRegexp))) {
      negated = true;
      Advance();
    }

    if (Accept(Keyword::kIn)) {
      if (!ExpectOp("(")) return nullptr;
      if (Peek().IsKeyword(Keyword::kSelect)) {
        auto e = std::make_unique<Expr>(ExprKind::kInSubquery);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        e->subquery = ParseSelectBlock();
        if (!e->subquery) return nullptr;
        if (!ExpectOp(")")) return nullptr;
        return e;
      }
      auto e = std::make_unique<Expr>(ExprKind::kInList);
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      do {
        ExprPtr item = ParseExpr();
        if (!item) return nullptr;
        e->children.push_back(std::move(item));
      } while (AcceptOp(","));
      if (!ExpectOp(")")) return nullptr;
      return e;
    }
    if (Accept(Keyword::kBetween)) {
      auto e = std::make_unique<Expr>(ExprKind::kBetween);
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      ExprPtr lo = ParseConcat();
      if (!lo) return nullptr;
      e->children.push_back(std::move(lo));
      if (!Expect(Keyword::kAnd)) return nullptr;
      ExprPtr hi = ParseConcat();
      if (!hi) return nullptr;
      e->children.push_back(std::move(hi));
      return e;
    }
    if (Peek().IsKeyword(Keyword::kLike) || Peek().IsKeyword(Keyword::kGlob) ||
        Peek().IsKeyword(Keyword::kRegexp)) {
      Advance();
      auto e = std::make_unique<Expr>(ExprKind::kLike);
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      ExprPtr pattern = ParseConcat();
      if (!pattern) return nullptr;
      e->children.push_back(std::move(pattern));
      if (Accept(Keyword::kEscape)) {
        ExprPtr esc = ParseConcat();
        if (!esc) return nullptr;
        e->children.push_back(std::move(esc));
      }
      return e;
    }
    if (Accept(Keyword::kIs)) {
      bool is_not = Accept(Keyword::kNot);
      if (!Expect(Keyword::kNull)) return nullptr;
      auto e = std::make_unique<Expr>(ExprKind::kIsNull);
      e->negated = is_not;
      e->children.push_back(std::move(lhs));
      return e;
    }
    return lhs;
  }

  ExprPtr ParseConcat() {
    ExprPtr lhs = ParseAdditive();
    if (!lhs) return nullptr;
    while (Peek().IsOperator("||")) {
      Advance();
      ExprPtr rhs = ParseAdditive();
      if (!rhs) return nullptr;
      lhs = MakeBinary(BinaryOp::kConcat, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr ParseAdditive() {
    ExprPtr lhs = ParseMultiplicative();
    if (!lhs) return nullptr;
    for (;;) {
      BinaryOp op;
      if (Peek().IsOperator("+")) op = BinaryOp::kAdd;
      else if (Peek().IsOperator("-")) op = BinaryOp::kSub;
      else break;
      Advance();
      ExprPtr rhs = ParseMultiplicative();
      if (!rhs) return nullptr;
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr lhs = ParseUnary();
    if (!lhs) return nullptr;
    for (;;) {
      BinaryOp op;
      if (Peek().IsOperator("*")) op = BinaryOp::kMul;
      else if (Peek().IsOperator("/")) op = BinaryOp::kDiv;
      else if (Peek().IsOperator("%")) op = BinaryOp::kMod;
      else break;
      Advance();
      ExprPtr rhs = ParseUnary();
      if (!rhs) return nullptr;
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (Peek().IsOperator("-")) {
      Advance();
      ExprPtr operand = ParseUnary();
      if (!operand) return nullptr;
      return MakeUnary(UnaryOp::kNeg, std::move(operand));
    }
    if (Peek().IsOperator("+")) {
      Advance();
      ExprPtr operand = ParseUnary();
      if (!operand) return nullptr;
      return MakeUnary(UnaryOp::kPlus, std::move(operand));
    }
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger: {
        auto e = std::make_unique<Expr>(ExprKind::kLiteral);
        e->literal_kind = LiteralKind::kInteger;
        e->literal_text = std::string(Advance().text);
        return e;
      }
      case TokenType::kFloat: {
        auto e = std::make_unique<Expr>(ExprKind::kLiteral);
        e->literal_kind = LiteralKind::kFloat;
        e->literal_text = std::string(Advance().text);
        return e;
      }
      case TokenType::kString: {
        auto e = std::make_unique<Expr>(ExprKind::kLiteral);
        e->literal_kind = LiteralKind::kString;
        e->literal_text = std::string(Advance().text);
        return e;
      }
      case TokenType::kParameter:
        Advance();
        return MakeParameter();
      case TokenType::kKeyword: {
        if (t.keyword == Keyword::kNull) {
          Advance();
          return MakeNullLiteral();
        }
        if (t.keyword == Keyword::kTrue || t.keyword == Keyword::kFalse) {
          auto e = std::make_unique<Expr>(ExprKind::kLiteral);
          e->literal_kind = LiteralKind::kBool;
          e->bool_value = t.keyword == Keyword::kTrue;
          e->literal_text = std::string(t.text);
          Advance();
          return e;
        }
        if (t.keyword == Keyword::kCase) return ParseCase();
        if (t.keyword == Keyword::kExists) {
          Advance();
          if (!ExpectOp("(")) return nullptr;
          auto e = std::make_unique<Expr>(ExprKind::kExists);
          e->subquery = ParseSelectBlock();
          if (!e->subquery) return nullptr;
          if (!ExpectOp(")")) return nullptr;
          return e;
        }
        if (t.keyword == Keyword::kCast) {
          Advance();
          if (!ExpectOp("(")) return nullptr;
          auto e = std::make_unique<Expr>(ExprKind::kFunction);
          e->column = "CAST";
          ExprPtr inner = ParseExpr();
          if (!inner) return nullptr;
          e->children.push_back(std::move(inner));
          if (!Expect(Keyword::kAs)) return nullptr;
          // Type name: one identifier/keyword plus optional (n[,m]).
          if (Check(TokenType::kIdentifier) || Check(TokenType::kKeyword)) {
            e->table = std::string(Advance().text);  // type name in `table`
          } else {
            SetError("expected type name in CAST");
            return nullptr;
          }
          if (AcceptOp("(")) {
            // Stop at a lex error too: Advance never moves past the
            // last token, so the loop would spin on it.
            while (!Peek().IsOperator(")") &&
                   !Check(TokenType::kEndOfInput) &&
                   !Check(TokenType::kError)) {
              Advance();
            }
            if (!ExpectOp(")")) return nullptr;
          }
          if (!ExpectOp(")")) return nullptr;
          return e;
        }
        SetError(StrFormat("unexpected keyword '%s'",
                           std::string(t.text).c_str()));
        return nullptr;
      }
      case TokenType::kOperator: {
        if (t.text == "(") {
          Advance();
          if (Peek().IsKeyword(Keyword::kSelect)) {
            auto e = std::make_unique<Expr>(ExprKind::kSubquery);
            e->subquery = ParseSelectBlock();
            if (!e->subquery) return nullptr;
            if (!ExpectOp(")")) return nullptr;
            return e;
          }
          ExprPtr inner = ParseExpr();
          if (!inner) return nullptr;
          if (!ExpectOp(")")) return nullptr;
          return inner;
        }
        if (t.text == "*") {
          Advance();
          return MakeStar();
        }
        SetError(
            StrFormat("unexpected token '%s'", std::string(t.text).c_str()));
        return nullptr;
      }
      case TokenType::kIdentifier: {
        std::string first(Advance().text);
        // Function call?
        if (Peek().IsOperator("(")) {
          return ParseFunctionCall(std::move(first));
        }
        // Qualified reference: a.b or a.*
        if (Peek().IsOperator(".")) {
          Advance();
          if (Peek().IsOperator("*")) {
            Advance();
            auto e = std::make_unique<Expr>(ExprKind::kStar);
            e->table = std::move(first);
            return e;
          }
          if (Check(TokenType::kIdentifier) ||
              Check(TokenType::kKeyword)) {
            std::string col(Advance().text);
            if (Peek().IsOperator("(")) {
              // schema-qualified function, e.g. upper(name)
              first += '.';
              first += col;
              return ParseFunctionCall(std::move(first));
            }
            return MakeColumnRef(std::move(first), std::move(col));
          }
          SetError("expected column after '.'");
          return nullptr;
        }
        return MakeColumnRef("", std::move(first));
      }
      default:
        SetError(
            StrFormat("unexpected token '%s'", std::string(t.text).c_str()));
        return nullptr;
    }
  }

  ExprPtr ParseCase() {
    // Consume CASE.
    Accept(Keyword::kCase);
    auto e = std::make_unique<Expr>(ExprKind::kCase);
    if (!Peek().IsKeyword(Keyword::kWhen)) {
      e->has_case_operand = true;
      ExprPtr operand = ParseExpr();
      if (!operand) return nullptr;
      e->children.push_back(std::move(operand));
    }
    while (Accept(Keyword::kWhen)) {
      ExprPtr cond = ParseExpr();
      if (!cond) return nullptr;
      if (!Expect(Keyword::kThen)) return nullptr;
      ExprPtr value = ParseExpr();
      if (!value) return nullptr;
      e->children.push_back(std::move(cond));
      e->children.push_back(std::move(value));
      ++e->n_when;
    }
    if (e->n_when == 0) {
      SetError("CASE requires at least one WHEN branch");
      return nullptr;
    }
    if (Accept(Keyword::kElse)) {
      e->has_else = true;
      ExprPtr value = ParseExpr();
      if (!value) return nullptr;
      e->children.push_back(std::move(value));
    }
    if (!Expect(Keyword::kEnd)) return nullptr;
    return e;
  }

  ExprPtr ParseFunctionCall(std::string name) {
    // Consume '('.
    AcceptOp("(");
    auto e = std::make_unique<Expr>(ExprKind::kFunction);
    e->column = std::move(name);
    if (Accept(Keyword::kDistinct)) e->distinct_arg = true;
    if (!Peek().IsOperator(")")) {
      do {
        ExprPtr arg = ParseExpr();
        if (!arg) return nullptr;
        e->children.push_back(std::move(arg));
      } while (AcceptOp(","));
    }
    if (!ExpectOp(")")) return nullptr;
    return e;
  }

  TokenList list_;
  std::size_t pos_ = 0;
  std::string error_;
  std::size_t error_pos_ = 0;
};

}  // namespace

ParseResult Parse(std::string_view sql) {
  return Parser(Lex(sql)).ParseStatement();
}

}  // namespace logr::sql
