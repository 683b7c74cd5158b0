// Token model for the SQL lexer.
#ifndef LOGR_SQL_TOKEN_H_
#define LOGR_SQL_TOKEN_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace logr::sql {

enum class TokenType {
  kIdentifier,   // messages, "Quoted Name", [bracketed]
  kKeyword,      // SELECT, FROM, WHERE, ... (uppercased in `text`)
  kInteger,      // 42
  kFloat,        // 4.2, .5, 1e9
  kString,       // 'literal' (quotes stripped, '' unescaped)
  kParameter,    // ? or :name or $1
  kOperator,     // = != <> < <= > >= + - * / % || . , ( ) ;
  kEndOfInput,
  kError,        // lexical error; message in `text`
};

/// The reserved words, in the sorted order of the lexer's keyword table
/// (kNone excepted), so a keyword's id indexes its uppercase spelling.
enum class Keyword : std::uint8_t {
  kNone,
  kAll, kAlter, kAnd, kAs, kAsc, kBetween,
  kBy, kCall, kCase, kCast, kCreate, kCross,
  kDelete, kDesc, kDistinct, kDrop, kElse, kEnd,
  kEscape, kExec, kExecute, kExists, kFalse, kFrom,
  kFull, kGlob, kGroup, kHaving, kIn, kIndex,
  kInner, kInsert, kInto, kIs, kJoin, kLeft,
  kLike, kLimit, kNatural, kNot, kNull, kOffset,
  kOn, kOr, kOrder, kOuter, kRegexp, kRight,
  kSelect, kSet, kTable, kThen, kTrue, kUnion,
  kUpdate, kUsing, kValues, kView, kWhen, kWhere,
};

/// One token. `text` is a view, never an owned copy: into the lexed
/// input for identifiers, numbers and plain string literals; into static
/// tables for keywords (uppercase), `?` parameters and `<>` (read as
/// `!=`); into TokenList::owned for a string literal with '' escapes and
/// for the error message. It is valid while the input and the TokenList
/// live.
struct Token {
  TokenType type = TokenType::kEndOfInput;
  Keyword keyword = Keyword::kNone;  // set iff type == kKeyword
  std::string_view text;
  std::size_t position = 0;  // byte offset in the input

  bool IsKeyword(Keyword kw) const { return keyword == kw; }
  bool IsOperator(std::string_view op) const {
    return type == TokenType::kOperator && text == op;
  }
};

/// Lex's output. `owned` holds the only text no input byte or static
/// table spells: unescaped '' literals and the error message. It is
/// allocated only when a line needs it, never reallocated, and moves with
/// the list, so token views survive a move.
struct TokenList {
  std::vector<Token> tokens;
  std::unique_ptr<char[]> owned;
};

/// Returns true if `word` (uppercase) is a reserved SQL keyword.
bool IsReservedKeyword(std::string_view upper_word);

/// The uppercase spelling of `kw` (not kNone), from the static table.
std::string_view KeywordText(Keyword kw);

}  // namespace logr::sql

#endif  // LOGR_SQL_TOKEN_H_
