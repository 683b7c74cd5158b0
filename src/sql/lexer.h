// Hand-written SQL lexer.
//
// Supports the SQL dialect found in application query logs: standard
// punctuation and operators, single-quoted strings with '' escapes,
// double-quoted and [bracketed] identifiers, JDBC `?` / named `:param` /
// positional `$n` parameters, line (`--`) and block (`/* */`) comments.
#ifndef LOGR_SQL_LEXER_H_
#define LOGR_SQL_LEXER_H_

#include <string_view>

#include "sql/token.h"

namespace logr::sql {

/// Tokenizes `input`. The final token is always kEndOfInput (or kError at
/// the failure position, in which case tokenization stops there). Token
/// text views `input`, static tables or the list's own buffer, so it is
/// valid while `input` and the returned list live.
TokenList Lex(std::string_view input);

}  // namespace logr::sql

#endif  // LOGR_SQL_LEXER_H_
