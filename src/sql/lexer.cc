#include "sql/lexer.h"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "util/string_util.h"

namespace logr::sql {

namespace {

// Sorted: IsReservedKeyword binary-searches it.
constexpr std::string_view kKeywords[] = {
    "ALL",    "ALTER",  "AND",      "AS",     "ASC",    "BETWEEN",
    "BY",     "CALL",   "CASE",     "CAST",   "CREATE", "CROSS",
    "DELETE", "DESC",   "DISTINCT", "DROP",   "ELSE",   "END",
    "ESCAPE", "EXEC",   "EXECUTE",  "EXISTS", "FALSE",  "FROM",
    "FULL",   "GLOB",   "GROUP",    "HAVING", "IN",     "INDEX",
    "INNER",  "INSERT", "INTO",     "IS",     "JOIN",   "LEFT",
    "LIKE",   "LIMIT",  "NATURAL",  "NOT",    "NULL",   "OFFSET",
    "ON",     "OR",     "ORDER",    "OUTER",  "REGEXP", "RIGHT",
    "SELECT", "SET",    "TABLE",    "THEN",   "TRUE",   "UNION",
    "UPDATE", "USING",  "VALUES",   "VIEW",   "WHEN",   "WHERE",
};

// Longer words cannot be keywords, so the lexer uppercases only words
// up to this length, into a stack buffer.
constexpr std::size_t kMaxKeywordLength = 8;

constexpr bool KeywordTableIsValid() {
  for (std::size_t i = 0; i < std::size(kKeywords); ++i) {
    if (kKeywords[i].size() > kMaxKeywordLength) return false;
    if (i > 0 && !(kKeywords[i - 1] < kKeywords[i])) return false;
  }
  return true;
}
static_assert(KeywordTableIsValid(),
              "kKeywords must be sorted and at most kMaxKeywordLength long");

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

bool IsReservedKeyword(std::string_view upper_word) {
  return std::binary_search(std::begin(kKeywords), std::end(kKeywords),
                            upper_word);
}

std::vector<Token> Lex(std::string_view in) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = in.size();

  auto error = [&](std::size_t pos, std::string msg) {
    out.push_back({TokenType::kError, std::move(msg), pos});
  };

  while (i < n) {
    char c = in[i];
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && in[i + 1] == '-') {
      while (i < n && in[i] != '\n') ++i;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      std::size_t start = i;
      i += 2;
      while (i + 1 < n && !(in[i] == '*' && in[i + 1] == '/')) ++i;
      if (i + 1 >= n) {
        error(start, "unterminated block comment");
        return out;
      }
      i += 2;
      continue;
    }
    // String literal.
    if (c == '\'') {
      std::size_t start = i;
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (in[i] == '\'') {
          if (i + 1 < n && in[i + 1] == '\'') {  // escaped quote
            text.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text.push_back(in[i]);
        ++i;
      }
      if (!closed) {
        error(start, "unterminated string literal");
        return out;
      }
      out.push_back({TokenType::kString, std::move(text), start});
      continue;
    }
    // Quoted identifier: "name" or [name] or `name`.
    if (c == '"' || c == '[' || c == '`') {
      char close = c == '[' ? ']' : c;
      std::size_t start = i;
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (in[i] == close) {
          closed = true;
          ++i;
          break;
        }
        text.push_back(in[i]);
        ++i;
      }
      if (!closed) {
        error(start, "unterminated quoted identifier");
        return out;
      }
      out.push_back({TokenType::kIdentifier, std::move(text), start});
      continue;
    }
    // Number.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(in[i + 1])))) {
      std::size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(in[i]))) ++i;
      if (i < n && in[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(in[i]))) ++i;
      }
      if (i < n && (in[i] == 'e' || in[i] == 'E')) {
        std::size_t save = i;
        ++i;
        if (i < n && (in[i] == '+' || in[i] == '-')) ++i;
        if (i < n && std::isdigit(static_cast<unsigned char>(in[i]))) {
          is_float = true;
          while (i < n && std::isdigit(static_cast<unsigned char>(in[i]))) ++i;
        } else {
          i = save;  // not an exponent, e.g. "1e" in "1end"
        }
      }
      out.push_back({is_float ? TokenType::kFloat : TokenType::kInteger,
                     std::string(in.substr(start, i - start)), start});
      continue;
    }
    // Parameters.
    if (c == '?') {
      out.push_back({TokenType::kParameter, "?", i});
      ++i;
      continue;
    }
    if ((c == ':' || c == '$') && i + 1 < n && IsIdentChar(in[i + 1])) {
      std::size_t start = i;
      ++i;
      while (i < n && IsIdentChar(in[i])) ++i;
      out.push_back({TokenType::kParameter, "?", start});
      continue;
    }
    // Identifier or keyword.
    if (IsIdentStart(c)) {
      std::size_t start = i;
      while (i < n && IsIdentChar(in[i])) ++i;
      const std::string_view word = in.substr(start, i - start);
      if (word.size() <= kMaxKeywordLength) {
        char upper[kMaxKeywordLength];
        for (std::size_t k = 0; k < word.size(); ++k) {
          upper[k] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(word[k])));
        }
        const std::string_view upper_word(upper, word.size());
        if (IsReservedKeyword(upper_word)) {
          out.push_back({TokenType::kKeyword, std::string(upper_word), start});
          continue;
        }
      }
      out.push_back({TokenType::kIdentifier, std::string(word), start});
      continue;
    }
    // Multi-char operators.
    auto two = (i + 1 < n) ? in.substr(i, 2) : std::string_view();
    if (two == "!=" || two == "<>" || two == "<=" || two == ">=" ||
        two == "||") {
      out.push_back({TokenType::kOperator,
                     two == "<>" ? "!=" : std::string(two), i});
      i += 2;
      continue;
    }
    // Single-char operators.
    static const std::string kSingle = "=<>+-*/%.,();";
    if (kSingle.find(c) != std::string::npos) {
      out.push_back({TokenType::kOperator, std::string(1, c), i});
      ++i;
      continue;
    }
    error(i, StrFormat("unexpected character '%c'", c));
    return out;
  }
  out.push_back({TokenType::kEndOfInput, "", n});
  return out;
}

}  // namespace logr::sql
