#include "sql/lexer.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"

namespace logr::sql {

namespace {

// Sorted: FindKeyword binary-searches it, and enum Keyword lists it in
// this order.
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
static_assert(std::size(kKeywords) == static_cast<std::size_t>(Keyword::kWhere),
              "Keyword must list kKeywords in order, after kNone");

// ASCII character classes. In the "C" locale, which no binary here
// leaves, they agree with <cctype> on every byte (bytes >= 0x80 are in
// no class), without its per-call locale lookup.
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAlpha(char c) {
  const char lower = static_cast<char>(c | 0x20);
  return lower >= 'a' && lower <= 'z';
}
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr char ToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - ('a' - 'A')) : c;
}
constexpr bool IsIdentStart(char c) { return IsAlpha(c) || c == '_'; }
constexpr bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

Keyword FindKeyword(std::string_view upper_word) {
  const auto* it = std::lower_bound(std::begin(kKeywords),
                                    std::end(kKeywords), upper_word);
  if (it == std::end(kKeywords) || *it != upper_word) return Keyword::kNone;
  return static_cast<Keyword>(it - std::begin(kKeywords) + 1);
}

constexpr std::string_view kUnexpected = "unexpected character '";

}  // namespace

bool IsReservedKeyword(std::string_view upper_word) {
  return FindKeyword(upper_word) != Keyword::kNone;
}

std::string_view KeywordText(Keyword kw) {
  LOGR_CHECK(kw != Keyword::kNone);
  return kKeywords[static_cast<std::size_t>(kw) - 1];
}

TokenList Lex(std::string_view in) {
  TokenList out;
  std::vector<Token>& tokens = out.tokens;
  const std::size_t n = in.size();
  // SQL averages well over four bytes per token, spaces included.
  tokens.reserve(n / 4 + 2);
  std::size_t i = 0;

  auto push = [&](TokenType type, std::string_view text, std::size_t pos,
                  Keyword kw = Keyword::kNone) {
    tokens.push_back({type, kw, text, pos});
  };
  // Owned text goes to one buffer, allocated at first use with room for
  // everything a line can need: unescaped literals are shorter than
  // their quoted spans, and an error message ends the line.
  std::size_t owned_size = 0;
  auto own = [&](std::size_t len) {
    const std::size_t capacity = n + kUnexpected.size() + 2;
    if (!out.owned) out.owned.reset(new char[capacity]);
    LOGR_CHECK(owned_size + len <= capacity);
    char* at = out.owned.get() + owned_size;
    owned_size += len;
    return at;
  };

  while (i < n) {
    const char c = in[i];
    // Whitespace.
    if (IsSpace(c)) {
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
      const std::size_t start = i;
      i += 2;
      while (i + 1 < n && !(in[i] == '*' && in[i + 1] == '/')) ++i;
      if (i + 1 >= n) {
        push(TokenType::kError, "unterminated block comment", start);
        return out;
      }
      i += 2;
      continue;
    }
    // String literal: a view of its body, or an unescaped copy if it
    // has '' escapes.
    if (c == '\'') {
      const std::size_t start = i;
      ++i;
      bool escaped = false;
      bool closed = false;
      while (i < n) {
        if (in[i] == '\'') {
          if (i + 1 < n && in[i + 1] == '\'') {
            escaped = true;
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        ++i;
      }
      if (!closed) {
        push(TokenType::kError, "unterminated string literal", start);
        return out;
      }
      std::string_view text = in.substr(start + 1, i - start - 2);
      if (escaped) {
        // Every quote in the body is the first of a '' pair.
        char* at = own(text.size());
        std::size_t len = 0;
        for (std::size_t k = 0; k < text.size(); ++k) {
          at[len++] = text[k];
          if (text[k] == '\'') ++k;
        }
        owned_size -= text.size() - len;
        text = std::string_view(at, len);
      }
      push(TokenType::kString, text, start);
      continue;
    }
    // Quoted identifier: "name" or [name] or `name`.
    if (c == '"' || c == '[' || c == '`') {
      const char close = c == '[' ? ']' : c;
      const std::size_t start = i;
      ++i;
      while (i < n && in[i] != close) ++i;
      if (i >= n) {
        push(TokenType::kError, "unterminated quoted identifier", start);
        return out;
      }
      ++i;
      push(TokenType::kIdentifier, in.substr(start + 1, i - start - 2), start);
      continue;
    }
    // Number.
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(in[i + 1]))) {
      const std::size_t start = i;
      bool is_float = false;
      while (i < n && IsDigit(in[i])) ++i;
      if (i < n && in[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && IsDigit(in[i])) ++i;
      }
      if (i < n && (in[i] == 'e' || in[i] == 'E')) {
        const std::size_t save = i;
        ++i;
        if (i < n && (in[i] == '+' || in[i] == '-')) ++i;
        if (i < n && IsDigit(in[i])) {
          is_float = true;
          while (i < n && IsDigit(in[i])) ++i;
        } else {
          i = save;  // not an exponent, e.g. "1e" in "1end"
        }
      }
      push(is_float ? TokenType::kFloat : TokenType::kInteger,
           in.substr(start, i - start), start);
      continue;
    }
    // Parameters.
    if (c == '?') {
      push(TokenType::kParameter, "?", i);
      ++i;
      continue;
    }
    if ((c == ':' || c == '$') && i + 1 < n && IsIdentChar(in[i + 1])) {
      const std::size_t start = i;
      ++i;
      while (i < n && IsIdentChar(in[i])) ++i;
      push(TokenType::kParameter, "?", start);
      continue;
    }
    // Identifier or keyword.
    if (IsIdentStart(c)) {
      const std::size_t start = i;
      while (i < n && IsIdentChar(in[i])) ++i;
      const std::string_view word = in.substr(start, i - start);
      if (word.size() <= kMaxKeywordLength) {
        char upper[kMaxKeywordLength];
        for (std::size_t k = 0; k < word.size(); ++k) {
          upper[k] = ToUpper(word[k]);
        }
        const Keyword kw = FindKeyword(std::string_view(upper, word.size()));
        if (kw != Keyword::kNone) {
          push(TokenType::kKeyword, KeywordText(kw), start, kw);
          continue;
        }
      }
      push(TokenType::kIdentifier, word, start);
      continue;
    }
    // Multi-char operators.
    const std::string_view two =
        i + 1 < n ? in.substr(i, 2) : std::string_view();
    if (two == "!=" || two == "<>" || two == "<=" || two == ">=" ||
        two == "||") {
      push(TokenType::kOperator, two == "<>" ? "!=" : two, i);
      i += 2;
      continue;
    }
    // Single-char operators.
    switch (c) {
      case '=': case '<': case '>': case '+': case '-': case '*': case '/':
      case '%': case '.': case ',': case '(': case ')': case ';':
        push(TokenType::kOperator, in.substr(i, 1), i);
        ++i;
        continue;
      default:
        break;
    }
    char* msg = own(kUnexpected.size() + 2);
    kUnexpected.copy(msg, kUnexpected.size());
    msg[kUnexpected.size()] = c;
    msg[kUnexpected.size() + 1] = '\'';
    push(TokenType::kError, std::string_view(msg, kUnexpected.size() + 2), i);
    return out;
  }
  push(TokenType::kEndOfInput, std::string_view(), n);
  return out;
}

}  // namespace logr::sql
