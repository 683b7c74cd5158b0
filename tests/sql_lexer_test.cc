#include <cctype>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sql/lexer.h"

namespace logr::sql {
namespace {

/// Lexes `s`, which must outlive the returned list (tokens view it).
TokenList LexOk(std::string_view s) {
  TokenList t = Lex(s);
  EXPECT_FALSE(t.tokens.empty());
  EXPECT_EQ(t.tokens.back().type, TokenType::kEndOfInput) << "input: " << s;
  return t;
}

TEST(LexerTest, KeywordsUppercasedAndRecognized) {
  const TokenList lexed = LexOk("select From WHERE");
  const std::vector<Token>& t = lexed.tokens;
  ASSERT_EQ(t.size(), 4u);
  EXPECT_TRUE(t[0].IsKeyword(Keyword::kSelect));
  EXPECT_TRUE(t[1].IsKeyword(Keyword::kFrom));
  EXPECT_TRUE(t[2].IsKeyword(Keyword::kWhere));
}

TEST(LexerTest, EveryKeywordInMixedCase) {
  const std::vector<std::string> keywords = {
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
  ASSERT_EQ(keywords.size(), 60u);
  for (const std::string& kw : keywords) {
    std::string mixed = kw;  // "sElEcT": every other letter lowered
    std::string lower = kw;
    for (std::size_t i = 0; i < lower.size(); ++i) {
      lower[i] = static_cast<char>(
          std::tolower(static_cast<unsigned char>(lower[i])));
      if (i % 2 == 0) mixed[i] = lower[i];
    }
    for (const std::string& spelling : {kw, mixed, lower}) {
      const TokenList lexed = LexOk(spelling);
      const std::vector<Token>& t = lexed.tokens;
      ASSERT_EQ(t.size(), 2u) << spelling;
      EXPECT_EQ(t[0].type, TokenType::kKeyword) << spelling;
      EXPECT_EQ(t[0].text, kw) << spelling;
      EXPECT_EQ(KeywordText(t[0].keyword), kw) << spelling;
    }
  }
}

TEST(LexerTest, KeywordNearMissesStayIdentifiers) {
  // Keyword prefixes and extensions, and words past the longest keyword
  // (8 characters), keep their original spelling.
  for (std::string_view word :
       {"selected", "from_id", "Wheres", "ORDERS", "Distinct1", "distincts",
        "ExecuteNow", "_select", "SEL", "BETWEENX", "NaturalLy"}) {
    const TokenList lexed = LexOk(word);
    const std::vector<Token>& t = lexed.tokens;
    ASSERT_EQ(t.size(), 2u) << word;
    EXPECT_EQ(t[0].type, TokenType::kIdentifier) << word;
    EXPECT_EQ(t[0].text, word);
  }
}

TEST(LexerTest, IdentifiersKeepCase) {
  const TokenList lexed = LexOk("MyTable _col2");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t[0].type, TokenType::kIdentifier);
  EXPECT_EQ(t[0].text, "MyTable");
  EXPECT_EQ(t[1].text, "_col2");
}

TEST(LexerTest, Numbers) {
  const TokenList lexed = LexOk("42 4.5 .5 1e9 2E-3");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t[0].type, TokenType::kInteger);
  EXPECT_EQ(t[1].type, TokenType::kFloat);
  EXPECT_EQ(t[2].type, TokenType::kFloat);
  EXPECT_EQ(t[3].type, TokenType::kFloat);
  EXPECT_EQ(t[4].type, TokenType::kFloat);
}

TEST(LexerTest, StringsWithEscapes) {
  const TokenList lexed = LexOk("'it''s'");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t[0].type, TokenType::kString);
  EXPECT_EQ(t[0].text, "it's");
}

TEST(LexerTest, QuotedIdentifiers) {
  const TokenList lexed = LexOk("\"My Col\" [Another] `third`");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t[0].type, TokenType::kIdentifier);
  EXPECT_EQ(t[0].text, "My Col");
  EXPECT_EQ(t[1].text, "Another");
  EXPECT_EQ(t[2].text, "third");
}

TEST(LexerTest, ParametersNormalizedToQuestionMark) {
  const TokenList lexed = LexOk("? :name $1");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t[0].type, TokenType::kParameter);
  EXPECT_EQ(t[1].type, TokenType::kParameter);
  EXPECT_EQ(t[1].text, "?");
  EXPECT_EQ(t[2].type, TokenType::kParameter);
}

TEST(LexerTest, OperatorsIncludingTwoChar) {
  const TokenList lexed = LexOk("a != b <> c <= d >= e || f");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_TRUE(t[1].IsOperator("!="));
  EXPECT_TRUE(t[3].IsOperator("!="));  // <> normalized
  EXPECT_TRUE(t[5].IsOperator("<="));
  EXPECT_TRUE(t[7].IsOperator(">="));
  EXPECT_TRUE(t[9].IsOperator("||"));
}

TEST(LexerTest, CommentsSkipped) {
  const TokenList lexed =
      LexOk("select -- a comment\n x /* block\n comment */ y");
  const std::vector<Token>& t = lexed.tokens;
  ASSERT_EQ(t.size(), 4u);
  EXPECT_TRUE(t[0].IsKeyword(Keyword::kSelect));
  EXPECT_EQ(t[1].text, "x");
  EXPECT_EQ(t[2].text, "y");
}

TEST(LexerTest, UnterminatedStringIsError) {
  const TokenList lexed = Lex("select 'oops");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t.back().type, TokenType::kError);
}

TEST(LexerTest, UnterminatedCommentIsError) {
  const TokenList lexed = Lex("select /* oops");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t.back().type, TokenType::kError);
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  const TokenList lexed = Lex("select @bad");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t.back().type, TokenType::kError);
}

TEST(LexerTest, EscapedStringOwnsItsTextAndSurvivesAMove) {
  const std::string input = "'it''s' 'plain' '''' 'a''b''c'";
  TokenList lexed = LexOk(input);
  ASSERT_EQ(lexed.tokens.size(), 5u);
  const auto in_input = [&](const Token& t) {
    return t.text.data() >= input.data() &&
           t.text.data() + t.text.size() <= input.data() + input.size();
  };
  // Only the escaped literals are copies; a plain one views the input.
  EXPECT_FALSE(in_input(lexed.tokens[0]));
  EXPECT_TRUE(in_input(lexed.tokens[1]));
  EXPECT_FALSE(in_input(lexed.tokens[2]));
  const TokenList moved = std::move(lexed);
  const std::vector<Token>& t = moved.tokens;
  EXPECT_EQ(t[0].type, TokenType::kString);
  EXPECT_EQ(t[0].text, "it's");
  EXPECT_EQ(t[0].position, 0u);
  EXPECT_EQ(t[1].text, "plain");
  EXPECT_EQ(t[1].position, 8u);
  EXPECT_EQ(t[2].text, "'");
  EXPECT_EQ(t[3].text, "a'b'c");
  EXPECT_EQ(t[3].position, 21u);
}

TEST(LexerTest, ErrorTokenCarriesMessageAndPosition) {
  struct Case {
    std::string input;
    std::size_t position;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"select a, @b", 10, "unexpected character '@'"},
      {"select 'it''s", 7, "unterminated string literal"},
      {"select x /* oops", 9, "unterminated block comment"},
      {"select [a b", 7, "unterminated quoted identifier"},
  };
  for (const Case& c : cases) {
    const TokenList lexed = Lex(c.input);
    const Token& last = lexed.tokens.back();
    EXPECT_EQ(last.type, TokenType::kError) << c.input;
    EXPECT_EQ(last.position, c.position) << c.input;
    EXPECT_EQ(last.text, c.message) << c.input;
  }
}

TEST(LexerTest, NonAsciiByteEndsAnIdentifierWithAnError) {
  // Bytes >= 0x80 are in no character class: "café" lexes as the
  // identifier "caf", then an error on the first byte of the UTF-8 é.
  const std::string input = "select caf\xc3\xa9 from t";
  const TokenList lexed = Lex(input);
  const std::vector<Token>& t = lexed.tokens;
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1].type, TokenType::kIdentifier);
  EXPECT_EQ(t[1].text, "caf");
  EXPECT_EQ(t[2].type, TokenType::kError);
  EXPECT_EQ(t[2].position, 10u);
  EXPECT_EQ(t[2].text, "unexpected character '\xc3'");
}

TEST(LexerTest, NotEqualsSpellingsReadAsBang) {
  const TokenList lexed = LexOk("a<>b != c");
  const std::vector<Token>& t = lexed.tokens;
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[1].type, TokenType::kOperator);
  EXPECT_EQ(t[1].text, "!=");
  EXPECT_EQ(t[1].position, 1u);
  EXPECT_EQ(t[3].text, "!=");
  EXPECT_EQ(t[3].position, 5u);
}

TEST(LexerTest, PositionsTracked) {
  const TokenList lexed = LexOk("select x");
  const std::vector<Token>& t = lexed.tokens;
  EXPECT_EQ(t[0].position, 0u);
  EXPECT_EQ(t[1].position, 7u);
}

}  // namespace
}  // namespace logr::sql
