#include <cctype>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sql/lexer.h"
#include "util/string_util.h"

namespace logr::sql {
namespace {

std::vector<Token> LexOk(std::string_view s) {
  std::vector<Token> t = Lex(s);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.back().type, TokenType::kEndOfInput) << "input: " << s;
  return t;
}

TEST(LexerTest, KeywordsUppercasedAndRecognized) {
  auto t = LexOk("select From WHERE");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_TRUE(t[1].IsKeyword("FROM"));
  EXPECT_TRUE(t[2].IsKeyword("WHERE"));
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
    for (std::size_t i = 0; i < mixed.size(); i += 2) {
      mixed[i] = static_cast<char>(
          std::tolower(static_cast<unsigned char>(mixed[i])));
    }
    for (const std::string& spelling : {kw, mixed, ToLower(kw)}) {
      auto t = LexOk(spelling);
      ASSERT_EQ(t.size(), 2u) << spelling;
      EXPECT_EQ(t[0].type, TokenType::kKeyword) << spelling;
      EXPECT_EQ(t[0].text, kw) << spelling;
    }
    EXPECT_TRUE(IsReservedKeyword(kw));
  }
}

TEST(LexerTest, KeywordNearMissesStayIdentifiers) {
  // Keyword prefixes and extensions, and words past the longest keyword
  // (8 characters), keep their original spelling.
  for (std::string_view word :
       {"selected", "from_id", "Wheres", "ORDERS", "Distinct1", "distincts",
        "ExecuteNow", "_select", "SEL", "BETWEENX", "NaturalLy"}) {
    auto t = LexOk(word);
    ASSERT_EQ(t.size(), 2u) << word;
    EXPECT_EQ(t[0].type, TokenType::kIdentifier) << word;
    EXPECT_EQ(t[0].text, word);
  }
  EXPECT_FALSE(IsReservedKeyword("select"));  // the table is uppercase
  EXPECT_FALSE(IsReservedKeyword(""));
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto t = LexOk("MyTable _col2");
  EXPECT_EQ(t[0].type, TokenType::kIdentifier);
  EXPECT_EQ(t[0].text, "MyTable");
  EXPECT_EQ(t[1].text, "_col2");
}

TEST(LexerTest, Numbers) {
  auto t = LexOk("42 4.5 .5 1e9 2E-3");
  EXPECT_EQ(t[0].type, TokenType::kInteger);
  EXPECT_EQ(t[1].type, TokenType::kFloat);
  EXPECT_EQ(t[2].type, TokenType::kFloat);
  EXPECT_EQ(t[3].type, TokenType::kFloat);
  EXPECT_EQ(t[4].type, TokenType::kFloat);
}

TEST(LexerTest, StringsWithEscapes) {
  auto t = LexOk("'it''s'");
  EXPECT_EQ(t[0].type, TokenType::kString);
  EXPECT_EQ(t[0].text, "it's");
}

TEST(LexerTest, QuotedIdentifiers) {
  auto t = LexOk("\"My Col\" [Another] `third`");
  EXPECT_EQ(t[0].type, TokenType::kIdentifier);
  EXPECT_EQ(t[0].text, "My Col");
  EXPECT_EQ(t[1].text, "Another");
  EXPECT_EQ(t[2].text, "third");
}

TEST(LexerTest, ParametersNormalizedToQuestionMark) {
  auto t = LexOk("? :name $1");
  EXPECT_EQ(t[0].type, TokenType::kParameter);
  EXPECT_EQ(t[1].type, TokenType::kParameter);
  EXPECT_EQ(t[1].text, "?");
  EXPECT_EQ(t[2].type, TokenType::kParameter);
}

TEST(LexerTest, OperatorsIncludingTwoChar) {
  auto t = LexOk("a != b <> c <= d >= e || f");
  EXPECT_TRUE(t[1].IsOperator("!="));
  EXPECT_TRUE(t[3].IsOperator("!="));  // <> normalized
  EXPECT_TRUE(t[5].IsOperator("<="));
  EXPECT_TRUE(t[7].IsOperator(">="));
  EXPECT_TRUE(t[9].IsOperator("||"));
}

TEST(LexerTest, CommentsSkipped) {
  auto t = LexOk("select -- a comment\n x /* block\n comment */ y");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].text, "x");
  EXPECT_EQ(t[2].text, "y");
}

TEST(LexerTest, UnterminatedStringIsError) {
  auto t = Lex("select 'oops");
  EXPECT_EQ(t.back().type, TokenType::kError);
}

TEST(LexerTest, UnterminatedCommentIsError) {
  auto t = Lex("select /* oops");
  EXPECT_EQ(t.back().type, TokenType::kError);
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  auto t = Lex("select @bad");
  EXPECT_EQ(t.back().type, TokenType::kError);
}

TEST(LexerTest, PositionsTracked) {
  auto t = LexOk("select x");
  EXPECT_EQ(t[0].position, 0u);
  EXPECT_EQ(t[1].position, 7u);
}

}  // namespace
}  // namespace logr::sql
