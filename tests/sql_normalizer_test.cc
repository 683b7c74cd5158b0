#include "gtest/gtest.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace logr::sql {
namespace {

StatementPtr ParseOk(std::string_view s) {
  ParseResult r = Parse(s);
  EXPECT_TRUE(r.ok()) << "input: " << s << " error: " << r.error;
  return std::move(r.statement);
}

std::string RegularizedText(std::string_view sql,
                            RegularizeInfo* info = nullptr) {
  auto stmt = ParseOk(sql);
  RegularizeInfo local;
  StatementPtr out =
      Regularize(*stmt, RegularizeOptions(), info ? info : &local);
  return PrintStatement(*out);
}

TEST(NormalizerTest, LowercasesIdentifiers) {
  EXPECT_EQ(RegularizedText("SELECT Foo FROM Messages WHERE Bar = ?"),
            "SELECT foo FROM messages WHERE bar = ?");
}

TEST(NormalizerTest, AnonymizesConstants) {
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE x = 42 AND y = 'NY'"),
            "SELECT a FROM t WHERE x = ? AND y = ?");
}

TEST(NormalizerTest, KeepsLimitConstantsByDefault) {
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE x = 5 LIMIT 10"),
            "SELECT a FROM t WHERE x = ? LIMIT 10");
}

TEST(NormalizerTest, PushesNotThroughComparisons) {
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE NOT x = ?"),
            "SELECT a FROM t WHERE x != ?");
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE NOT x < ?"),
            "SELECT a FROM t WHERE x >= ?");
}

TEST(NormalizerTest, DeMorganAndDnf) {
  // NOT (p = 1 OR q = 2) -> p != ? AND q != ?  (one conjunctive block)
  RegularizeInfo info;
  std::string out = RegularizedText(
      "SELECT a FROM t WHERE NOT (p = 1 OR q = 2)", &info);
  EXPECT_EQ(out, "SELECT a FROM t WHERE p != ? AND q != ?");
  EXPECT_TRUE(info.rewritable);
}

TEST(NormalizerTest, DoubleNegationCancels) {
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE NOT NOT x = ?"),
            "SELECT a FROM t WHERE x = ?");
}

TEST(NormalizerTest, BetweenSplitsIntoRangeAtoms) {
  std::string out =
      RegularizedText("SELECT a FROM t WHERE x BETWEEN 1 AND 5");
  EXPECT_EQ(out, "SELECT a FROM t WHERE x <= ? AND x >= ?");
}

TEST(NormalizerTest, NotBetweenBecomesUnion) {
  RegularizeInfo info;
  std::string out =
      RegularizedText("SELECT a FROM t WHERE x NOT BETWEEN 1 AND 5", &info);
  EXPECT_EQ(out,
            "SELECT a FROM t WHERE x < ? UNION SELECT a FROM t WHERE x > ?");
  EXPECT_TRUE(info.rewritable);
  EXPECT_FALSE(info.conjunctive);
}

TEST(NormalizerTest, InListCollapsesUnderConstantRemoval) {
  // After constant removal every disjunct is x = ?, so the union
  // deduplicates to a single conjunctive block.
  RegularizeInfo info;
  std::string out =
      RegularizedText("SELECT a FROM t WHERE x IN (1, 2, 3)", &info);
  EXPECT_EQ(out, "SELECT a FROM t WHERE x = ?");
  // ... but the original query is still counted as non-conjunctive.
  EXPECT_FALSE(info.conjunctive);
  EXPECT_TRUE(info.rewritable);
}

TEST(NormalizerTest, OrBecomesUnionOfConjunctiveBlocks) {
  RegularizeInfo info;
  std::string out = RegularizedText(
      "SELECT a FROM t WHERE p = 1 OR q = 2", &info);
  EXPECT_EQ(out,
            "SELECT a FROM t WHERE p = ? UNION SELECT a FROM t WHERE q = ?");
  EXPECT_FALSE(info.conjunctive);
  EXPECT_TRUE(info.rewritable);
}

TEST(NormalizerTest, DistributesAndOverOr) {
  RegularizeInfo info;
  std::string out = RegularizedText(
      "SELECT a FROM t WHERE s = 9 AND (p = 1 OR q = 2)", &info);
  EXPECT_EQ(out,
            "SELECT a FROM t WHERE p = ? AND s = ? UNION "
            "SELECT a FROM t WHERE q = ? AND s = ?");
}

TEST(NormalizerTest, ConjunctiveDetection) {
  RegularizeInfo info;
  RegularizedText("SELECT a FROM t WHERE x = 1 AND y > 2", &info);
  EXPECT_TRUE(info.conjunctive);
  RegularizedText("SELECT a FROM t WHERE x = 1 OR y > 2", &info);
  EXPECT_FALSE(info.conjunctive);
  RegularizedText("SELECT a FROM t WHERE x BETWEEN 1 AND 2", &info);
  EXPECT_TRUE(info.conjunctive);  // BETWEEN is a conjunction
  RegularizedText("SELECT a FROM t", &info);
  EXPECT_TRUE(info.conjunctive);
  RegularizedText("SELECT a FROM t UNION SELECT b FROM u", &info);
  EXPECT_FALSE(info.conjunctive);
}

TEST(NormalizerTest, ConjunctiveAtomsAreSortedCanonically) {
  // The same conjunction in different orders regularizes identically —
  // required for distinct-query counting.
  std::string a = RegularizedText("SELECT a FROM t WHERE x = 1 AND y = 2");
  std::string b = RegularizedText("SELECT a FROM t WHERE y = 9 AND x = 3");
  EXPECT_EQ(a, b);
}

TEST(NormalizerTest, DuplicateAtomsDeduplicated) {
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE x = 1 AND x = 2"),
            "SELECT a FROM t WHERE x = ?");
}

TEST(NormalizerTest, DnfCapMarksUnrewritable) {
  // 2^8 disjuncts exceeds a cap of 64.
  std::string sql = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 8; ++i) {
    if (i) sql += " AND ";
    sql += "(p" + std::to_string(i) + " = 1 OR q" + std::to_string(i) +
           " = 2)";
  }
  auto stmt = ParseOk(sql);
  RegularizeInfo info;
  Regularize(*stmt, RegularizeOptions(), &info);
  EXPECT_FALSE(info.rewritable);
}

TEST(NormalizerTest, NotOfLikeAndIsNullTogglesNegation) {
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE NOT x LIKE 'y%'"),
            "SELECT a FROM t WHERE x NOT LIKE ?");
  EXPECT_EQ(RegularizedText("SELECT a FROM t WHERE NOT x IS NULL"),
            "SELECT a FROM t WHERE x IS NOT NULL");
}

TEST(NormalizerTest, SubqueriesAreRegularizedToo) {
  std::string out = RegularizedText(
      "SELECT a FROM (SELECT B FROM U WHERE C = 7) d WHERE a = 1");
  EXPECT_EQ(out,
            "SELECT a FROM (SELECT b FROM u WHERE c = ?) d WHERE a = ?");
}

TEST(NormalizerTest, IsConjunctiveOnStatements) {
  EXPECT_TRUE(IsConjunctive(*ParseOk("SELECT a FROM t WHERE x = 1")));
  EXPECT_FALSE(IsConjunctive(*ParseOk("SELECT a FROM t WHERE x IN (1,2)")));
  // Single-item IN is an equality in disguise.
  EXPECT_TRUE(IsConjunctive(*ParseOk("SELECT a FROM t WHERE x IN (1)")));
  EXPECT_FALSE(
      IsConjunctive(*ParseOk("SELECT a FROM t WHERE NOT (x = 1 AND y = 2)")));
}

}  // namespace
}  // namespace logr::sql
