// Front-end golden: the SQL front end (lex, parse, regularize with and
// without constants, print, list features) is held byte for byte to
// tests/testdata/front_end_golden.txt, recorded before the lexer,
// printer and normalizer were rewritten for speed.
//
// One record per distinct line of tests/testdata/golden.sql and of every
// file under fuzz/corpus/sql_loader/, read by ReadTextLog as the CLI
// reads a text log (count prefix and trailing CR stripped):
//
//   select <c|-><r|-> <digest>\t<constant-free print>\t<with-constants print>
//   error <position> <digest>\t<message>
//   <non-SELECT kind> <digest>
//
// `c`/`r` are RegularizeInfo's conjunctive/rewritable flags, and
// <digest> is an FNV-1a hash of the token stream (type, position, text)
// and of both feature lists. A file of more than 64 distinct lines, and
// each of the default bank and PocketData logs, is one digest line over
// all its records instead.
//
// On a mismatch the test writes what it computed next to the gtest
// temp dir and names the first differing line. Regenerate the golden
// only for an intended change of canonical form: copy that file over it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/bank.h"
#include "data/pocketdata.h"
#include "gtest/gtest.h"
#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/string_util.h"
#include "workload/extractor.h"
#include "workload/feature.h"
#include "workload/loader.h"

namespace logr {
namespace {

class Fnv {
 public:
  void Add(std::string_view bytes) {
    for (char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::string Hex() const { return StrFormat("%016llx", hash_); }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  unsigned long long hash_ = 14695981039346656037ull;
};

const char* KindName(sql::StatementKind kind) {
  switch (kind) {
    case sql::StatementKind::kSelect: return "select";
    case sql::StatementKind::kInsert: return "insert";
    case sql::StatementKind::kUpdate: return "update";
    case sql::StatementKind::kDelete: return "delete";
    case sql::StatementKind::kDdl: return "ddl";
    case sql::StatementKind::kProcedureCall: return "call";
    case sql::StatementKind::kOther: return "other";
    case sql::StatementKind::kParseError: return "error";
  }
  return "?";
}

void AddFeatures(const sql::Statement& stmt, Fnv* digest) {
  for (const Feature& f : ListFeatures(stmt, {})) {
    digest->Add(Vocabulary::Key(f));
    digest->Add(std::string_view("\n"));
  }
}

/// The record of one statement, as the loader's workers compute it.
std::string Record(std::string_view sql_text) {
  Fnv digest;
  const sql::TokenList tokens = sql::Lex(sql_text);
  for (const sql::Token& t : tokens.tokens) {
    digest.Add(static_cast<std::uint64_t>(t.type));
    digest.Add(static_cast<std::uint64_t>(t.position));
    digest.Add(static_cast<std::uint64_t>(t.text.size()));
    digest.Add(t.text);
  }
  sql::ParseResult parsed = sql::Parse(sql_text);
  if (parsed.kind == sql::StatementKind::kParseError) {
    return StrFormat("error %zu %s\t%s", parsed.error_position,
                     digest.Hex().c_str(), parsed.error.c_str());
  }
  if (!parsed.ok()) {
    return StrFormat("%s %s", KindName(parsed.kind), digest.Hex().c_str());
  }

  sql::RegularizeOptions keep_consts;
  keep_consts.anonymize_constants = false;
  const sql::StatementPtr constants =
      sql::Regularize(*parsed.statement, keep_consts, nullptr);
  sql::RegularizeInfo info;
  const sql::StatementPtr regular =
      sql::Regularize(*parsed.statement, {}, &info);
  AddFeatures(*regular, &digest);
  AddFeatures(*constants, &digest);
  return StrFormat("select %c%c %s\t%s\t%s", info.conjunctive ? 'c' : '-',
                   info.rewritable ? 'r' : '-', digest.Hex().c_str(),
                   sql::PrintStatement(*regular).c_str(),
                   sql::PrintStatement(*constants).c_str());
}

/// The records of `lines`, or for a long list one digest line over them.
void AppendRecords(const std::string& label,
                   const std::vector<std::string>& lines, std::string* out) {
  constexpr std::size_t kMaxListed = 64;
  if (lines.size() <= kMaxListed) {
    *out += "# " + label + "\n";
    for (const std::string& sql_text : lines) *out += Record(sql_text) + "\n";
    return;
  }
  Fnv digest;
  for (const std::string& sql_text : lines) {
    digest.Add(Record(sql_text) + "\n");
  }
  *out += StrFormat("# %s: %zu lines, digest %s\n", label.c_str(),
                    lines.size(), digest.Hex().c_str());
}

void AppendFile(const std::string& path, const std::string& label,
                std::string* out) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(in)) << "missing fixture: " << path;
  std::vector<std::string> lines;
  std::set<std::string> seen;
  std::string error;
  ASSERT_TRUE(ReadTextLog(
      in,
      [&](std::string_view sql_text, std::uint64_t) {
        if (sql_text.empty() || !seen.emplace(sql_text).second) return;
        lines.emplace_back(sql_text);
      },
      &error))
      << error;
  AppendRecords(label, lines, out);
}

template <typename Entries>
void AppendGenerated(const std::string& label, const Entries& entries,
                     std::string* out) {
  std::vector<std::string> lines;
  for (const auto& e : entries) lines.push_back(e.sql);
  AppendRecords(label, lines, out);
}

std::string ComputeGolden() {
  std::string out;
  AppendFile(std::string(LOGR_TESTDATA_DIR) + "/golden.sql", "golden.sql",
             &out);
  const std::string corpus =
      std::string(LOGR_FUZZ_CORPUS_DIR) + "/sql_loader";
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    AppendFile(corpus + "/" + name, "sql_loader/" + name, &out);
  }
  AppendGenerated("bank", GenerateBankLog(BankLogOptions()), &out);
  AppendGenerated("pocketdata", GeneratePocketDataLog(PocketDataOptions()),
               &out);
  return out;
}

TEST(FrontEndGoldenTest, EveryRecordMatchesByteForByte) {
  const std::string path =
      std::string(LOGR_TESTDATA_DIR) + "/front_end_golden.txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing golden: " << path;
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  const std::string actual = ComputeGolden();
  if (actual == expected) return;

  const std::string actual_path =
      ::testing::TempDir() + "front_end_golden.actual.txt";
  std::ofstream(actual_path, std::ios::binary) << actual;
  std::istringstream a(actual), e(expected);
  std::string la, le;
  for (std::size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_e = static_cast<bool>(std::getline(e, le));
    if (!more_a && !more_e) break;
    if (more_a != more_e || la != le) {
      ADD_FAILURE() << "line " << line << " differs\n  golden: " << le
                    << "\n  actual: " << la << "\nfull output: "
                    << actual_path;
      return;
    }
  }
  ADD_FAILURE() << "outputs differ; full output: " << actual_path;
}

}  // namespace
}  // namespace logr
