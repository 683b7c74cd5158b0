// Fuzz harness for the SQL text log loader (workload/loader.h).
//
// The input is a text log, read by ReadTextLog as `logr_cli compress`
// reads it: one statement per line, CRLF or LF, with an optional
// all-digit "COUNT<TAB>" prefix. Each line goes to a LogLoader on a
// 2-thread pool twice: as read, and with its literals before the first
// LIMIT or OFFSET rewritten (new values, and integer <-> string <->
// float, picked from the line's bytes), so the loader's template keys
// hit. The harness then checks the loader against each line parsed,
// regularized and printed on its own: the funnel counters, the number of
// distinct constant-free prints, and the log built from each line's own
// features. So batching can neither drop, double nor misfile a line, and
// a template key can never merge two templates. A log the reader refuses
// (a count past 64 bits, or counts summing past UINT64_MAX) must name the
// line it stopped at.
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "oracles/same_log.h"
#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/binary_log.h"
#include "workload/extractor.h"
#include "workload/loader.h"

namespace {

using logr::sql::Token;
using logr::sql::TokenType;

/// One past the closing quote of the string literal opening at `start`.
std::size_t StringLiteralEnd(std::string_view sql, std::size_t start) {
  std::size_t i = start + 1;
  while (i < sql.size()) {
    if (sql[i] != '\'') {
      ++i;
    } else if (i + 1 < sql.size() && sql[i + 1] == '\'') {
      i += 2;
    } else {
      return i + 1;
    }
  }
  return sql.size();
}

/// `sql` with every literal before its first LIMIT or OFFSET keyword
/// replaced by one of a fixed set, picked by a hash of the line.
std::string RewriteLiterals(std::string_view sql) {
  static constexpr std::string_view kLiterals[] = {
      "0", "42", "123456789012", "7.25", "1e3", ".5",
      "'x'", "''", "'it''s'", "'NY'",
  };
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (char c : sql) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  const logr::sql::TokenList list = logr::sql::Lex(sql);
  std::string out;
  std::size_t copied = 0;
  for (const Token& t : list.tokens) {
    if (t.IsKeyword(logr::sql::Keyword::kLimit) ||
        t.IsKeyword(logr::sql::Keyword::kOffset)) {
      break;
    }
    if (t.type != TokenType::kInteger && t.type != TokenType::kFloat &&
        t.type != TokenType::kString) {
      continue;
    }
    const std::size_t end = t.type == TokenType::kString
                                ? StringLiteralEnd(sql, t.position)
                                : t.position + t.text.size();
    out.append(sql.substr(copied, t.position - copied));
    out += ' ';
    out += kLiterals[(h >> 33) % std::size(kLiterals)];
    out += ' ';
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    copied = end;
  }
  out.append(sql.substr(copied));
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static logr::ThreadPool pool(2);
  logr::LogLoader::Options opts;
  opts.pool = &pool;
  logr::LogLoader loader(opts);

  // The oracle: each line on its own, as loader_test's serial load.
  std::uint64_t queries = 0, non_select = 0, parse_errors = 0;
  std::set<std::string> prints;
  logr::QueryLog oracle;
  auto add = [&](std::string_view sql, std::uint64_t count) {
    loader.AddSql(sql, count);
    if (count == 0) return;
    logr::sql::ParseResult parsed = logr::sql::Parse(sql);
    if (parsed.kind == logr::sql::StatementKind::kParseError) {
      parse_errors += count;
      return;
    }
    if (!parsed.ok()) {
      non_select += count;
      return;
    }
    queries += count;
    const logr::sql::StatementPtr regular = logr::sql::Regularize(
        std::move(parsed.statement), logr::sql::RegularizeOptions(), nullptr);
    prints.insert(logr::sql::PrintStatement(*regular));
    oracle.Add(logr::ExtractFeatures(*regular, logr::ExtractOptions(),
                                     oracle.mutable_vocabulary()),
               count, std::string(sql));
  };

  std::istringstream text(
      std::string(reinterpret_cast<const char*>(data), size));
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  std::uint64_t read_total = 0;
  std::string error;
  const bool read = logr::ReadTextLog(
      text,
      [&](std::string_view sql, std::uint64_t count) {
        lines.emplace_back(sql, count);
        read_total += count;
      },
      &error);
  LOGR_CHECK(read || error.rfind("line ", 0) == 0);
  // A copy adds its line's count again: copies stop where the log's
  // total would pass UINT64_MAX, which QueryLog refuses.
  std::uint64_t copy_budget = UINT64_MAX - read_total;
  for (const auto& [sql, count] : lines) {
    add(sql, count);
    if (count > copy_budget) continue;
    copy_budget -= count;
    add(RewriteLiterals(sql), count);
  }

  const logr::DatasetSummary s = loader.Summary("fuzz");
  LOGR_CHECK(s.num_queries == queries);
  LOGR_CHECK(s.num_non_select == non_select);
  LOGR_CHECK(s.num_parse_errors == parse_errors);
  LOGR_CHECK(s.num_distinct_no_const == prints.size());
  LOGR_CHECK(loader.log().TotalQueries() == queries);
  LOGR_CHECK(loader.log().NumDistinct() == oracle.NumDistinct());
  std::string why;
  LOGR_CHECK_MSG(logr::SameQueryLog(loader.log(), oracle, &why), why.c_str());
  return 0;
}
