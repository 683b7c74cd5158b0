// Fuzz harness for the SQL text log loader (workload/loader.h).
//
// The input is a text log, read by ReadTextLog as `logr_cli compress`
// reads it: one statement per line, CRLF or LF, with an optional
// all-digit "COUNT<TAB>" prefix. The lines go through a LogLoader on a
// 2-thread pool, which parses and classifies them in batches on its
// workers; the harness then checks the funnel counters against each line
// parsed on its own by sql::Parse, so batching can neither drop, double
// nor misfile a line. A log the reader refuses (a count past 64 bits, or
// counts summing past UINT64_MAX) must name the line it stopped at.
//
// The low bit of the first byte (still part of the text) turns on the
// with-constants statistics, so both the plain path and the Table-1 path
// (statement clone, second regularization, shard fill) are fuzzed; the
// harness checks that exactly the tracked loaders report them.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "sql/parser.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/loader.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static logr::ThreadPool pool(2);
  logr::LogLoader::Options opts;
  opts.pool = &pool;
  opts.track_with_constant_stats = size > 0 && (data[0] & 1) != 0;
  logr::LogLoader loader(opts);

  std::uint64_t queries = 0, non_select = 0, parse_errors = 0;
  std::istringstream text(
      std::string(reinterpret_cast<const char*>(data), size));
  std::string error;
  const bool read = logr::ReadTextLog(
      text,
      [&](std::string_view sql, std::uint64_t count) {
        loader.AddSql(sql, count);
        if (count == 0) return;
        const logr::sql::ParseResult parsed = logr::sql::Parse(sql);
        if (parsed.kind == logr::sql::StatementKind::kParseError) {
          parse_errors += count;
        } else if (parsed.ok()) {
          queries += count;
        } else {
          non_select += count;
        }
      },
      &error);
  LOGR_CHECK(read || error.rfind("line ", 0) == 0);

  const logr::DatasetSummary s = loader.Summary("fuzz");
  LOGR_CHECK(s.num_queries == queries);
  LOGR_CHECK(s.num_non_select == non_select);
  LOGR_CHECK(s.num_parse_errors == parse_errors);
  LOGR_CHECK(loader.log().TotalQueries() == queries);
  constexpr std::uint64_t kNotTracked = logr::DatasetSummary::kNotTracked;
  LOGR_CHECK((s.num_distinct != kNotTracked) ==
             opts.track_with_constant_stats);
  LOGR_CHECK((s.num_features != kNotTracked) ==
             opts.track_with_constant_stats);
  LOGR_CHECK(!opts.track_with_constant_stats ||
             (s.num_distinct > 0) == (queries > 0));
  return 0;
}
