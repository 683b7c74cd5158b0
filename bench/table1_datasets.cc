// Reproduces Table 1: "Summary of Data sets".
//
// Paper values for reference (synthetic stand-ins reproduce the shape,
// not the exact numbers — see EXPERIMENTS.md):
//   PocketData: 629,582 queries / 605 distinct / 605 w/o const /
//     135 conjunctive / 605 rewritable / max mult 48,651 /
//     863 features (= w/o const) / 14.78 features per query
//   US bank: 1,244,243 / 188,184 / 1,712 / 1,494 / 1,712 / 208,742 /
//     144,708 features (5,290 w/o const) / 16.56 features per query
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "data/table1.h"
#include "util/table_printer.h"
#include "workload/loader.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Table 1", "Summary of data sets (synthetic stand-ins)");

  const std::vector<LogEntry> pocket_log =
      GeneratePocketDataLog(PocketOptions());
  const std::vector<LogEntry> bank_log = GenerateBankLog(BankOptions());
  const DatasetSummary ps = LoadEntries(pocket_log).Summary("PocketData");
  const DatasetSummary bs = LoadEntries(bank_log).Summary("US bank");
  // The columns the constant-free log cannot give.
  const Table1Counts pt = Table1Statistics(pocket_log);
  const Table1Counts bt = Table1Statistics(bank_log);

  TablePrinter table({"Statistics", "PocketData", "US bank"});
  auto count = [](std::uint64_t v) {
    return TablePrinter::Fmt(static_cast<std::size_t>(v));
  };
  auto row = [&](const char* label, std::uint64_t a, std::uint64_t b) {
    table.AddRow({label, count(a), count(b)});
  };
  row("# Queries", ps.num_queries, bs.num_queries);
  row("# Distinct queries", pt.distinct_queries, bt.distinct_queries);
  row("# Distinct queries (w/o const)", ps.num_distinct_no_const,
      bs.num_distinct_no_const);
  row("# Distinct conjunctive queries", pt.distinct_conjunctive,
      bt.distinct_conjunctive);
  row("# Distinct re-writable queries", pt.distinct_rewritable,
      bt.distinct_rewritable);
  row("Max query multiplicity", ps.max_multiplicity, bs.max_multiplicity);
  row("# Distinct features", pt.distinct_features, bt.distinct_features);
  row("# Distinct features (w/o const)", ps.num_features_no_const,
      bs.num_features_no_const);
  table.AddRow({"Average features per query",
                TablePrinter::Fmt(ps.avg_features_per_query, 2),
                TablePrinter::Fmt(bs.avg_features_per_query, 2)});
  row("(funnel) non-SELECT ops", ps.num_non_select, bs.num_non_select);
  row("(funnel) unparseable", ps.num_parse_errors, bs.num_parse_errors);
  table.Print();
  return 0;
}
