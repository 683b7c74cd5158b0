// Reproduces Table 1: "Summary of Data sets".
//
// Paper values for reference (synthetic stand-ins reproduce the shape,
// not the exact numbers — see EXPERIMENTS.md):
//   PocketData: 629,582 queries / 605 distinct / 605 w/o const /
//     135 conjunctive / 605 rewritable / max mult 48,651 /
//     863 features (= w/o const) / 14.78 features per query
//   US bank: 1,244,243 / 188,184 / 1,712 / 1,494 / 1,712 / 208,742 /
//     144,708 features (5,290 w/o const) / 16.56 features per query
#include <string>
#include <utility>

#include "bench_common.h"
#include "util/table_printer.h"
#include "workload/loader.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Table 1", "Summary of data sets (synthetic stand-ins)");

  // Table 1 reports the with-constants columns, which a loader tracks
  // only on request.
  LogLoader::Options table1;
  table1.track_with_constant_stats = true;
  LogLoader pocket =
      LoadEntries(GeneratePocketDataLog(PocketOptions()), table1);
  LogLoader bank = LoadEntries(GenerateBankLog(BankOptions()), table1);
  DatasetSummary ps = pocket.Summary("PocketData");
  DatasetSummary bs = bank.Summary("US bank");

  TablePrinter table({"Statistics", "PocketData", "US bank"});
  auto count = [](std::uint64_t v) {
    return TablePrinter::Fmt(static_cast<std::size_t>(v));
  };
  // The with-constants cells read "n/a" if the loader did not track them.
  auto with_const = [&](std::uint64_t v) {
    return v == DatasetSummary::kNotTracked ? std::string("n/a") : count(v);
  };
  auto row = [&](const char* label, std::string a, std::string b) {
    table.AddRow({label, std::move(a), std::move(b)});
  };
  row("# Queries", count(ps.num_queries), count(bs.num_queries));
  row("# Distinct queries", with_const(ps.num_distinct),
      with_const(bs.num_distinct));
  row("# Distinct queries (w/o const)", count(ps.num_distinct_no_const),
      count(bs.num_distinct_no_const));
  row("# Distinct conjunctive queries", count(ps.num_distinct_conjunctive),
      count(bs.num_distinct_conjunctive));
  row("# Distinct re-writable queries", count(ps.num_distinct_rewritable),
      count(bs.num_distinct_rewritable));
  row("Max query multiplicity", count(ps.max_multiplicity),
      count(bs.max_multiplicity));
  row("# Distinct features", with_const(ps.num_features),
      with_const(bs.num_features));
  row("# Distinct features (w/o const)", count(ps.num_features_no_const),
      count(bs.num_features_no_const));
  table.AddRow({"Average features per query",
                TablePrinter::Fmt(ps.avg_features_per_query, 2),
                TablePrinter::Fmt(bs.avg_features_per_query, 2)});
  row("(funnel) non-SELECT ops", count(ps.num_non_select),
      count(bs.num_non_select));
  row("(funnel) unparseable", count(ps.num_parse_errors),
      count(bs.num_parse_errors));
  table.Print();
  return 0;
}
