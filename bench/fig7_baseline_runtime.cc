// Reproduces Figure 7: baseline runtimes grow superlinearly with the
// number of mined patterns.
//   7a  Laserlight runtime vs #patterns (Income)
//   7b  MTV runtime vs #patterns (Mushroom)
//
// Each point is a fresh end-to-end run (as in the paper). Absolute
// numbers are far below the paper's (its Laserlight runs took up to
// ~6x10^4 s on 777k tuples); the superlinear growth is the claim.
#include <vector>

#include "bench_common.h"
#include "summarize/laserlight.h"
#include "summarize/mtv.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Figure 7",
         "Runtime vs #patterns: Laserlight on Income (7a), MTV on "
         "Mushroom (7b)");

  BinaryDataset income = LoadIncome();
  TablePrinter t7a({"num_patterns", "laserlight_sec"});
  for (std::size_t p : {4u, 8u, 16u, 24u, 32u, 48u}) {
    LaserlightOptions opts;
    opts.max_patterns = p;
    opts.seed = 3;
    Stopwatch timer;
    RunLaserlight(income.rows, income.labels, {}, opts);
    t7a.AddRow({TablePrinter::Fmt(p),
                TablePrinter::Fmt(timer.ElapsedSeconds(), 3)});
  }
  std::printf("-- 7a: Laserlight runtime (Income, |D| = %zu)\n",
              income.rows.size());
  t7a.Print();

  BinaryDataset mush = LoadMushroom();
  TablePrinter t7b({"num_patterns", "mtv_sec"});
  for (std::size_t p : {1u, 2u, 4u, 8u, 12u, 15u}) {
    MtvOptions opts;
    opts.max_candidates = 80;
    opts.max_itemset_size = 3;
    Stopwatch timer;
    RunMtv(mush.rows, {}, mush.n_features, p, opts);
    t7b.AddRow({TablePrinter::Fmt(p),
                TablePrinter::Fmt(timer.ElapsedSeconds(), 3)});
  }
  std::printf("\n-- 7b: MTV runtime (Mushroom, |D| = %zu)\n",
              mush.rows.size());
  t7b.Print();
  return 0;
}
