// Reproduces Figure 6: classical baseline error vs number of patterns.
//   6a  Laserlight Error vs #patterns on Income, with the naive
//       encoding's error and verbosity as reference lines.
//   6b  MTV Error vs #patterns on Mushroom (ceiling of 15 patterns;
//       requests beyond it "quit with error message"), naive reference.
//
// Paper take-aways: the naive encoding beats Laserlight at equal
// verbosity; error reduction flattens after ~100 patterns; MTV cannot
// reach the naive encoding's verbosity at all.
//
// Scale note: the paper sweeps Laserlight to 783 patterns over 777k
// tuples (taking ~6x10^4 seconds, its Fig. 7a); the default here sweeps
// to 48 patterns over LOGR_ROWS=4000 rows. The trajectory comes from a
// single run (error after each added pattern), exactly like the paper's.
#include <cmath>

#include "bench_common.h"
#include "maxent/entropy.h"
#include "summarize/errors.h"
#include "summarize/laserlight.h"
#include "summarize/mtv.h"
#include "util/table_printer.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Figure 6",
         "Laserlight Error vs #patterns (Income, 6a); MTV Error vs "
         "#patterns (Mushroom, 6b); naive encodings as references");

  // ---- 6a: Laserlight on Income ----
  BinaryDataset income = LoadIncome();
  const std::size_t max_ll_patterns = EnvSize("LOGR_LL_PATTERNS", 48);
  double pos_rate = 0.0;
  for (double v : income.labels) pos_rate += v;
  pos_rate /= static_cast<double>(income.labels.size());

  LaserlightOptions ll_opts;
  ll_opts.max_patterns = max_ll_patterns;
  ll_opts.seed = 3;
  LaserlightSummary ll =
      RunLaserlight(income.rows, income.labels, {}, ll_opts);

  TablePrinter t6a({"num_patterns", "laserlight_error"});
  for (std::size_t p = 0; p < ll.error_trajectory.size(); ++p) {
    if (p < 8 || p % 4 == 0 || p + 1 == ll.error_trajectory.size()) {
      t6a.AddRow({TablePrinter::Fmt(p),
                  TablePrinter::Fmt(ll.error_trajectory[p], 2)});
    }
  }
  std::printf("-- 6a: Laserlight on Income (|D| = %zu)\n",
              income.rows.size());
  t6a.Print();
  double naive_ll =
      LaserlightErrorOfNaive(static_cast<double>(income.rows.size()),
                             pos_rate);
  std::printf(
      "Naive encoding reference: error = %.2f at verbosity = %zu\n\n",
      naive_ll, income.distinct_features);

  // ---- 6b: MTV on Mushroom ----
  BinaryDataset mush = LoadMushroom();
  MtvOptions mtv_opts;
  mtv_opts.max_candidates = 80;
  mtv_opts.max_itemset_size = 3;
  MtvSummary mtv =
      RunMtv(mush.rows, {}, mush.n_features, 15, mtv_opts);

  TablePrinter t6b({"num_patterns", "mtv_error"});
  for (std::size_t p = 0; p < mtv.bic_trajectory.size(); ++p) {
    t6b.AddRow({TablePrinter::Fmt(p),
                TablePrinter::Fmt(mtv.bic_trajectory[p], 1)});
  }
  std::printf("-- 6b: MTV on Mushroom (|D| = %zu, ceiling 15 patterns)\n",
              mush.rows.size());
  t6b.Print();

  std::vector<double> marginals(mush.n_features, 0.0);
  for (const FeatureVec& r : mush.rows) {
    for (FeatureId f : r.ids) marginals[f] += 1.0;
  }
  for (double& m : marginals) m /= static_cast<double>(mush.rows.size());
  std::printf("Naive encoding reference: error = %.1f\n",
              MtvErrorOfNaive(static_cast<double>(mush.rows.size()),
                              marginals));
  // Demonstrate the ceiling.
  MtvSummary over = RunMtv(mush.rows, {}, mush.n_features, 16, mtv_opts);
  std::printf("Requesting 16 patterns: %s\n", over.error_message.c_str());
  return 0;
}
