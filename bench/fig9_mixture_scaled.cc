// Reproduces Figure 9: naive mixture encodings vs Laserlight/MTV
// Mixture Scaled on the Mushroom data.
//   9a  Laserlight Error vs #clusters: naive mixture, Laserlight Mixture
//       Scaled (patterns per cluster = the cluster's naive verbosity),
//       plus naive-encoding and classical-Laserlight reference lines.
//   9b  MTV Error vs #clusters: naive mixture vs MTV Mixture Scaled
//       (ceiling-limited to 15 patterns per cluster, so the verbosities
//       are not on equal footing — the paper says the same).
//
// Paper take-aways: Laserlight Mixture Scaled wins below ~4 clusters,
// converges with naive mixture by ~6; naive mixture (marginally)
// outperforms MTV Mixture Scaled throughout.
//
// LOGR_SCALED_CAP (default 25) caps the scaled per-cluster budget; raise
// it toward 95 for a full-fidelity (slower) run.
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "cluster/kmeans.h"
#include "summarize/mixture_baselines.h"
#include "util/table_printer.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Figure 9",
         "Naive mixture vs Laserlight/MTV Mixture Scaled on Mushroom; "
         "Laserlight Error (9a) and MTV Error (9b) vs #clusters");

  BinaryDataset mush = LoadMushroom();
  const std::size_t cap = EnvSize("LOGR_SCALED_CAP", 25);
  const std::vector<std::size_t> ks = {2, 4, 6, 8, 12, 18};

  // Classical references at K = 1.
  PartitionedData whole;
  whole.rows = mush.rows;
  whole.labels = mush.labels;
  whole.n_features = mush.n_features;
  whole.num_clusters = 1;
  whole.assignment.assign(mush.rows.size(), 0);
  LaserlightOptions ll_opts;
  ll_opts.seed = 19;
  ll_opts.max_ipf_iterations = 60;
  MtvOptions mtv_opts;
  mtv_opts.max_candidates = 60;
  mtv_opts.max_itemset_size = 3;

  std::vector<std::size_t> whole_budget = {
      std::min<std::size_t>(cap, NaiveVerbosityBudgets(whole)[0])};
  double classical_ll =
      LaserlightMixture(whole, whole_budget, ll_opts).total_error;
  std::vector<std::size_t> whole_mtv_budget = {15};
  double classical_mtv =
      MtvMixture(whole, whole_mtv_budget, mtv_opts).total_error;
  double naive_ll_ref = NaiveLaserlightError(whole);
  double naive_mtv_ref = NaiveMtvError(whole);

  TablePrinter table({"K", "naive_mix_LLerr", "LL_scaled_err",
                      "naive_mix_MTVerr", "MTV_scaled_err"});
  for (std::size_t k : ks) {
    PartitionedData data = whole;
    data.num_clusters = k;
    ClusterRequest km;
    km.k = k;
    km.num_features = mush.n_features;
    km.seed = 23;
    km.n_init = 2;
    data.assignment = KMeansSparse(mush.rows, {}, km).assignment;

    // Scaled budgets: per-cluster naive verbosity (capped).
    std::vector<std::size_t> budgets = NaiveVerbosityBudgets(data);
    for (std::size_t& b : budgets) b = std::min(b, cap);
    MixtureRunResult ll = LaserlightMixture(data, budgets, ll_opts);

    std::vector<std::size_t> mtv_budgets = budgets;
    for (std::size_t& b : mtv_budgets) b = std::min<std::size_t>(b, 15);
    MixtureRunResult mtv = MtvMixture(data, mtv_budgets, mtv_opts);

    table.AddRow({TablePrinter::Fmt(k),
                  TablePrinter::Fmt(NaiveLaserlightError(data), 2),
                  TablePrinter::Fmt(ll.total_error, 2),
                  TablePrinter::Fmt(NaiveMtvError(data), 1),
                  TablePrinter::Fmt(mtv.total_error, 1)});
  }
  table.Print();
  std::printf(
      "\nReferences (K=1): naive encoding LL err = %.2f, classical "
      "Laserlight = %.2f, naive encoding MTV err = %.1f, classical MTV "
      "= %.1f\n",
      naive_ll_ref, classical_ll, naive_mtv_ref, classical_mtv);
  return 0;
}
