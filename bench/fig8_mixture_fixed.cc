// Reproduces Figure 8: Laserlight Mixture Fixed vs classical Laserlight
// on the Income data.
//   8a  Laserlight Error vs #clusters (100 patterns total, distributed
//       with the Appendix D.3 weights w_i ∝ (m_i/n_i) e(E_i))
//   8b  Total runtime vs #clusters
//
// Paper take-away: both error and runtime improve exponentially as the
// data is partitioned (K = 1 is classical Laserlight).
#include <vector>

#include "bench_common.h"
#include "cluster/kmeans.h"
#include "summarize/mixture_baselines.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Figure 8",
         "Laserlight Mixture Fixed (100 patterns total) vs classical "
         "Laserlight on Income; error (8a) and runtime (8b) vs #clusters");

  BinaryDataset income = LoadIncome();
  const std::size_t budget = EnvSize("LOGR_FIXED_BUDGET", 100);
  const std::vector<std::size_t> ks = {1, 2, 4, 6, 8, 10, 14, 18};

  TablePrinter table(
      {"K", "laserlight_error", "naive_ref_error", "total_sec"});
  for (std::size_t k : ks) {
    PartitionedData data;
    data.rows = income.rows;
    data.labels = income.labels;
    data.n_features = income.n_features;
    data.num_clusters = k;
    if (k == 1) {
      data.assignment.assign(income.rows.size(), 0);
    } else {
      ClusterRequest km;
      km.k = k;
      km.num_features = income.n_features;
      km.seed = 11;
      km.n_init = 2;
      data.assignment = KMeansSparse(income.rows, {}, km).assignment;
    }

    Stopwatch timer;
    LaserlightOptions opts;
    opts.seed = 19;
    opts.max_ipf_iterations = 60;
    MixtureRunResult r =
        LaserlightMixture(data, FixedBudgets(data, budget), opts);
    double secs = timer.ElapsedSeconds();

    table.AddRow({TablePrinter::Fmt(k), TablePrinter::Fmt(r.total_error, 2),
                  TablePrinter::Fmt(NaiveLaserlightError(data), 2),
                  TablePrinter::Fmt(secs, 3)});
  }
  table.Print();
  std::printf("\nK = 1 is classical Laserlight; the paper reports "
              "exponentially decreasing error and runtime with K.\n");
  return 0;
}
