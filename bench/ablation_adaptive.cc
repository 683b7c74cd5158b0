// Ablation (beyond the paper's figures): how to spend the cluster
// budget. Compares three partitioning strategies at equal K on both
// workloads:
//   * flat k-means (the paper's default),
//   * hierarchical average-linkage cuts (paper Sec. 6.1.1 alternative),
//   * adaptive error-driven bisection (App. E's "sub-cluster the messy
//     cluster" strategy, implemented as CompressAdaptive).
#include <vector>

#include "bench_common.h"
#include "core/logr_compressor.h"
#include "util/table_printer.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Ablation: cluster-budget allocation",
         "Error vs K for flat k-means, hierarchical cuts, and adaptive "
         "error-driven bisection");

  struct Dataset {
    const char* name;
    QueryLog log;
  };
  Dataset datasets[2] = {{"PocketData", LoadPocketLog()},
                         {"USBank", LoadBankLog()}};
  const std::vector<std::size_t> ks = {2, 4, 8, 16, 30};

  TablePrinter table(
      {"dataset", "K", "kmeans_err", "hierarchical_err", "adaptive_err"});
  for (Dataset& d : datasets) {
    for (std::size_t k : ks) {
      LogROptions opts;
      opts.num_clusters = k;
      opts.seed = 29;

      opts.method = ClusteringMethod::kKMeansEuclidean;
      double km = Compress(d.log, opts).Model().Error();
      opts.method = ClusteringMethod::kHierarchicalAverage;
      double hier = Compress(d.log, opts).Model().Error();
      // Adaptive bisects with the configured method; this ablation's
      // third arm is k-means bisection, so say so explicitly.
      opts.method = ClusteringMethod::kKMeansEuclidean;
      double adaptive = CompressAdaptive(d.log, opts).Model().Error();

      table.AddRow({d.name, TablePrinter::Fmt(k), TablePrinter::Fmt(km),
                    TablePrinter::Fmt(hier), TablePrinter::Fmt(adaptive)});
    }
  }
  table.Print();
  return 0;
}
