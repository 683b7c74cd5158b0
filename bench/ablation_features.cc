// Ablation (beyond the paper's figures): feature scheme. The paper uses
// the three-clause Aligon scheme and cites Makiyama et al. [39] for
// richer schemes (aggregation / ordering features). This bench compares
// Error, Verbosity and codebook size of the Aligon scheme against the
// extended scheme (adds GROUP BY / ORDER BY / LIMIT features) at equal K.
#include <vector>

#include "bench_common.h"
#include "core/logr_compressor.h"
#include "data/pocketdata.h"
#include "util/table_printer.h"

int main() {
  using namespace logr;
  using namespace logr::bench;
  Banner("Ablation: feature scheme",
         "Aligon (SELECT/FROM/WHERE) vs extended (+GROUPBY/ORDERBY/LIMIT) "
         "on the PocketData-like log");

  PocketDataOptions gen;
  std::vector<LogEntry> entries = GeneratePocketDataLog(gen);

  TablePrinter table({"scheme", "K", "features", "error",
                      "total_verbosity"});
  for (bool extended : {false, true}) {
    LogLoader::Options lo;
    lo.extract.extended_clauses = extended;
    LogLoader loader = LoadEntries(entries, lo);
    QueryLog log = loader.TakeLog();
    for (std::size_t k : {1u, 8u, 16u, 30u}) {
      LogROptions opts;
      opts.method =
          EnvMethod("LOGR_METHOD", ClusteringMethod::kKMeansEuclidean);
      opts.num_clusters = k;
      opts.seed = 31;
      LogRSummary s = Compress(log, opts);
      table.AddRow({extended ? "extended" : "aligon",
                    TablePrinter::Fmt(k),
                    TablePrinter::Fmt(log.NumFeatures()),
                    TablePrinter::Fmt(s.Model().Error()),
                    TablePrinter::Fmt(s.Model().TotalVerbosity())});
    }
  }
  table.Print();
  std::printf("\nRicher features raise Verbosity and Error at equal K "
              "(more structure to reproduce) but make ORDER BY / LIMIT "
              "statistics answerable from the summary.\n");
  return 0;
}
