// Reproduces Figure 5: naive mixture encodings vs the Laserlight / MTV
// baselines on the bank log.
//   5a  Error of NaiveMixture vs NaiveMixture refined by Laserlight/MTV
//       patterns (refinement buys little — y-axis offset in the paper).
//   5b  Error of NaiveMixture vs Laserlight / MTV used alone
//       (orders of magnitude apart; paper plots log scale).
//   5c  Runtime comparison (log scale in the paper).
//
// Baseline configuration follows Appendix D: Laserlight sees the top-100
// highest-entropy features (the PostgreSQL limit) with the single
// highest-entropy feature as its augmented attribute; both baselines
// mine 15 patterns per cluster (the MTV ceiling).
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "core/logr_compressor.h"
#include "core/pattern_encoding.h"
#include "core/refine.h"
#include "maxent/entropy.h"
#include "summarize/laserlight.h"
#include "summarize/mtv.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

using namespace logr;
using namespace logr::bench;

struct ClusterRows {
  std::vector<FeatureVec> rows;
  std::vector<double> weights;
  QueryLog sublog;
  double weight = 0.0;  // |L_i| / |L|
};

// Highest-entropy feature of a cluster (Laserlight's augmented attr).
FeatureId AugmentedAttribute(const ClusterRows& c, std::size_t n_features) {
  std::vector<double> mass(n_features, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < c.rows.size(); ++r) {
    total += c.weights[r];
    for (FeatureId f : c.rows[r].ids) mass[f] += c.weights[r];
  }
  FeatureId best = 0;
  double best_h = -1.0;
  for (std::size_t f = 0; f < n_features; ++f) {
    double h = BinaryEntropy(mass[f] / total);
    if (h > best_h) {
      best_h = h;
      best = static_cast<FeatureId>(f);
    }
  }
  return best;
}

}  // namespace

int main() {
  Banner("Figure 5",
         "NaiveMixture vs Laserlight/MTV: refinement gain (5a), "
         "standalone encodings (5b), runtime (5c) — bank log");

  QueryLog log = LoadBankLog();
  const std::vector<std::size_t> ks = {1, 2, 4, 8, 16, 24, 30};

  TablePrinter table({"K", "naive_err", "naive+LL_err", "naive+MTV_err",
                      "LL_alone_err", "MTV_alone_err", "naive_sec",
                      "LL_sec", "MTV_sec"});

  for (std::size_t k : ks) {
    LogROptions opts;
    opts.method =
        EnvMethod("LOGR_METHOD", ClusteringMethod::kKMeansEuclidean);
    opts.num_clusters = k;
    opts.seed = 7;
    Stopwatch naive_timer;
    LogRSummary s = Compress(log, opts);
    double naive_sec = naive_timer.ElapsedSeconds();
    double naive_err = s.Model().Error();

    // Materialize per-cluster data.
    std::vector<ClusterRows> clusters;
    const NaiveMixtureEncoding& mix = *s.Model().AsNaiveMixture();
    for (std::size_t c = 0; c < mix.NumComponents(); ++c) {
      const MixtureComponent& comp = mix.Component(c);
      ClusterRows cr;
      cr.sublog = log.Subset(comp.members);
      for (std::size_t m : comp.members) {
        cr.rows.push_back(log.Vector(m));
        cr.weights.push_back(static_cast<double>(log.Multiplicity(m)));
      }
      cr.weight = comp.weight;
      clusters.push_back(std::move(cr));
    }

    double ll_refined = 0.0, mtv_refined = 0.0;
    double ll_alone = 0.0, mtv_alone = 0.0;
    double ll_sec = 0.0, mtv_sec = 0.0;

    for (ClusterRows& c : clusters) {
      // ---- Laserlight ----
      Stopwatch ll_timer;
      FeatureId attr = AugmentedAttribute(c, log.NumFeatures());
      std::vector<FeatureVec> ll_rows;
      std::vector<double> labels;
      for (std::size_t r = 0; r < c.rows.size(); ++r) {
        labels.push_back(c.rows[r].Contains(attr) ? 1.0 : 0.0);
        std::vector<FeatureId> ids;
        for (FeatureId f : c.rows[r].ids) {
          if (f != attr) ids.push_back(f);
        }
        ll_rows.push_back(FeatureVec(std::move(ids)));
      }
      LaserlightOptions ll_opts;
      ll_opts.max_patterns = 15;
      ll_opts.feature_cap = 100;  // Sec. 7.2.2 dimensionality restriction
      ll_opts.seed = 41;
      LaserlightSummary ll =
          RunLaserlight(ll_rows, labels, c.weights, ll_opts);
      ll_sec += ll_timer.ElapsedSeconds();

      std::vector<FeatureVec> ll_patterns;
      for (const FeatureVec& p : ll.patterns) {
        if (!p.empty() && p.size() <= 4) ll_patterns.push_back(p);
      }
      RefinedNaiveEncoding ll_ref(c.sublog, ll_patterns);
      ll_refined += c.weight * ll_ref.ReproductionError();
      std::vector<FeatureVec> ll_enc_patterns = ll_patterns;
      if (ll_enc_patterns.size() > 15) ll_enc_patterns.resize(15);
      PatternEncoding ll_enc(c.sublog, ll_enc_patterns);
      ll_alone += c.weight * ll_enc.ReproductionError();

      // ---- MTV ----
      Stopwatch mtv_timer;
      MtvOptions mtv_opts;
      mtv_opts.max_candidates = 60;
      mtv_opts.max_itemset_size = 3;
      MtvSummary mtv = RunMtv(c.rows, c.weights, log.NumFeatures(), 15,
                              mtv_opts);
      mtv_sec += mtv_timer.ElapsedSeconds();

      RefinedNaiveEncoding mtv_ref(c.sublog, mtv.itemsets);
      mtv_refined += c.weight * mtv_ref.ReproductionError();
      PatternEncoding mtv_enc(c.sublog, mtv.itemsets);
      mtv_alone += c.weight * mtv_enc.ReproductionError();
    }

    table.AddRow({TablePrinter::Fmt(k), TablePrinter::Fmt(naive_err),
                  TablePrinter::Fmt(ll_refined),
                  TablePrinter::Fmt(mtv_refined),
                  TablePrinter::Fmt(ll_alone, 1),
                  TablePrinter::Fmt(mtv_alone, 1),
                  TablePrinter::Fmt(naive_sec, 3),
                  TablePrinter::Fmt(ll_sec, 3),
                  TablePrinter::Fmt(mtv_sec, 3)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): refined errors within a few percent of "
      "naive (5a); standalone pattern encodings 1-2 orders of magnitude "
      "worse (5b); naive mixture fastest (5c).\n");
  return 0;
}
