// Reproduces Figure 4: validating the Reproduction Error metric.
//   4a/4b  Containment captures Deviation: for encoding pairs E2 ⊃ E1
//          (more patterns = smaller Ω), d(E1) - d(E2) should be >= 0,
//          binned by d(E2 \ E1) (the paper's overlap proxy).
//   4c/4d  Error correlates with Deviation (per #patterns).
//   4e/4f  Error of naive+1-pattern encodings tracks corr_rank.
//
// Following Sec. 7.1: features with marginal in [0.01, 0.99] build the
// candidate patterns; encodings combine up to 3 patterns; Deviation is
// approximated by sampling from Ω_E (paper: 10^6 samples; LOGR_SAMPLES
// overrides the reduced default).
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.h"
#include "core/naive_encoding.h"
#include "core/refine.h"
#include "maxent/deviation.h"
#include "maxent/projected_log.h"
#include "util/table_printer.h"

namespace {

using namespace logr;
using namespace logr::bench;

// Rebuilds a QueryLog from a projected log (weights scaled to counts) so
// the refinement API can run on the projected universe.
QueryLog ToQueryLog(const ProjectedLog& proj) {
  QueryLog log;
  for (std::size_t i = 0; i < proj.num_distinct(); ++i) {
    std::uint64_t count = static_cast<std::uint64_t>(
        std::llround(proj.Probability(i) * 1e6));
    if (count == 0) count = 1;
    log.Add(proj.Vector(i), count);
  }
  return log;
}

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= x.size();
  my /= y.size();
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void RunDataset(const char* name, const QueryLog& raw_log,
                std::size_t samples) {
  // Sec. 7.1 feature band; cap the projected universe so the encoding
  // lattices stay small.
  std::vector<FeatureId> band =
      ProjectedLog::SelectFeaturesInBand(raw_log, 0.01, 0.99);
  if (band.size() > 10) band.resize(10);
  ProjectedLog proj(raw_log, band);
  const std::size_t n = proj.num_features();

  // Candidate patterns: pairs/triples spanning the marginal spectrum
  // (informative and uninformative alike), so enumerated encodings have
  // varied Error — the spread Figures 4c/4d plot.
  std::vector<std::pair<double, FeatureVec>> scored;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      FeatureVec pair({static_cast<FeatureId>(a), static_cast<FeatureId>(b)});
      double marg = proj.Marginal(pair);
      if (marg > 0.0) scored.emplace_back(marg, pair);
      if (b + 1 < n) {
        FeatureVec triple({static_cast<FeatureId>(a),
                           static_cast<FeatureId>(b),
                           static_cast<FeatureId>(b + 1)});
        double m3 = proj.Marginal(triple);
        if (m3 > 0.0) scored.emplace_back(m3, triple);
      }
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  std::vector<FeatureVec> candidates;
  // Take a spread: every (size/8)-th entry from high to low marginal.
  for (std::size_t i = 0; i < scored.size() && candidates.size() < 8;
       i += std::max<std::size_t>(1, scored.size() / 8)) {
    candidates.push_back(scored[i].second);
  }

  // Enumerate encodings of 1..3 candidate patterns (subsets by index).
  struct Enc {
    std::vector<std::size_t> idx;
    ProjectedEncoding encoding;
    double error = 0.0;
    double deviation = 0.0;
  };
  std::vector<Enc> encodings;
  const std::size_t m = candidates.size();
  for (std::size_t a = 0; a < m; ++a) {
    encodings.push_back({{a}, {}, 0, 0});
    for (std::size_t b = a + 1; b < m; ++b) {
      encodings.push_back({{a, b}, {}, 0, 0});
      for (std::size_t c = b + 1; c < m && encodings.size() < 64; ++c) {
        encodings.push_back({{a, b, c}, {}, 0, 0});
      }
    }
  }
  for (Enc& e : encodings) {
    std::vector<FeatureVec> pats;
    for (std::size_t i : e.idx) pats.push_back(candidates[i]);
    e.encoding = ProjectedEncoding::Measure(proj, pats);
    e.error = ReproductionErrorOnSupport(proj, e.encoding);
    e.deviation = EstimateDeviationOnSupport(proj, e.encoding, samples, 17).mean;
  }

  // --- 4a/4b: containment pairs ---
  TablePrinter pairs_table({"dataset", "d(E2\\E1)_bin", "pairs",
                            "frac_agree", "mean_d(E1)-d(E2)"});
  struct PairPoint {
    double diff_dev;   // d(E2 \ E1)
    double y;          // d(E1) - d(E2)
  };
  std::vector<PairPoint> points;
  for (const Enc& e1 : encodings) {
    for (const Enc& e2 : encodings) {
      if (e2.idx.size() <= e1.idx.size()) continue;
      if (!std::includes(e2.idx.begin(), e2.idx.end(), e1.idx.begin(),
                         e1.idx.end())) {
        continue;
      }
      std::vector<FeatureVec> extra;
      for (std::size_t i : e2.idx) {
        if (!std::binary_search(e1.idx.begin(), e1.idx.end(), i)) {
          extra.push_back(candidates[i]);
        }
      }
      ProjectedEncoding diff = ProjectedEncoding::Measure(proj, extra);
      double d_diff = EstimateDeviationOnSupport(proj, diff, samples, 23).mean;
      points.push_back({d_diff, e1.deviation - e2.deviation});
    }
  }
  std::sort(points.begin(), points.end(),
            [](const PairPoint& a, const PairPoint& b) {
              return a.diff_dev < b.diff_dev;
            });
  const std::size_t bins = 6;
  for (std::size_t b = 0; b < bins && !points.empty(); ++b) {
    std::size_t lo = points.size() * b / bins;
    std::size_t hi = points.size() * (b + 1) / bins;
    if (lo >= hi) continue;
    double agree = 0, mean_y = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (points[i].y >= -1e-9) agree += 1;
      mean_y += points[i].y;
    }
    pairs_table.AddRow(
        {name, TablePrinter::Fmt(points[(lo + hi) / 2].diff_dev, 3),
         TablePrinter::Fmt(hi - lo),
         TablePrinter::Fmt(agree / (hi - lo), 3),
         TablePrinter::Fmt(mean_y / (hi - lo), 4)});
  }
  std::printf("-- 4a/4b: containment captures Deviation (%s)\n", name);
  pairs_table.Print();

  // --- 4c/4d: Error vs Deviation ---
  TablePrinter err_table({"dataset", "num_patterns", "error", "deviation"});
  std::vector<double> errs, devs;
  for (const Enc& e : encodings) {
    errs.push_back(e.error);
    devs.push_back(e.deviation);
    err_table.AddRow({name, TablePrinter::Fmt(e.idx.size()),
                      TablePrinter::Fmt(e.error),
                      TablePrinter::Fmt(e.deviation)});
  }
  std::printf("\n-- 4c/4d: Error vs Deviation (%s), Pearson r = %.3f\n",
              name, Pearson(errs, devs));
  err_table.Print();

  // --- 4e/4f: Error vs corr_rank for single-pattern refinements ---
  QueryLog qlog = ToQueryLog(proj);
  NaiveEncoding naive = NaiveEncoding::FromLog(qlog);
  TablePrinter rank_table(
      {"dataset", "pattern_features", "corr_rank", "refined_error"});
  std::vector<double> ranks, refined_errors;
  for (const FeatureVec& b : candidates) {
    double rank = RankPatterns(qlog, naive, {b})[0].corr_rank;
    RefinedNaiveEncoding refined(qlog, {b});
    ranks.push_back(rank);
    refined_errors.push_back(refined.ReproductionError());
    rank_table.AddRow({name, TablePrinter::Fmt(b.size()),
                       TablePrinter::Fmt(rank),
                       TablePrinter::Fmt(refined.ReproductionError())});
  }
  std::printf("\n-- 4e/4f: Error vs corr_rank (%s), Pearson r = %.3f "
              "(expected negative: higher rank => larger reduction)\n",
              name, Pearson(ranks, refined_errors));
  rank_table.Print();
  std::printf("\n");
}

}  // namespace

int main() {
  Banner("Figure 4",
         "Validation of Reproduction Error against sampled Deviation and "
         "corr_rank (Sec. 7.1)");
  const std::size_t samples = EnvSize("LOGR_SAMPLES", 200);
  QueryLog bank = LoadBankLog();
  RunDataset("US bank", bank, samples);
  QueryLog pocket = LoadPocketLog();
  RunDataset("PocketData", pocket, samples);
  return 0;
}
