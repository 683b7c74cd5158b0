// Materialized-view advisor driven by a LogR summary (paper Sec. 2,
// "Materialized View Selection": the results of joins that appear
// frequently in the workload are good candidates for materialization;
// view selection needs repeated frequency estimation over the workload).
//
// The advisor estimates, from the compressed summary only:
//   1. how often each table pair is joined (FROM co-occurrence with the
//      join's ON atom), and
//   2. how often frequent selection predicates ride on those joins —
//      candidates for *filtered* materialized views.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/logr_compressor.h"
#include "data/bank.h"
#include "data/sql_log.h"

namespace {

using namespace logr;

struct ViewCandidate {
  std::string description;
  double estimated_queries = 0.0;
};

}  // namespace

int main() {
  using namespace logr;

  BankLogOptions gen;
  gen.num_templates = 400;
  LogLoader loader = LoadEntries(GenerateBankLog(gen));
  QueryLog log = loader.TakeLog();

  LogROptions options;
  options.num_clusters = 12;
  LogRSummary summary = Compress(log, options);
  // Joint-frequency estimates come from the encoding-agnostic facade;
  // every encoder serves this advisor unchanged.
  const WorkloadModel& model = summary.Model();
  const double total = static_cast<double>(log.TotalQueries());
  std::printf("Compressed %llu queries; advising from the %zu-cluster "
              "summary (error %.2f nats)\n\n",
              static_cast<unsigned long long>(log.TotalQueries()),
              model.NumComponents(), model.Error());

  // Collect FROM features (tables) and WHERE features that look like
  // join atoms ("a.x = b.y") or selection predicates.
  std::vector<FeatureId> tables;
  std::vector<FeatureId> join_atoms;
  std::vector<FeatureId> predicates;
  for (FeatureId f = 0; f < log.vocabulary().size(); ++f) {
    const Feature& feat = log.vocabulary().Get(f);
    if (feat.clause == FeatureClause::kFrom) {
      tables.push_back(f);
    } else if (feat.clause == FeatureClause::kWhere) {
      bool qualified_eq = feat.text.find(" = ") != std::string::npos &&
                          feat.text.find('.') != std::string::npos &&
                          feat.text.find('?') == std::string::npos;
      if (qualified_eq) {
        join_atoms.push_back(f);
      } else {
        predicates.push_back(f);
      }
    }
  }

  // 1. Join views: table pairs that co-occur with a join atom.
  std::vector<ViewCandidate> joins;
  for (FeatureId join : join_atoms) {
    const Feature& jf = log.vocabulary().Get(join);
    double est = model.EstimateCount(FeatureVec({join}));
    if (est / total < 0.005) continue;
    ViewCandidate c;
    c.description = "JOIN ON " + jf.text;
    c.estimated_queries = est;
    joins.push_back(std::move(c));
  }
  std::sort(joins.begin(), joins.end(),
            [](const ViewCandidate& a, const ViewCandidate& b) {
              return a.estimated_queries > b.estimated_queries;
            });
  std::printf("Top join-view candidates:\n");
  for (std::size_t i = 0; i < joins.size() && i < 6; ++i) {
    std::printf("  %7.0f queries (%5.1f%%)  %s\n",
                joins[i].estimated_queries,
                100.0 * joins[i].estimated_queries / total,
                joins[i].description.c_str());
  }

  // 2. Filtered views: a frequent join atom combined with a frequent
  //    selection predicate — the co-occurrence count comes from the
  //    mixture, not from rescanning the log.
  std::printf("\nTop filtered-view candidates (join + predicate):\n");
  std::vector<ViewCandidate> filtered;
  std::size_t probe_joins = std::min<std::size_t>(join_atoms.size(), 8);
  std::size_t probe_preds = std::min<std::size_t>(predicates.size(), 200);
  for (std::size_t j = 0; j < probe_joins; ++j) {
    for (std::size_t p = 0; p < probe_preds; ++p) {
      FeatureVec pattern({join_atoms[j], predicates[p]});
      double est = model.EstimateCount(pattern);
      if (est / total < 0.01) continue;
      ViewCandidate c;
      c.description = log.vocabulary().Get(join_atoms[j]).text + "  AND  " +
                      log.vocabulary().Get(predicates[p]).text;
      c.estimated_queries = est;
      filtered.push_back(std::move(c));
    }
  }
  std::sort(filtered.begin(), filtered.end(),
            [](const ViewCandidate& a, const ViewCandidate& b) {
              return a.estimated_queries > b.estimated_queries;
            });
  for (std::size_t i = 0; i < filtered.size() && i < 6; ++i) {
    std::printf("  %7.0f queries (%5.1f%%)  %s\n",
                filtered[i].estimated_queries,
                100.0 * filtered[i].estimated_queries / total,
                filtered[i].description.c_str());
  }
  if (filtered.empty()) {
    std::printf("  (no join+predicate combination above the 1%% support "
                "threshold)\n");
  }
  return 0;
}
