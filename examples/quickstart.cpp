// Quickstart: parse a small query log, compress it with LogR, and query
// the compressed summary for workload statistics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/logr_compressor.h"
#include "workload/loader.h"

int main() {
  using namespace logr;

  // 1. Feed raw SQL into the loading funnel. The loader parses,
  //    regularizes (constant removal, conjunctive rewriting) and encodes
  //    each statement as a feature vector.
  LogLoader loader;
  struct Entry {
    const char* sql;
    std::uint64_t count;
  };
  const Entry entries[] = {
      {"SELECT _id FROM Messages WHERE status = ?", 120},
      {"SELECT _time FROM Messages WHERE status = ? AND sms_type = ?", 40},
      {"SELECT sms_type, _time FROM Messages WHERE sms_type = ?", 55},
      {"SELECT name, chat_id FROM suggested_contacts "
       "WHERE chat_id != ? ORDER BY upper(name) LIMIT 10",
       30},
      {"SELECT conversation_id, first_name FROM "
       "conversation_participants_view WHERE conversation_id = ? AND "
       "active = 1",
       75},
      {"UPDATE Messages SET status = 4 WHERE _id = 17", 3},  // not a SELECT
  };
  for (const Entry& e : entries) loader.AddSql(e.sql, e.count);

  DatasetSummary stats = loader.Summary("quickstart");
  std::printf("Loaded %llu SELECT queries (%llu distinct templates, "
              "%llu non-SELECT skipped)\n",
              static_cast<unsigned long long>(stats.num_queries),
              static_cast<unsigned long long>(stats.num_distinct_no_const),
              static_cast<unsigned long long>(stats.num_non_select));

  // 2. Compress: partition the log (any ClusteringMethod) and summarize
  //    each partition (any encoder — "naive" here; try "refined" or
  //    "pattern").
  QueryLog log = loader.TakeLog();
  LogROptions options;
  options.method = ClusteringMethod::kKMeansEuclidean;
  options.num_clusters = 3;
  options.encoder = "naive";
  LogRSummary summary = Compress(log, options);

  // All analytics go through the WorkloadModel facade — the same calls
  // work for every encoder.
  const WorkloadModel& model = summary.Model();
  std::printf("LogR summary [%s]: %zu clusters, Reproduction Error %.4f "
              "nats, Total Verbosity %zu\n",
              model.EncoderName(), model.NumComponents(), model.Error(),
              model.TotalVerbosity());

  // 3. Query the summary: how many queries filter on status = ?
  //    (this is the statistic an index advisor needs — Sec. 2).
  Feature status_filter{FeatureClause::kWhere, "status = ?"};
  FeatureId f = log.vocabulary().Find(status_filter);
  if (f != Vocabulary::kNotFound) {
    FeatureVec pattern({f});
    double estimated = model.EstimateCount(pattern);
    std::uint64_t truth = log.CountContaining(pattern);
    std::printf("est[ #queries with %s ] = %.1f   (true: %llu)\n",
                status_filter.ToString().c_str(), estimated,
                static_cast<unsigned long long>(truth));
  }

  // 4. The summary also answers co-occurrence questions the raw marginals
  //    cannot: how often do status = ? and sms_type = ? appear together?
  Feature sms_filter{FeatureClause::kWhere, "sms_type = ?"};
  FeatureId g = log.vocabulary().Find(sms_filter);
  if (f != Vocabulary::kNotFound && g != Vocabulary::kNotFound) {
    FeatureVec both({f, g});
    std::printf("est[ #queries with both filters ] = %.1f   (true: %llu)\n",
                model.EstimateCount(both),
                static_cast<unsigned long long>(log.CountContaining(both)));
  }
  return 0;
}
