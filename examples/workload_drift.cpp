// Online workload monitoring / intrusion detection (paper Sec. 2,
// "Online Database Monitoring": real-time monitoring needs the frequency
// of query classes in the system's *typical* workload — which is exactly
// what a LogR summary provides without rescanning the log).
//
// A baseline epoch of the PocketData-like app workload is compressed
// once. A monitored epoch replays half the workload plus injected
// exfiltration-style queries. Every structural feature's observed rate
// in the monitored epoch is compared against the baseline summary's
// estimate; features whose rate jumped are drift suspects, and the
// injected queries' SELECT/FROM features surface at the top.
#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "core/logr_compressor.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "workload/extractor.h"

namespace {

using namespace logr;

// Queries an application never issues: bulk scans over sensitive tables.
const char* kInjected[] = {
    "SELECT full_name, gaia_id, avatar_url FROM participants",
    "SELECT name, logging_id, affinity_score FROM suggested_contacts",
    "SELECT text, sms_raw_sender, attachment_url FROM messages_dump",
};

}  // namespace

int main() {
  using namespace logr;

  // --- Baseline epoch: compress the normal workload. ---
  PocketDataOptions gen;
  gen.num_distinct = 300;
  gen.total_queries = 200000;
  std::vector<LogEntry> baseline_entries = GeneratePocketDataLog(gen);
  LogLoader baseline_loader = LoadEntries(baseline_entries);
  QueryLog baseline = baseline_loader.TakeLog();

  LogROptions options;
  options.num_clusters = 10;
  LogRSummary summary = Compress(baseline, options);
  // The monitor only ever needs facade estimates, so the baseline can
  // be summarized by any encoder.
  const WorkloadModel& model = summary.Model();
  const double baseline_total =
      static_cast<double>(baseline.TotalQueries());
  std::printf("Baseline: %llu queries summarized into %zu clusters "
              "(error %.2f nats, verbosity %zu)\n\n",
              static_cast<unsigned long long>(baseline.TotalQueries()),
              model.NumComponents(), model.Error(),
              model.TotalVerbosity());

  // --- Monitored epoch: half the normal traffic plus injections. ---
  LogLoader epoch_loader;
  for (const LogEntry& e : baseline_entries) {
    if (e.count / 2 > 0) epoch_loader.AddSql(e.sql, e.count / 2);
  }
  const std::uint64_t kInjectedCount = 900;
  std::set<std::string> injected_features;
  for (const char* sql_text : kInjected) {
    epoch_loader.AddSql(sql_text, kInjectedCount);
    sql::ParseResult parsed = sql::Parse(sql_text);
    sql::RegularizeInfo info;
    sql::StatementPtr regular = sql::Regularize(
        *parsed.statement, sql::RegularizeOptions(), &info);
    for (const Feature& f : ListFeatures(*regular, ExtractOptions())) {
      injected_features.insert(f.ToString());
    }
  }
  QueryLog epoch = epoch_loader.TakeLog();
  const double epoch_total = static_cast<double>(epoch.TotalQueries());

  // --- Compare per-feature rates: observed epoch rate vs the baseline
  //     summary's estimate (the compressed log answers this without
  //     touching the raw baseline).
  struct Drift {
    std::string feature;
    double epoch_rate;
    double baseline_rate;
    double ratio;
  };
  std::vector<Drift> drifts;
  std::vector<double> epoch_mass(epoch.NumFeatures(), 0.0);
  for (std::size_t i = 0; i < epoch.NumDistinct(); ++i) {
    for (FeatureId f : epoch.Vector(i).ids) {
      epoch_mass[f] += static_cast<double>(epoch.Multiplicity(i));
    }
  }
  for (FeatureId f = 0; f < epoch.vocabulary().size(); ++f) {
    double observed = epoch_mass[f] / epoch_total;
    if (observed < 5e-4) continue;  // below monitoring support floor
    const Feature& feat = epoch.vocabulary().Get(f);
    FeatureId base_id = baseline.vocabulary().Find(feat);
    double expected = 0.0;
    if (base_id != Vocabulary::kNotFound) {
      expected = model.EstimateCount(FeatureVec({base_id})) /
                 baseline_total;
    }
    Drift d;
    d.feature = feat.ToString();
    d.epoch_rate = observed;
    d.baseline_rate = expected;
    d.ratio = observed / std::max(expected, 1e-6);
    drifts.push_back(std::move(d));
  }
  std::sort(drifts.begin(), drifts.end(),
            [](const Drift& a, const Drift& b) { return a.ratio > b.ratio; });

  std::printf("Top drifted features (epoch rate vs baseline estimate):\n");
  std::printf("%-9s %-10s %-10s feature\n", "ratio", "epoch", "baseline");
  int caught = 0;
  for (std::size_t i = 0; i < drifts.size() && i < 8; ++i) {
    const Drift& d = drifts[i];
    bool is_injected = injected_features.count(d.feature) > 0;
    if (is_injected) ++caught;
    std::printf("%-9.1f %-10.6f %-10.6f %s%s\n", d.ratio, d.epoch_rate,
                d.baseline_rate, d.feature.c_str(),
                is_injected ? "   << injected" : "");
  }

  std::printf("\n%d of the top 8 drifted features belong to the injected "
              "queries.\n",
              caught);
  return caught >= 3 ? 0 : 1;
}
