// Fuzz harness for the summary reader (core/serialization.h, summary
// v4).
//
// ReadSummary consumes whole files that may come from other machines
// (offline merge pulls per-day summaries off shared storage), so it
// must reject arbitrary bytes loudly — never crash, never accept a
// summary whose model then misbehaves. On accepted inputs the harness
// also exercises the loaded WorkloadModel and writes it back out: the
// write must load again, writing that load must reproduce the same
// bytes, and the reload must answer a small estimate battery
// bit-identically to the first load.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "util/check.h"
#include "workload/feature_vec.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);
  std::istringstream in(text);
  logr::PersistedSummary summary;
  std::string error;
  if (!logr::ReadSummary(&in, &summary, &error)) {
    // A rejected input must say why.
    LOGR_CHECK(!error.empty());
    return 0;
  }

  // Accepted input: the facade contract must hold.
  LOGR_CHECK(summary.model != nullptr);
  const logr::WorkloadModel& model = *summary.model;
  LOGR_CHECK(std::isfinite(model.Error()));
  LOGR_CHECK(std::isfinite(model.BaseError()));
  const std::size_t k = model.NumComponents();
  for (std::size_t i = 0; i < k; ++i) {
    LOGR_CHECK(std::isfinite(model.ComponentError(i)));
    (void)model.ComponentLogSize(i);
  }
  logr::FeatureVec probe;
  if (summary.vocabulary.size() > 0) probe.ids.push_back(0);
  const double marginal = model.EstimateMarginal(probe);
  LOGR_CHECK(std::isfinite(marginal));

  // Round-trip: what ReadSummary accepted, WriteSummary must be able to
  // persist, the write must load again and write the same bytes, and
  // the reload must answer the battery (no features, each of the first
  // 32 features, the pairs among the first 8) with the same bits.
  std::ostringstream out;
  LOGR_CHECK(logr::WriteSummary(summary.vocabulary, model, &out, &error));
  std::istringstream in2(out.str());
  logr::PersistedSummary reparsed;
  LOGR_CHECK_MSG(logr::ReadSummary(&in2, &reparsed, &error), error.c_str());
  std::ostringstream again;
  LOGR_CHECK(logr::WriteSummary(reparsed.vocabulary, *reparsed.model, &again,
                                &error));
  LOGR_CHECK(again.str() == out.str());
  const auto n = static_cast<logr::FeatureId>(
      std::min<std::size_t>(summary.vocabulary.size(), 32));
  std::vector<logr::FeatureVec> battery(1);
  for (logr::FeatureId a = 0; a < n; ++a) {
    battery.push_back(logr::FeatureVec({a}));
    for (logr::FeatureId b = a + 1; b < std::min<logr::FeatureId>(n, 8); ++b) {
      battery.push_back(logr::FeatureVec({a, b}));
    }
  }
  for (const logr::FeatureVec& q : battery) {
    const double counts[2] = {model.EstimateCount(q),
                              reparsed.model->EstimateCount(q)};
    const double marginals[2] = {model.EstimateMarginal(q),
                                 reparsed.model->EstimateMarginal(q)};
    LOGR_CHECK(std::memcmp(&counts[0], &counts[1], sizeof(double)) == 0);
    LOGR_CHECK(std::memcmp(&marginals[0], &marginals[1], sizeof(double)) ==
               0);
  }
  return 0;
}
