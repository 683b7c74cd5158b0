// Fuzz harness for the .logrl binary columnar reader
// (workload/binary_log.h).
//
// The reader mmaps untrusted bytes and serves queries straight from the
// mapped columns, so every validator in MmapQueryLog::Parse is a
// security boundary: an input that passes validation must be fully
// servable without out-of-bounds column reads. The harness drives the
// in-memory OpenBuffer path (same Parse as mmap, no file needed) and,
// on accepted inputs, walks every column and materializes the log.
#include <cstddef>
#include <cstdint>
#include <cmath>
#include <string>

#include "util/check.h"
#include "workload/binary_log.h"
#include "workload/feature_vec.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  logr::MmapQueryLog log;
  std::string error;
  if (!logr::MmapQueryLog::OpenBuffer(data, size, &log, &error)) {
    LOGR_CHECK(!error.empty());
    return 0;
  }

  // Accepted input: every column access must stay in bounds and the
  // aggregate invariants must hold.
  const std::size_t n = log.NumDistinct();
  const logr::LogView view(log);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mult = log.Multiplicity(i);
    LOGR_CHECK(mult > 0);
    total += mult;
    const logr::FeatureVec v = view.VectorAt(i);
    for (std::size_t t = 1; t < v.ids.size(); ++t) {
      LOGR_CHECK(v.ids[t - 1] < v.ids[t]);
    }
    if (!v.ids.empty()) LOGR_CHECK(v.ids.back() < log.NumFeatures());
  }
  LOGR_CHECK(total == log.TotalQueries());

  logr::FeatureVec probe;
  if (log.NumFeatures() > 0) probe.ids.push_back(0);
  LOGR_CHECK(log.CountContaining(probe) <= log.TotalQueries());

  // The view materializer rebuilds a heap QueryLog through the same
  // columns; its statistics must be finite on any accepted input.
  const logr::QueryLog rebuilt = view.Materialize();
  LOGR_CHECK(rebuilt.NumDistinct() == n);
  LOGR_CHECK(rebuilt.TotalQueries() == log.TotalQueries());
  LOGR_CHECK(std::isfinite(rebuilt.Marginal(probe)));
  LOGR_CHECK(std::isfinite(rebuilt.EmpiricalEntropy()));
  return 0;
}
