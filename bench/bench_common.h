// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench prints the paper's rows as aligned text. Default scales are
// reduced from the paper's (documented per bench and in EXPERIMENTS.md);
// environment variables restore paper scale:
//   LOGR_TRIALS      clustering trials per configuration (paper: 10)
//   LOGR_SAMPLES     Monte-Carlo samples (paper: 10^4..10^6)
//   LOGR_BANK_SCALE  multiplies the bank log's template count
//   LOGR_ROWS        rows for the Income dataset
//   LOGR_METHOD      clustering method for single-method benches
//                    (ParseClusteringMethod names, e.g. "hierarchical")
//   LOGR_BINLOG      when set (non-empty, not "0"), LoadBankLog /
//                    LoadPocketLog cache the generated log as a binary
//                    .logrl sidecar under LOGR_BINLOG_DIR (default
//                    /tmp/logr-binlog) and mmap it on later runs, so
//                    every bench skips the SQL parse stage
#ifndef LOGR_BENCH_BENCH_COMMON_H_
#define LOGR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/bank.h"
#include "data/income.h"
#include "data/mushroom.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "workload/query_log.h"

namespace logr::bench {

/// Reads a positive integer environment override, or `fallback`.
std::size_t EnvSize(const char* name, std::size_t fallback);

/// Reads a clustering method from the environment (ParseClusteringMethod
/// names), or `fallback`. Unknown names abort with the valid names listed.
ClusteringMethod EnvMethod(const char* name, ClusteringMethod fallback);

/// Prints the bench banner with the paper artifact it reproduces.
void Banner(const std::string& artifact, const std::string& description);

/// The generator options every bench-shared log is built from (env
/// overrides applied) — the single source for loaders, sidecar cache
/// keys, and benches that need the raw entries at matching scale.
PocketDataOptions PocketOptions();
BankLogOptions BankOptions();

/// The PocketData-like log (full 605-template scale; cheap to build).
QueryLog LoadPocketLog();

/// The bank-like log. `template_scale` multiplies the 1,712 templates
/// (default 1.0; LOGR_BANK_SCALE overrides).
QueryLog LoadBankLog();

/// Binarized alternative-application datasets (Table 2).
struct BinaryDataset {
  std::vector<FeatureVec> rows;
  std::vector<double> labels;
  std::size_t n_features = 0;
  std::size_t distinct_features = 0;
  std::size_t distinct_rows = 0;
  std::string name;
};

BinaryDataset LoadIncome();
BinaryDataset LoadMushroom();

}  // namespace logr::bench

#endif  // LOGR_BENCH_BENCH_COMMON_H_
