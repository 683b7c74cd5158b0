#include "bench_common.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workload/binary_log.h"

namespace logr::bench {

PocketDataOptions PocketOptions() { return PocketDataOptions(); }

BankLogOptions BankOptions() {
  BankLogOptions opts;
  opts.num_templates *= EnvSize("LOGR_BANK_SCALE", 1);
  return opts;
}

namespace {

/// The LOGR_BINLOG switch: set (non-empty, not "0") turns the sidecar
/// cache on.
bool SidecarsEnabled() {
  const char* v = std::getenv("LOGR_BINLOG");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

// The sidecar cache keys fingerprint the options actually used (the
// loaders build from the same PocketOptions/BankOptions), so a sidecar
// written under different options cannot be served stale. Generator
// *code* changes still require clearing LOGR_BINLOG_DIR.
std::string PocketSidecarKey() {
  const PocketDataOptions opts = PocketOptions();
  return "pocket-s" + std::to_string(opts.seed) + "-d" +
         std::to_string(opts.num_distinct) + "-q" +
         std::to_string(opts.total_queries) + "-z" +
         std::to_string(opts.zipf_s);
}

std::string BankSidecarKey() {
  const BankLogOptions opts = BankOptions();
  return "bank-s" + std::to_string(opts.seed) + "-t" +
         std::to_string(opts.num_templates) + "-v" +
         std::to_string(opts.const_variants_mean) + "-q" +
         std::to_string(opts.total_queries) + "-n" +
         std::to_string(opts.noise_entries) + "-z" +
         std::to_string(opts.zipf_s);
}

/// Serves `key` from the binary sidecar cache: the first run generates
/// the log through the text funnel, persists it, and reloads it from
/// the binary file; later runs mmap the sidecar and never parse SQL.
/// Any sidecar problem falls back to the text path with a note.
QueryLog LoadViaBinarySidecar(const std::string& key, LogLoader (*make)()) {
  const char* dir_env = std::getenv("LOGR_BINLOG_DIR");
  const std::string dir = (dir_env != nullptr && *dir_env != '\0')
                              ? dir_env
                              : "/tmp/logr-binlog";
  const std::string path = dir + "/" + key + ".logrl";
  std::string error;

  MmapQueryLog cached;
  if (MmapQueryLog::Open(path, &cached, &error)) {
    std::fprintf(stderr, "[binlog] %s: %s sidecar %s\n", key.c_str(),
                 cached.mapped() ? "mmap'd" : "read", path.c_str());
    return cached.Materialize();
  }

  LogLoader loader = make();
  // Write-to-temp + rename so a concurrent or killed bench run never
  // leaves a half-written file at the final path (the checksum would
  // catch it, but the cache would then thrash forever).
  const std::string tmp_path =
      path + ".tmp." + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !loader.WriteBinary(tmp_path, key, &error)) {
    std::fprintf(stderr, "[binlog] %s: cannot write sidecar %s (%s); "
                 "using the text path\n",
                 key.c_str(), tmp_path.c_str(),
                 ec ? ec.message().c_str() : error.c_str());
    std::filesystem::remove(tmp_path, ec);  // drop any partial file
    return loader.TakeLog();
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::fprintf(stderr, "[binlog] %s: cannot rename sidecar into place "
                 "(%s); using the text path\n",
                 key.c_str(), ec.message().c_str());
    std::filesystem::remove(tmp_path, ec);
    return loader.TakeLog();
  }
  std::fprintf(stderr, "[binlog] %s: wrote sidecar %s\n", key.c_str(),
               path.c_str());
  // Serve even the first run from the file so every run reads the
  // identical bytes through the identical path.
  MmapQueryLog fresh;
  if (!MmapQueryLog::Open(path, &fresh, &error)) {
    std::fprintf(stderr, "[binlog] %s: reload failed (%s); using the text "
                 "path\n",
                 key.c_str(), error.c_str());
    return loader.TakeLog();
  }
  return fresh.Materialize();
}

}  // namespace

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

ClusteringMethod EnvMethod(const char* name, ClusteringMethod fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  ClusteringMethod m;
  if (!ParseClusteringMethod(v, &m)) {
    std::fprintf(stderr,
                 "%s=%s is not a clustering method (try kmeans, manhattan, "
                 "minkowski, hamming, hierarchical)\n",
                 name, v);
    std::exit(2);
  }
  return m;
}

void Banner(const std::string& artifact, const std::string& description) {
  std::printf("=== %s ===\n%s\n\n", artifact.c_str(), description.c_str());
}

LogLoader LoadPocketLoader() {
  return LoadEntries(GeneratePocketDataLog(PocketOptions()));
}

LogLoader LoadBankLoader() {
  return LoadEntries(GenerateBankLog(BankOptions()));
}

QueryLog LoadPocketLog() {
  if (!SidecarsEnabled()) return LoadPocketLoader().TakeLog();
  return LoadViaBinarySidecar(PocketSidecarKey(), &LoadPocketLoader);
}

QueryLog LoadBankLog() {
  if (!SidecarsEnabled()) return LoadBankLoader().TakeLog();
  return LoadViaBinarySidecar(BankSidecarKey(), &LoadBankLoader);
}

namespace {

BinaryDataset FromTable(const CategoricalTable& t, std::string name) {
  BinaryDataset d;
  d.rows = t.Binarize();
  d.labels = t.labels;
  d.n_features = t.NumOneHotFeatures();
  d.distinct_features = t.NumDistinctPresentFeatures();
  d.distinct_rows = t.NumDistinctRows();
  d.name = std::move(name);
  return d;
}

}  // namespace

BinaryDataset LoadIncome() {
  IncomeOptions opts;
  opts.num_rows = EnvSize("LOGR_ROWS", 4000);
  return FromTable(GenerateIncomeData(opts), "Income");
}

BinaryDataset LoadMushroom() {
  MushroomOptions opts;
  opts.num_rows = EnvSize("LOGR_ROWS", 8124) < 8124
                      ? EnvSize("LOGR_ROWS", 8124)
                      : 8124;
  return FromTable(GenerateMushroomData(opts), "Mushroom");
}

}  // namespace logr::bench
