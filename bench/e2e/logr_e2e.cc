// logr_e2e — the end-to-end benchmark program (bench/e2e/README.md).
//
//   logr_e2e setup --workload W --seed N --dir D
//   logr_e2e run   --workload W --dir D --seconds S [--trace-out FILE]
//
// `setup` generates every input of workload W from seed N into D. `run`
// is a separate process that receives only those files, so its peak
// RSS and timings exclude generation. It runs W for about S seconds,
// checks every output, and prints one JSON object on stdout: the
// end-to-end metrics, the per-layer metrics when tracing, the oracle
// checks, and the attempted/failed operation counts. It exits 1 when a
// check fails and 2 on a usage or environment error.
//
// Every workload makes the whole trip a query log takes — SQL text or
// .logrl → Compress → WriteSummaryFile → ReadSummaryFile → ServeDaemon →
// served estimate — and checks each hop against the one before it. The
// workloads differ in which hop they time and load:
//
//   ingest-bank-text      SQL text → summary, as `logr_cli compress`
//   recompress-bank-hier  .logrl → hierarchical summary (no SQL work)
//   serve-naive           served naive estimates, open loop at 10k/s
//   serve-pattern-reload  served pattern estimates while models are
//                         republished and reloaded every 500 ms
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/xor_popcount.h"
#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "load.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/summary_registry.h"
#include "sql/parser.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workload/binary_log.h"
#include "workload/loader.h"

namespace e2e {

namespace {

using namespace logr;  // NOLINT(build/namespaces): exercises the whole library

constexpr char kIngest[] = "ingest-bank-text";
constexpr char kRecompress[] = "recompress-bank-hier";
constexpr char kServeNaive[] = "serve-naive";
constexpr char kServeReload[] = "serve-pattern-reload";

constexpr std::size_t kBankTemplates = 1712;  // the paper's bank log
constexpr std::size_t kBatterySize = 200;
constexpr std::size_t kMinPasses = 3;
constexpr int kServeConnections = 2;
// Open-loop rates at about a sixth of the closed-loop capacity on 4
// vCPUs, so a host that runs 2-3x slower for a while still does not
// saturate the daemon and grow its queue without bound.
constexpr double kNaiveRate = 10000.0;
constexpr double kPatternRate = 250.0;
constexpr double kOpenLoopShare = 3.0 / 4.0;  // the rest is the closed loop
constexpr double kQuietQuantile = 0.1;         // of compress pass times
constexpr double kMinRateShare = 0.99;
// Untimed activity before measuring, so lazy set-up finishes and a vCPU
// that was idle has ramped up (on virtual machines the first ~0.5 s of
// work after idling runs measurably slower). Capped at half the run.
constexpr double kWarmupSeconds = 1.0;
constexpr std::int64_t kPublishIntervalNs = 500000000;
constexpr int kPublishCycles = 3;
constexpr std::size_t kMaxTraceEvents = 150000;

// ------------------------------------------------------------- helpers

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "logr_e2e: %s\n", message.c_str());
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fatal("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    Fatal("cannot create " + path);
  }
}

std::int64_t MtimeNs(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000ll +
         st.st_mtim.tv_nsec;
}

/// The serve protocol's rendering of a double (precision 17, so the
/// value round-trips exactly).
std::string Fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Linear-interpolated quantile; NaN for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
std::int64_t Nanos(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// -------------------------------------------------------------- report

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Report {
  std::string workload;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> notes;

  void Expect(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  bool correct() const {
    if (failed != 0) return false;
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

void PrintMetrics(const std::map<std::string, double>& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf(first ? "\"%s\":" : ",\"%s\":", name.c_str());
    if (std::isfinite(value)) {
      std::printf("%.17g", value);
    } else {
      std::printf("null");
    }
    first = false;
  }
  std::printf("}");
}

void PrintReport(const Report& r) {
  std::printf("{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"checks\":[",
              r.workload.c_str(), r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    std::printf("%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                i == 0 ? "" : ",", c.name.c_str(), c.ok ? "true" : "false",
                JsonEscape(c.detail).c_str());
  }
  std::printf("],\"e2e\":");
  PrintMetrics(r.e2e);
  std::printf(",\"layers\":");
  PrintMetrics(r.layers);
  std::printf(",\"notes\":{");
  bool first = true;
  for (const auto& [key, value] : r.notes) {
    std::printf("%s\"%s\":\"%s\"", first ? "" : ",", key.c_str(),
                JsonEscape(value).c_str());
    first = false;
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------- setup

/// What the loader must report for a generated log, known from the
/// generator's side: every generated SELECT is a query; the bank
/// generator appends `noise` entries after them — stored-procedure
/// calls and DML, plus garbage lines starting with "@@" that no parser
/// accepts.
struct Funnel {
  std::uint64_t lines = 0;
  std::uint64_t queries = 0;
  std::uint64_t non_select = 0;
  std::uint64_t parse_errors = 0;
};

Funnel GeneratorFunnel(const std::vector<LogEntry>& entries,
                       std::size_t noise) {
  Funnel f;
  f.lines = entries.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i + noise < entries.size()) {
      f.queries += entries[i].count;
    } else if (entries[i].sql.rfind("@@", 0) == 0) {
      f.parse_errors += entries[i].count;
    } else {
      f.non_select += entries[i].count;
    }
  }
  return f;
}

void WriteManifest(const Funnel& f) {
  std::ofstream out("manifest.txt");
  out << "lines " << f.lines << "\nqueries " << f.queries << "\nnon_select "
      << f.non_select << "\nparse_errors " << f.parse_errors << "\n";
  if (!out) Fatal("cannot write manifest.txt");
}

Funnel ReadManifest() {
  std::istringstream in(ReadFile("manifest.txt"));
  Funnel f;
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "lines") f.lines = value;
    if (key == "queries") f.queries = value;
    if (key == "non_select") f.non_select = value;
    if (key == "parse_errors") f.parse_errors = value;
  }
  return f;
}

LogROptions NaiveOptions(ClusteringMethod method, std::size_t k) {
  LogROptions opts;
  opts.method = method;
  opts.num_clusters = k;
  opts.encoder = "naive";  // never the LOGR_ENCODER default
  return opts;
}

LogROptions PatternOptions(std::size_t k) {
  LogROptions opts;
  opts.num_clusters = k;
  opts.encoder = "pattern";
  return opts;
}

/// A summary a serve workload serves: its name and how setup built it.
struct ServedSpec {
  std::string name;
  LogROptions opts;
};

std::vector<ServedSpec> ServedSummaries(const std::string& workload) {
  if (workload == kServeNaive) {
    std::vector<ServedSpec> specs;
    for (std::size_t k : {4, 8, 16}) {
      specs.push_back({"bank_k" + std::to_string(k),
                       NaiveOptions(ClusteringMethod::kKMeansEuclidean, k)});
    }
    return specs;
  }
  return {{"pocket", PatternOptions(8)}};
}

std::vector<LogEntry> BankEntries(std::uint64_t seed, std::size_t templates,
                                  Funnel* funnel) {
  BankLogOptions opts;
  opts.seed = seed;
  opts.num_templates = templates;
  std::vector<LogEntry> entries = GenerateBankLog(opts);
  *funnel = GeneratorFunnel(entries, opts.noise_entries);
  return entries;
}

void WriteSummaryOrDie(const std::string& path, const Vocabulary& vocab,
                       const WorkloadModel& model) {
  std::string error;
  if (!WriteSummaryFile(path, vocab, model, &error)) Fatal(error);
}

/// Loads `entries` and writes the .logrl every non-text workload reads.
QueryLog WriteBinaryLog(const std::vector<LogEntry>& entries,
                        const std::string& path) {
  LogLoader loader = LoadEntries(entries);
  std::string error;
  if (!loader.WriteBinary(path, "e2e", &error)) Fatal(error);
  return loader.TakeLog();
}

int Setup(const std::string& workload, std::uint64_t seed) {
  Funnel funnel;
  if (workload == kIngest) {
    const std::vector<LogEntry> entries =
        BankEntries(seed, kBankTemplates, &funnel);
    std::ofstream out("bank.sql");
    for (const LogEntry& e : entries) out << e.count << '\t' << e.sql << '\n';
    if (!out) Fatal("cannot write bank.sql");
  } else if (workload == kRecompress) {
    WriteBinaryLog(BankEntries(seed, 2 * kBankTemplates, &funnel),
                   "bank.logrl");
  } else if (workload == kServeNaive || workload == kServeReload) {
    QueryLog log;
    if (workload == kServeNaive) {
      log = WriteBinaryLog(BankEntries(seed, kBankTemplates, &funnel),
                           "bank.logrl");
    } else {
      PocketDataOptions opts;
      opts.seed = seed;
      const std::vector<LogEntry> entries = GeneratePocketDataLog(opts);
      funnel = GeneratorFunnel(entries, 0);
      log = WriteBinaryLog(entries, "pocket.logrl");
    }
    MakeDir("summaries");
    for (const ServedSpec& spec : ServedSummaries(workload)) {
      WriteSummaryOrDie("summaries/" + spec.name + ".logr", log.vocabulary(),
                        Compress(log, spec.opts).Model());
    }
    if (workload == kServeReload) {
      // Model B: the same log at another K, so the two models the run
      // alternates between answer differently.
      WriteSummaryOrDie("model_b.logr", log.vocabulary(),
                        Compress(log, PatternOptions(6)).Model());
    }
  } else {
    Fatal("unknown workload " + workload);
  }
  WriteManifest(funnel);
  return 0;
}

// ------------------------------------------------------- compress trip

/// Pins the calling thread to the next CPU of the process's CPU set on
/// each Next(), and restores the whole set when destroyed. On a shared
/// host one vCPU at a time runs slow for seconds, and a busy thread
/// stays on its vCPU; rotating gives each compress pass the next vCPU,
/// so the fastest passes are not all drawn from one slow vCPU. Only the
/// calling thread moves: the shared pool's workers keep the process's
/// CPU set.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// The log a compress pass read, kept alive after the pass for the
/// oracles. Exactly one of `text` / `binary` backs view().
struct PassInput {
  bool from_text = false;
  QueryLog text;
  MmapQueryLog binary;
  DatasetSummary funnel;
  std::uint64_t lines = 0;

  LogView view() const {
    return from_text ? LogView(text) : LogView(binary);
  }
  std::uint64_t CountContaining(const FeatureVec& b) const {
    return from_text ? text.CountContaining(b) : binary.CountContaining(b);
  }
};

/// Splits a "COUNT<TAB>SQL" line the way `logr_cli compress` does: a
/// non-numeric prefix leaves the whole line as SQL with count 1.
std::string_view SplitCount(std::string_view line, std::uint64_t* count) {
  *count = 1;
  const std::size_t tab = line.find('\t');
  if (tab == std::string_view::npos || tab == 0) return line;
  std::uint64_t value = 0;
  for (char c : line.substr(0, tab)) {
    if (c < '0' || c > '9') return line;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *count = value;
  return line.substr(tab + 1);
}

template <typename Fn>
void ForEachLine(std::string_view text, Fn&& fn) {
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    if (!line.empty()) fn(line);
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
}

void LoadText(const std::string& path, PassInput* in) {
  in->from_text = true;
  std::string text;
  {
    ScopedSpan span("workload.read_text");
    text = ReadFile(path);
  }
  LogLoader loader;
  {
    ScopedSpan span("workload.add_sql");
    ForEachLine(text, [&](std::string_view line) {
      std::uint64_t count = 1;
      const std::string_view sql = SplitCount(line, &count);
      loader.AddSql(sql, count);
      ++in->lines;
    });
  }
  in->funnel = loader.Summary("e2e");
  in->text = loader.TakeLog();
}

void LoadBinary(const std::string& path, PassInput* in) {
  ScopedSpan span("workload.mmap_open");
  std::string error;
  if (!MmapQueryLog::Open(path, &in->binary, &error)) Fatal(error);
  in->funnel = in->binary.summary();
}

/// Compress with the pipeline's own stage timings turned into child
/// spans of core.compress, in pipeline order: pack, cluster, encode
/// (encode = total − cluster − pack).
LogRSummary TracedCompress(const LogView& log, const LogROptions& opts) {
  const std::int64_t start = NowNs();
  LogRSummary summary = Compress(log, opts);
  const std::int64_t end = NowNs();
  if (Tracer::On()) {
    const SpanHandle h = Tracer::Add("core.compress", start, end);
    const std::int64_t pack_end = start + Nanos(summary.pack_seconds);
    const std::int64_t cluster_end = pack_end + Nanos(summary.cluster_seconds);
    const std::int64_t total_end =
        std::max(cluster_end, start + Nanos(summary.total_seconds));
    Tracer::Add("core.pack", start, pack_end, 0, h);
    Tracer::Add("cluster.cluster", pack_end, cluster_end, 0, h);
    Tracer::Add("core.encode", cluster_end, total_end, 0, h);
  }
  return summary;
}

/// One compress pass — load, Compress, WriteSummaryFile — the unit every
/// compress workload times.
LogRSummary CompressPass(const std::string& input, bool text,
                         const LogROptions& opts, const std::string& out_path,
                         PassInput* in) {
  ScopedSpan pass("bench.pass");
  if (text) {
    LoadText(input, in);
  } else {
    LoadBinary(input, in);
  }
  LogRSummary summary = TracedCompress(in->view(), opts);
  ScopedSpan write("core.write_summary");
  WriteSummaryOrDie(out_path, in->view().vocabulary(), summary.Model());
  return summary;
}

void CheckFunnel(const PassInput& in, const Funnel& want, Report* r) {
  const DatasetSummary& got = in.funnel;
  const bool lines_ok = !in.from_text || in.lines == want.lines;
  r->Expect("funnel_matches_generator",
            lines_ok && got.num_queries == want.queries &&
                got.num_non_select == want.non_select &&
                got.num_parse_errors == want.parse_errors,
            "queries " + std::to_string(got.num_queries) + "/" +
                std::to_string(want.queries) + ", non-SELECT " +
                std::to_string(got.num_non_select) + "/" +
                std::to_string(want.non_select) + ", parse errors " +
                std::to_string(got.num_parse_errors) + "/" +
                std::to_string(want.parse_errors));
  r->layers["sql.parse_errors"] = static_cast<double>(got.num_parse_errors);
  r->layers["sql.non_select"] = static_cast<double>(got.num_non_select);
  r->layers["workload.templates"] =
      static_cast<double>(in.view().NumDistinct());
  r->layers["workload.features"] =
      static_cast<double>(in.view().NumFeatures());
}

/// Operation counts of the clustering stage, computed from the input
/// shape: the packed pool every backend shares, and the N×N distance
/// matrix only the hierarchical backend builds.
void ClusterCounts(const LogView& log, const LogROptions& opts, Report* r) {
  const double n = static_cast<double>(log.NumDistinct());
  const bool matrix = opts.method == ClusteringMethod::kHierarchicalAverage;
  r->layers["cluster.distance_pairs"] = matrix ? n * (n - 1) / 2 : 0.0;
  r->layers["cluster.matrix_bytes"] =
      matrix ? n * n * static_cast<double>(sizeof(double)) : 0.0;
  r->layers["cluster.packed_words"] = static_cast<double>(
      PackedVecPool::StorageWords(log.NumDistinct(), log.NumFeatures()));
  r->notes["popcount_kernel"] = PopcountKernelName(SelectedPopcountKernel());
}

// ---------------------------------------------------------- the battery

/// A conjunctive predicate from a real template, with its true count.
struct Probe {
  FeatureVec features;
  std::uint64_t truth = 0;
};

/// kBatterySize predicates, each 1–3 consecutive features of a distinct
/// template picked at a fixed stride, so the battery is a function of
/// the log alone and every true count is at least 1.
std::vector<Probe> MakeBattery(const PassInput& in) {
  const LogView log = in.view();
  std::vector<Probe> battery;
  for (std::size_t k = 0; k < kBatterySize; ++k) {
    const FeatureVec v = log.VectorAt((k * 7919) % log.NumDistinct());
    if (v.empty()) continue;
    std::vector<FeatureId> ids;
    const std::size_t width = std::min<std::size_t>(1 + k % 3, v.size());
    for (std::size_t j = 0; j < width; ++j) {
      ids.push_back(v.ids[(k + j) % v.size()]);
    }
    Probe p;
    p.features = FeatureVec(std::move(ids));
    p.truth = in.CountContaining(p.features);
    battery.push_back(std::move(p));
  }
  return battery;
}

double MeanRelativeError(const WorkloadModel& model,
                         const std::vector<Probe>& battery) {
  double sum = 0.0;
  for (const Probe& p : battery) {
    const double truth = static_cast<double>(p.truth);
    sum += std::fabs(model.EstimateCount(p.features) - truth) / truth;
  }
  return sum / static_cast<double>(battery.size());
}

/// Reloads `path` with ReadSummaryFile and checks that it answers the
/// battery bit-identically to `in_memory`.
void CheckReload(const std::string& path, const WorkloadModel& in_memory,
                 const std::vector<Probe>& battery, Report* r) {
  PersistedSummary loaded;
  std::string error;
  bool ok;
  {
    ScopedSpan span("core.read_summary");
    ok = ReadSummaryFile(path, &loaded, &error);
  }
  std::size_t differing = 0;
  for (const Probe& p : battery) {
    if (!ok) break;
    double reloaded;
    {
      ScopedSpan span("core.estimate");
      reloaded = loaded.model->EstimateCount(p.features);
    }
    const double original = in_memory.EstimateCount(p.features);
    if (std::memcmp(&reloaded, &original, sizeof(double)) != 0) ++differing;
  }
  r->Expect("reload_bit_identical:" + path, ok && differing == 0,
            ok ? std::to_string(differing) + " of " +
                     std::to_string(battery.size()) + " estimates differ"
               : error);
}

// ---------------------------------------------------------- serve trip

/// The CLAUSE:TEXT form of `features`, or "" when a feature's text
/// cannot travel in the protocol's comma-separated predicate.
std::string TextPredicate(const FeatureVec& features, const Vocabulary& vocab) {
  std::string out;
  for (FeatureId id : features.ids) {
    const Feature& f = vocab.Get(id);
    if (f.text.empty() || f.text.find_first_of(",\n\r") != std::string::npos ||
        std::isspace(static_cast<unsigned char>(f.text.front())) ||
        std::isspace(static_cast<unsigned char>(f.text.back()))) {
      return "";
    }
    out += (out.empty() ? "" : ",");
    out += std::string(FeatureClauseName(f.clause)) + ":" + f.text;
  }
  return out;
}

std::string IdPredicate(const FeatureVec& features) {
  std::string out;
  for (FeatureId id : features.ids) {
    out += (out.empty() ? "" : ",") + std::to_string(id);
  }
  return out;
}

/// One request line and the replies that are correct for it.
struct ServeCase {
  std::string line;
  std::string expect[2];  ///< [1] is empty unless two models may serve
  bool prefix = false;    ///< marginal: only the leading fields are checked
};

bool Matches(const ServeCase& c, const std::string& reply) {
  for (const std::string& e : c.expect) {
    if (e.empty()) continue;
    if (c.prefix ? reply.rfind(e, 0) == 0 : reply == e) return true;
  }
  return false;
}

std::string ExpectedEstimate(const WorkloadModel& m, const FeatureVec& b) {
  double count;
  {
    ScopedSpan span("core.estimate");
    count = m.EstimateCount(b);
  }
  return "ok count=" + Fmt(count) + " marginal=" + Fmt(m.EstimateMarginal(b)) +
         " queries=" + std::to_string(m.LogSize());
}

std::string ExpectedMarginal(const WorkloadModel& m, FeatureId f) {
  return "ok marginal=" + Fmt(m.EstimateMarginal(FeatureVec({f}))) +
         " components=" + std::to_string(m.NumComponents()) + " ";
}

/// A served summary: its name, codebook, and the models whose answers
/// are correct (two while the reload workload alternates models).
struct ServeTarget {
  std::string name;
  const Vocabulary* vocab = nullptr;
  std::vector<const WorkloadModel*> models;
};

/// The request mix, interleaved across targets: per battery predicate,
/// 80% `estimate` by feature id, 10% `estimate` by CLAUSE:TEXT and 10%
/// `marginal` of its first feature.
std::vector<ServeCase> BuildCases(const std::vector<ServeTarget>& targets,
                                  const std::vector<Probe>& battery) {
  std::vector<ServeCase> cases;
  for (std::size_t k = 0; k < battery.size(); ++k) {
    const FeatureVec& b = battery[k].features;
    for (const ServeTarget& t : targets) {
      ServeCase c;
      const std::string text = TextPredicate(b, *t.vocab);
      if (k % 10 == 1) {
        c.line = "marginal " + t.name + " " + std::to_string(b.ids[0]);
        c.prefix = true;
      } else if (k % 10 == 0 && !text.empty()) {
        c.line = "estimate " + t.name + " " + text;
      } else {
        c.line = "estimate " + t.name + " " + IdPredicate(b);
      }
      for (std::size_t m = 0; m < t.models.size(); ++m) {
        c.expect[m] = c.prefix ? ExpectedMarginal(*t.models[m], b.ids[0])
                               : ExpectedEstimate(*t.models[m], b);
      }
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

std::vector<std::string> Lines(const std::vector<ServeCase>& cases) {
  std::vector<std::string> lines;
  for (const ServeCase& c : cases) lines.push_back(c.line);
  return lines;
}

/// A ServeDaemon over `dir` in this process, on a Unix socket beside it.
class LiveDaemon {
 public:
  explicit LiveDaemon(const std::string& dir)
      : registry_(dir), daemon_(&registry_), endpoint_("unix:" + dir + ".sock") {}

  /// The initial load is timed here (serve.rescan); Start() rescans
  /// once more and finds nothing new. Returns the names loaded.
  std::size_t Start() {
    SummaryRegistry::ScanResult scan;
    {
      ScopedSpan span("serve.rescan");
      scan = registry_.Rescan();
    }
    if (scan.failed != 0) Fatal("rescan failed: " + scan.errors[0]);
    ServeOptions opts;
    opts.listen = endpoint_;
    opts.rescan_interval_ms = 0;  // reloads only through `reload`
    std::string error;
    if (!daemon_.Start(opts, &error)) Fatal(error);
    return scan.loaded;
  }

  SummaryRegistry* registry() { return &registry_; }
  const std::string& endpoint() const { return endpoint_; }

 private:
  SummaryRegistry registry_;
  ServeDaemon daemon_;
  std::string endpoint_;
};

/// Requests the served summaries answer through ProtocolHandler in this
/// process (serve.handle), with the same checks as over the socket.
void ProbeHandler(SummaryRegistry* registry,
                  const std::vector<ServeCase>& cases, Report* r) {
  ProtocolHandler handler(registry);
  std::size_t wrong = 0;
  for (const ServeCase& c : cases) {
    std::string reply;
    {
      ScopedSpan span("serve.handle");
      reply = handler.HandleRequestLine(c.line);
    }
    if (!Matches(c, reply)) ++wrong;
  }
  r->Expect("in_process_protocol_matches", wrong == 0,
            std::to_string(wrong) + " of " + std::to_string(cases.size()) +
                " replies wrong");
}

void FileLoad(const LoadResult& load, const std::string& phase, Report* r) {
  r->attempted += load.attempted;
  r->failed += load.failed;
  r->Expect("served_replies_correct:" + phase, load.failed == 0,
            load.failed == 0 ? std::to_string(load.attempted) + " requests"
                             : load.first_failure);
}

std::uint64_t ReplyField(const std::string& reply, const std::string& key) {
  const std::size_t at = reply.find(" " + key + "=");
  if (at == std::string::npos) return ~0ull;
  return std::strtoull(reply.c_str() + at + key.size() + 2, nullptr, 10);
}

/// Republishes one served summary and reloads it, over a connection of
/// its own. Each cycle writes the next of the target's models over
/// DIR/NAME.logr (starting with the second, so that with two models the
/// first cycle changes the answers); `reload` must then report exactly
/// one reloaded summary, and `info NAME` a generation one higher.
class Publisher {
 public:
  Publisher(const std::string& endpoint, std::string dir, ServeTarget target,
            Tally* tally)
      : conn_(endpoint, tally), dir_(std::move(dir)),
        target_(std::move(target)) {}

  void Publish() {
    const WorkloadModel& model =
        *target_.models[(cycles_ + 1) % target_.models.size()];
    const std::string path = dir_ + "/" + target_.name + ".logr";
    const std::int64_t before = MtimeNs(path);
    {
      ScopedSpan span("core.write_summary");
      WriteSummaryOrDie(path, *target_.vocab, model);
    }
    // File times move in clock ticks; the registry must see a new mtime.
    while (MtimeNs(path) == before) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      WriteSummaryOrDie(path, *target_.vocab, model);
    }
    ++cycles_;
    std::string reply, info, error;
    std::int64_t send_ns = 0, info_send_ns = 0;
    const bool reloaded = conn_.Call("reload", &reply, &send_ns, &error);
    Tracer::Add("serve.reload", send_ns, NowNs());
    const bool informed = reloaded && conn_.Call("info " + target_.name, &info,
                                                 &info_send_ns, &error);
    const std::uint64_t seen = ReplyField(info, "generation");
    if (!informed || reply != "ok loaded=0 reloaded=1 removed=0 failed=0" ||
        seen != generation_ + 1) {
      ++failed_;
      if (first_failure_.empty()) {
        first_failure_ = informed ? reply + " / " + info : error;
      }
    }
    generation_ = seen;
  }

  std::uint64_t cycles() const { return cycles_; }

  void File(Report* r) const {
    r->attempted += cycles_;
    r->failed += failed_;
    r->Expect("reload_generation_steps_by_one", failed_ == 0,
              failed_ == 0 ? std::to_string(cycles_) + " publishes"
                           : first_failure_);
  }

 private:
  Connection conn_;
  std::string dir_;
  ServeTarget target_;
  std::uint64_t generation_ = 1;
  std::uint64_t cycles_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

/// After all traffic: the daemon's `stats` must account exactly for the
/// connections and request lines sent, with nothing shed or timed out.
void ReconcileStats(const LiveDaemon& daemon, Tally* tally,
                    std::uint64_t publishes, Report* r) {
  Connection conn(daemon.endpoint(), tally);
  std::string reply, error;
  std::int64_t send_ns = 0;
  if (!conn.Call("stats", &reply, &send_ns, &error)) reply = error;
  std::map<std::string, std::uint64_t> want = {
      {"accepted", tally->connects.load()},
      {"requests", tally->lines.load()},
      {"shed", 0},
      {"timed_out", 0},
      // The timed initial load, Start()'s rescan, one per `reload`.
      {"rescans", 2 + publishes}};
  bool ok = true;
  for (const auto& [key, value] : want) {
    const std::uint64_t got = ReplyField(reply, key);
    ok = ok && got == value;
    r->layers["serve.stats." + key] = static_cast<double>(got);
  }
  std::string expected;
  for (const auto& [key, value] : want) {
    expected += " " + key + "=" + std::to_string(value);
  }
  r->Expect("stats_reconcile", ok, reply + " (want" + expected + ")");
  r->layers["bench.reconnects"] = static_cast<double>(tally->reconnects.load());
}

/// The serve half of the trip for a compress workload: serve the pass's
/// summary, send each battery request once, republish and reload it a
/// few times, reconcile `stats`.
void ServeOnce(const Vocabulary& vocab, const WorkloadModel& model,
               const std::vector<Probe>& battery, Report* r) {
  MakeDir("served");
  WriteSummaryOrDie("served/bank.logr", vocab, model);
  LiveDaemon daemon("served");
  const ServeTarget target{"bank", &vocab, {&model}};
  r->Expect("daemon_loaded_all", daemon.Start() == 1, "");
  const std::vector<ServeCase> cases = BuildCases({target}, battery);
  ProbeHandler(daemon.registry(), cases, r);
  Tally tally;
  const auto check = [&](std::size_t i, const std::string& reply) {
    return Matches(cases[i], reply);
  };
  FileLoad(RunClosedLoop(daemon.endpoint(), Lines(cases), check, 1e9,
                         cases.size(), 1, &tally, /*record_spans=*/true, 1),
           "battery", r);
  Publisher publisher(daemon.endpoint(), "served", target, &tally);
  while (publisher.cycles() < kPublishCycles) publisher.Publish();
  publisher.File(r);
  ReconcileStats(daemon, &tally, publisher.cycles(), r);
}

// ------------------------------------------------------------ SQL probe

/// Per-statement timings of the SQL front end over the workload's SQL
/// lines: sql::Parse alone, then LogLoader::AddSql (parse, regularize,
/// featurize, accumulate) into a fresh loader, under one
/// workload.add_sql span like an ingest pass's.
void ProbeSqlFrontEnd(const std::vector<std::string_view>& lines,
                      Report* r) {
  std::vector<double> parse_us, add_sql_us;
  for (std::string_view sql : lines) {
    const std::int64_t start = NowNs();
    sql::Parse(sql);
    parse_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  LogLoader loader;
  ScopedSpan span("workload.add_sql");
  for (std::string_view sql : lines) {
    const std::int64_t start = NowNs();
    loader.AddSql(sql, 1);
    add_sql_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  r->layers["sql.parse_us"] = Quantile(parse_us, 0.5);
  r->layers["workload.add_sql_us"] = Quantile(add_sql_us, 0.5);
}

/// The sample SQL a .logrl keeps for each distinct template.
std::vector<std::string_view> SampleSql(const MmapQueryLog& log) {
  std::vector<std::string_view> lines;
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    if (!log.SampleSql(i).empty()) lines.push_back(log.SampleSql(i));
  }
  return lines;
}

// ------------------------------------------------------------ workloads

struct RunArgs {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
};

void RunCompressWorkload(const RunArgs& args, Report* r) {
  const bool text = args.workload == kIngest;
  const std::string input = text ? "bank.sql" : "bank.logrl";
  const LogROptions opts =
      text ? NaiveOptions(ClusteringMethod::kKMeansEuclidean, 8)
           : NaiveOptions(ClusteringMethod::kHierarchicalAverage, 16);

  // The first pass's summary is the reference every later pass must
  // reproduce byte for byte. Passes until the warm-up ends are untimed.
  auto in = std::make_unique<PassInput>();
  const LogRSummary reference =
      CompressPass(input, text, opts, "pass.logr", in.get());
  const std::string reference_bytes = ReadFile("pass.logr");
  std::uint64_t pool_builds = reference.pool_builds;
  std::size_t passes = 1, mismatched = 0;
  // Threads inherit their creator's CPU set: the shared pool is started
  // before the rotation pins this thread, and the rotation ends before
  // the serve half starts the daemon's threads.
  ThreadPool::Shared();
  auto rotation = std::make_unique<CpuRotation>();
  // Runs one pass, checks its output, and returns its duration.
  const auto pass = [&] {
    rotation->Next();
    in = std::make_unique<PassInput>();
    const std::int64_t start = NowNs();
    const LogRSummary s = CompressPass(input, text, opts, "pass.logr", in.get());
    const double seconds = Seconds(NowNs() - start);
    pool_builds = std::max(pool_builds, s.pool_builds);
    ++passes;
    ++r->attempted;
    if (ReadFile("pass.logr") != reference_bytes) {
      ++r->failed;
      ++mismatched;
    }
    return seconds;
  };
  const std::int64_t warm =
      NowNs() + Nanos(std::min(kWarmupSeconds, args.seconds / 2));
  while (NowNs() < warm) pass();

  std::vector<double> pass_s;
  const std::int64_t start = NowNs();
  const std::int64_t stop = start + Nanos(args.seconds);
  while (NowNs() < stop || pass_s.size() < kMinPasses) pass_s.push_back(pass());
  const double wall_s = Seconds(NowNs() - start);
  rotation.reset();
  r->Expect("pass_bytes_identical", mismatched == 0,
            std::to_string(mismatched) + " of " + std::to_string(passes) +
                " passes differ from the first");
  r->Expect("one_packed_pool_per_compress", pool_builds == 1,
            "pool_builds " + std::to_string(pool_builds));
  CheckFunnel(*in, ReadManifest(), r);

  // A pass is deterministic work, and host interference only ever slows
  // it, in stretches of seconds that cover several passes. The fastest
  // decile of the passes is the pass time on a quiet host; the median
  // and p75 move with how much of the run such stretches covered.
  double total_s = 0.0;
  for (double s : pass_s) total_s += s;
  const double n = static_cast<double>(pass_s.size());
  r->e2e["latency_ms"] = Quantile(pass_s, kQuietQuantile) * 1e3;
  r->layers["bench.latency_tail_ms"] = Quantile(pass_s, 0.75) * 1e3;
  r->layers["bench.capacity_ops_s"] = n / total_s;
  r->layers["bench.achieved_rate"] = n / wall_s;
  r->notes["latency"] =
      "p10 of " + std::to_string(pass_s.size()) + " passes (p50 " +
      std::to_string(std::lround(Quantile(pass_s, 0.5) * 1e3)) +
      " ms); tail = p75";

  const WorkloadModel& model = reference.Model();
  const std::vector<Probe> battery = MakeBattery(*in);
  r->e2e["summary_bytes"] = static_cast<double>(reference_bytes.size());
  r->e2e["error_nats"] = model.Error();
  r->layers["core.estimate_rel_err"] = MeanRelativeError(model, battery);
  CheckReload("pass.logr", model, battery, r);
  ServeOnce(in->view().vocabulary(), model, battery, r);
  ClusterCounts(in->view(), opts, r);
  r->layers["core.pool_builds"] = static_cast<double>(pool_builds);

  if (args.trace) {
    std::vector<std::string_view> lines;
    std::string sql_text;
    if (text) {
      sql_text = ReadFile(input);
      ForEachLine(sql_text, [&](std::string_view line) {
        std::uint64_t count = 1;
        lines.push_back(SplitCount(line, &count));
      });
    } else {
      lines = SampleSql(in->binary);
    }
    ProbeSqlFrontEnd(lines, r);
  }
}

void RunServeWorkload(const RunArgs& args, Report* r) {
  const bool reload = args.workload == kServeReload;
  const std::string log_path = reload ? "pocket.logrl" : "bank.logrl";

  // Compress half of the trip: a fresh compress of the log in this
  // process reproduces each served summary byte for byte, and the
  // served file reloads to the same answers.
  std::vector<LogRSummary> fresh;
  std::unique_ptr<PassInput> in;
  const std::vector<ServedSpec> specs = ServedSummaries(args.workload);
  std::vector<Probe> battery;
  double served_bytes = 0.0;
  for (const ServedSpec& spec : specs) {
    in = std::make_unique<PassInput>();
    fresh.push_back(
        CompressPass(log_path, false, spec.opts, "recompressed.logr", in.get()));
    ++r->attempted;
    const std::string path = "summaries/" + spec.name + ".logr";
    const std::string served = ReadFile(path);
    served_bytes += static_cast<double>(served.size());
    r->Expect("recompress_reproduces:" + spec.name,
              ReadFile("recompressed.logr") == served, "");
    if (battery.empty()) battery = MakeBattery(*in);
    CheckReload(path, fresh.back().Model(), battery, r);
  }
  CheckFunnel(*in, ReadManifest(), r);
  ClusterCounts(in->view(), specs.back().opts, r);
  r->layers["core.pool_builds"] = static_cast<double>(fresh.back().pool_builds);

  // Serve half: the daemon's snapshots are the models answers must
  // match; the reload workload also accepts model B, which it
  // alternates with A while the open loop runs.
  LiveDaemon daemon("summaries");
  r->Expect("daemon_loaded_all", daemon.Start() == specs.size(), "");
  std::vector<std::shared_ptr<const ServedSummary>> snapshots;
  std::vector<ServeTarget> targets;
  PersistedSummary model_b;
  if (reload) {
    std::string error;
    ScopedSpan span("core.read_summary");
    if (!ReadSummaryFile("model_b.logr", &model_b, &error)) Fatal(error);
  }
  double error_sum = 0.0, rel_err_sum = 0.0;
  for (const ServedSpec& spec : specs) {
    snapshots.push_back(daemon.registry()->Find(spec.name));
    if (snapshots.back() == nullptr) Fatal("not served: " + spec.name);
    const PersistedSummary& s = snapshots.back()->summary;
    ServeTarget t{spec.name, &s.vocabulary, {s.model.get()}};
    if (reload) t.models.push_back(model_b.model.get());
    targets.push_back(t);
    error_sum += s.model->Error();
    rel_err_sum += MeanRelativeError(*s.model, battery);
  }
  const double n_specs = static_cast<double>(specs.size());
  r->e2e["summary_bytes"] = served_bytes;
  r->e2e["error_nats"] = error_sum / n_specs;
  r->layers["core.estimate_rel_err"] = rel_err_sum / n_specs;

  const std::vector<ServeCase> cases = BuildCases(targets, battery);
  const std::vector<std::string> lines = Lines(cases);
  ProbeHandler(daemon.registry(), cases, r);
  const auto check = [&](std::size_t i, const std::string& reply) {
    return Matches(cases[i], reply);
  };
  Tally tally;
  FileLoad(RunClosedLoop(daemon.endpoint(), lines, check,
                         std::min(kWarmupSeconds, args.seconds / 2),
                         ~std::size_t{0}, kServeConnections, &tally, false, 0),
           "warmup", r);

  // Open loop. The reload workload meanwhile publishes model B, then A,
  // then B ... over its served summary every 500 ms.
  const double rate = reload ? kPatternRate : kNaiveRate;
  const double open_s = args.seconds * kOpenLoopShare;
  Publisher publisher(daemon.endpoint(), "summaries", targets[0], &tally);
  std::atomic<bool> open_done{false};
  std::thread publishing;
  if (reload) {
    publishing = std::thread([&] {
      for (std::int64_t next = NowNs() + kPublishIntervalNs;;
           next += kPublishIntervalNs) {
        while (!open_done.load() && NowNs() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (open_done.load()) break;
        publisher.Publish();
      }
    });
  }
  const LoadResult open = RunOpenLoop(daemon.endpoint(), lines, check, rate,
                                      open_s, kServeConnections, &tally,
                                      1000000);
  open_done.store(true);
  if (publishing.joinable()) publishing.join();
  FileLoad(open, "open_loop", r);
  r->Expect("generator_rate",
            open.achieved_rate >= kMinRateShare * rate,
            "achieved " + Fmt(open.achieved_rate) + " of " + Fmt(rate) +
                " requests/s");
  r->layers["bench.achieved_rate"] = open.achieved_rate;

  const LoadResult closed =
      RunClosedLoop(daemon.endpoint(), lines, check,
                    args.seconds * (1.0 - kOpenLoopShare), ~std::size_t{0},
                    kServeConnections, &tally, false, 0);
  FileLoad(closed, "closed_loop", r);

  // Every workload reloads at least kPublishCycles times, however short.
  while (publisher.cycles() < kPublishCycles) publisher.Publish();
  publisher.File(r);
  ReconcileStats(daemon, &tally, publisher.cycles(), r);

  // The tail is the median over one-second windows of each window's p99.
  // A host stall of ~0.1 s delays about as many requests as lie beyond
  // the p99 of a whole open loop, so that p99 would measure the host's
  // stalls rather than the daemon. A stall moves one window's p99 and not
  // the median; a daemon stall that recurs, such as one per reload, still
  // moves every window.
  const std::size_t windows = std::max<std::size_t>(
      1, open.latency_us.size() / static_cast<std::size_t>(rate));
  std::vector<double> latency_ms, window_p99;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> window;
    for (std::size_t i = w * open.latency_us.size() / windows;
         i < (w + 1) * open.latency_us.size() / windows; ++i) {
      if (!std::isnan(open.latency_us[i])) {
        window.push_back(open.latency_us[i] / 1e3);
      }
    }
    latency_ms.insert(latency_ms.end(), window.begin(), window.end());
    if (!window.empty()) window_p99.push_back(Quantile(window, 0.99));
  }
  r->e2e["latency_ms"] = Quantile(latency_ms, 0.5);
  r->layers["bench.latency_tail_ms"] = Quantile(window_p99, 0.5);
  r->layers["bench.capacity_ops_s"] = closed.achieved_rate;
  r->notes["latency"] = "p50 of " + std::to_string(latency_ms.size()) +
                        " open-loop requests at " + Fmt(rate) +
                        "/s; tail = median p99 of " + std::to_string(windows) +
                        " one-second windows";

  if (args.trace) ProbeSqlFrontEnd(SampleSql(in->binary), r);
}

// ------------------------------------------------- per-layer metrics

std::vector<double> DurationsUs(const std::vector<SpanRecord>& spans,
                                std::initializer_list<std::string_view> names) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    for (std::string_view name : names) {
      if (name == s.name) out.push_back(s.DurationUs());
    }
  }
  return out;
}

void LayerMetrics(const std::vector<SpanRecord>& spans, bool compress,
                  Report* r) {
  auto median = [&](std::initializer_list<std::string_view> names) {
    return Quantile(DurationsUs(spans, names), 0.5);
  };
  auto& L = r->layers;
  L["workload.open_ms"] =
      median({"workload.read_text", "workload.mmap_open"}) / 1e3;
  L["workload.add_sql_s"] = median({"workload.add_sql"}) / 1e6;
  L["cluster.cluster_ms"] = median({"cluster.cluster"}) / 1e3;
  L["core.pack_ms"] = median({"core.pack"}) / 1e3;
  L["core.encode_ms"] = median({"core.encode"}) / 1e3;
  L["core.write_summary_ms"] = median({"core.write_summary"}) / 1e3;
  L["core.read_summary_ms"] = median({"core.read_summary"}) / 1e3;
  L["core.estimate_us"] = median({"core.estimate"});
  const std::vector<double> request = DurationsUs(spans, {"serve.request"});
  L["serve.request_us_p50"] = Quantile(request, 0.5);
  L["serve.request_us_p99"] = Quantile(request, 0.99);
  L["serve.queue_wait_us_p99"] =
      Quantile(DurationsUs(spans, {"bench.queue_wait"}), 0.99);
  L["serve.handle_us_p50"] = median({"serve.handle"});
  L["serve.transport_us_p50"] =
      L["serve.request_us_p50"] - L["serve.handle_us_p50"];
  L["serve.rescan_ms"] = median({"serve.rescan"}) / 1e3;
  L["serve.reload_ms"] = median({"serve.reload"}) / 1e3;

  // Share of each timed operation that its child spans account for.
  const std::string_view op = compress ? "bench.pass" : "bench.request";
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::vector<double> attributed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (op != spans[i].name) continue;
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    if (dur > 0) {
      attributed.push_back(100.0 * (1.0 - static_cast<double>(self[i]) / dur));
    }
  }
  L["bench.attributed_pct"] = Quantile(attributed, 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Run(const std::string& dir, const RunArgs& args,
        const std::string& trace_out) {
  if (::chdir(dir.c_str()) != 0) Fatal("cannot enter " + dir);
  if (args.trace) Tracer::Enable();
  NowNs();  // fix the trace epoch before any span

  Report r;
  r.workload = args.workload;
  const bool compress =
      args.workload == kIngest || args.workload == kRecompress;
  if (compress) {
    RunCompressWorkload(args, &r);
  } else if (args.workload == kServeNaive || args.workload == kServeReload) {
    RunServeWorkload(args, &r);
  } else {
    Fatal("unknown workload " + args.workload);
  }
  r.e2e["peak_rss_mb"] = PeakRssMb();
  r.layers["util.threads"] =
      static_cast<double>(ThreadPool::Shared()->NumThreads());

  if (args.trace) {
    const std::vector<SpanRecord> spans = Tracer::Collect();
    LayerMetrics(spans, compress, &r);
    std::string error;
    if (!WriteChromeTrace(trace_out, spans, kMaxTraceEvents, &error)) {
      Fatal(error);
    }
  }
  PrintReport(r);
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: logr_e2e setup --workload W --seed N --dir D\n"
               "       logr_e2e run --workload W --dir D --seconds S "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (argc % 2 != 0) return Usage();  // every flag takes one value
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (flags.count("workload") == 0 || flags.count("dir") == 0) return Usage();
  if (cmd == "setup") {
    if (flags.count("seed") == 0) return Usage();
    MakeDir(flags["dir"]);
    if (::chdir(flags["dir"].c_str()) != 0) Fatal("cannot enter dir");
    return Setup(flags["workload"], std::strtoull(flags["seed"].c_str(),
                                                  nullptr, 10));
  }
  if (cmd == "run") {
    RunArgs args;
    args.workload = flags["workload"];
    args.seconds = std::atof(flags.count("seconds") ? flags["seconds"].c_str()
                                                    : "10");
    args.trace = flags.count("trace-out") != 0;
    if (!(args.seconds > 0)) return Usage();
    std::string trace_out = flags["trace-out"];
    if (args.trace && trace_out[0] != '/') {
      // Run() changes into the work directory first.
      char cwd[4096];
      if (::getcwd(cwd, sizeof(cwd)) == nullptr) Fatal("getcwd failed");
      trace_out = std::string(cwd) + "/" + trace_out;
    }
    return Run(flags["dir"], args, trace_out);
  }
  return Usage();
}

}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
