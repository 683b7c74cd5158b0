#include "core/serialization.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/pattern_model.h"
#include "util/check.h"

namespace logr {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

FeatureClause ClauseFromInt(int v) {
  switch (v) {
    case 0: return FeatureClause::kSelect;
    case 1: return FeatureClause::kFrom;
    case 2: return FeatureClause::kWhere;
    case 3: return FeatureClause::kGroupBy;
    case 4: return FeatureClause::kOrderBy;
    default: return FeatureClause::kLimit;
  }
}

/// Codebook block shared by every summary version.
void WriteCodebook(const Vocabulary& vocab, std::ostream& os) {
  os << "features " << vocab.size() << "\n";
  for (FeatureId f = 0; f < vocab.size(); ++f) {
    const Feature& feat = vocab.Get(f);
    os << "f " << static_cast<int>(feat.clause) << " " << feat.text << "\n";
  }
}

/// Codebook + cluster payload of the naive family (v1/v2).
void WritePayload(const Vocabulary& vocab,
                  const NaiveMixtureEncoding& encoding, std::ostream& os) {
  WriteCodebook(vocab, os);
  os << "clusters " << encoding.NumComponents() << "\n";
  for (std::size_t c = 0; c < encoding.NumComponents(); ++c) {
    const MixtureComponent& comp = encoding.Component(c);
    os << "cluster " << comp.weight << " " << comp.encoding.LogSize() << " "
       << comp.encoding.EmpiricalEntropy() << " "
       << comp.encoding.Verbosity() << "\n";
    for (std::size_t i = 0; i < comp.encoding.features().size(); ++i) {
      os << "m " << comp.encoding.features()[i] << " "
         << comp.encoding.marginals()[i] << "\n";
    }
  }
}

/// v3 body: one pcluster header per component, then that component's
/// patterns with the marginals that were measured on the log. Emitting
/// the *measured* marginals (not the fitted class probabilities) is
/// what makes the round trip exact: the reader refits by the same
/// deterministic iterative scaling the encoder ran, over the same
/// inputs.
void WritePatternSummary(const Vocabulary& vocab,
                         const PatternMixtureModel& model, std::ostream& os) {
  os << "logr-summary v3\n";
  os << "encoder pattern\n";
  WriteCodebook(vocab, os);
  os << "clusters " << model.NumComponents() << "\n";
  for (std::size_t c = 0; c < model.NumComponents(); ++c) {
    const PatternEncoding& enc = model.ComponentEncoding(c);
    os << "pcluster " << model.ComponentWeight(c) << " " << enc.LogSize()
       << " " << enc.EmpiricalEntropy() << " " << enc.NumFeatures() << " "
       << enc.patterns().size() << "\n";
    for (std::size_t i = 0; i < enc.patterns().size(); ++i) {
      const FeatureVec& b = enc.patterns()[i];
      os << "pm " << enc.marginals()[i] << " " << b.size();
      for (FeatureId f : b.ids) os << " " << f;
      os << "\n";
    }
  }
}

}  // namespace

bool WriteSummary(const Vocabulary& vocab, const WorkloadModel& model,
                  std::ostream* out, std::string* error) {
  if (const PatternMixtureModel* pattern = model.AsPatternMixture()) {
    out->precision(17);
    WritePatternSummary(vocab, *pattern, *out);
    return true;
  }
  const NaiveMixtureEncoding* payload = model.AsNaiveMixture();
  if (payload == nullptr) {
    return Fail(error, std::string("summaries produced by encoder '") +
                           model.EncoderName() +
                           "' expose neither a naive-mixture nor a pattern "
                           "payload and cannot be serialized");
  }
  // Only tags the reader understands are written: a runtime-registered
  // mergeable encoder persists as its naive payload, so its files stay
  // loadable everywhere.
  const bool refined = std::string(model.EncoderName()) == "refined";
  std::ostream& os = *out;
  os.precision(17);
  os << "logr-summary v2\n";
  os << "encoder " << (refined ? "refined" : "naive") << "\n";
  WritePayload(vocab, *payload, os);
  if (!refined) return true;
  for (std::size_t c = 0; c < model.NumComponents(); ++c) {
    const std::vector<FeatureVec> patterns = model.ComponentPatterns(c);
    if (patterns.empty()) continue;
    os << "patterns " << c << " " << patterns.size() << " "
       << model.ComponentError(c) << "\n";
    for (const FeatureVec& b : patterns) {
      os << "p " << b.size();
      for (FeatureId f : b.ids) os << " " << f;
      os << "\n";
    }
  }
  os << "refined_error " << model.Error() << "\n";
  return true;
}

void WriteSummary(const Vocabulary& vocab,
                  const NaiveMixtureEncoding& encoding, std::ostream* out) {
  std::ostream& os = *out;
  os.precision(17);
  os << "logr-summary v2\n";
  os << "encoder naive\n";
  WritePayload(vocab, encoding, os);
}

bool ReadSummary(std::istream* in, PersistedSummary* summary,
                 std::string* error) {
  std::istream& is = *in;
  std::string line;

  auto next_line = [&](std::string* out_line) {
    while (std::getline(is, *out_line)) {
      if (!out_line->empty() && (*out_line)[0] != '#') return true;
    }
    return false;
  };

  if (!next_line(&line)) return Fail(error, "missing or unsupported header");
  int version = 0;
  if (line == "logr-summary v1") {
    version = 1;
  } else if (line == "logr-summary v2") {
    version = 2;
  } else if (line == "logr-summary v3") {
    version = 3;
  } else {
    return Fail(error, "missing or unsupported header");
  }

  summary->encoder = "naive";
  if (version >= 2) {
    if (!next_line(&line)) return Fail(error, "truncated: encoder");
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> summary->encoder) || tag != "encoder") {
      return Fail(error, "malformed encoder line: " + line);
    }
    // v3 exists solely to carry pattern components; the naive family
    // stays on the byte-stable v2 format (CI diffs summaries with cmp).
    if (version == 3) {
      if (summary->encoder != "pattern") {
        return Fail(error, "summary v3 requires encoder pattern, got: " +
                               summary->encoder);
      }
    } else if (summary->encoder != "naive" && summary->encoder != "refined") {
      return Fail(error, "unsupported encoder tag: " + summary->encoder);
    }
  }

  if (!next_line(&line)) return Fail(error, "truncated: features");
  std::size_t n_features = 0;
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> n_features) || tag != "features") {
      return Fail(error, "malformed features line: " + line);
    }
  }
  for (std::size_t f = 0; f < n_features; ++f) {
    if (!next_line(&line)) return Fail(error, "truncated feature list");
    std::istringstream ls(line);
    std::string tag;
    int clause = 0;
    if (!(ls >> tag >> clause) || tag != "f") {
      return Fail(error, "malformed feature line: " + line);
    }
    std::string text;
    std::getline(ls, text);
    if (!text.empty() && text[0] == ' ') text.erase(0, 1);
    Feature feat{ClauseFromInt(clause), text};
    FeatureId id = summary->vocabulary.Intern(feat);
    if (id != f) return Fail(error, "duplicate feature in codebook: " + text);
  }

  if (!next_line(&line)) return Fail(error, "truncated: clusters");
  std::size_t n_clusters = 0;
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> n_clusters) || tag != "clusters") {
      return Fail(error, "malformed clusters line: " + line);
    }
  }
  if (version == 3) {
    // Pattern components: refit each max-ent representative from the
    // stored (patterns, measured marginals, universe width). The fit is
    // deterministic, so the loaded model answers every estimate bit-for-
    // bit like the in-memory one. Validation mirrors the v2 battery,
    // plus the kMaxServablePatterns cap the encoder itself is clamped
    // to: every file WriteSummary produces loads back, and a hostile
    // file cannot demand an exponential lattice fit.
    std::vector<PatternMixtureModel::Component> components;
    components.reserve(n_clusters);
    std::uint64_t total_log_size = 0;
    for (std::size_t c = 0; c < n_clusters; ++c) {
      if (!next_line(&line)) return Fail(error, "truncated pcluster header");
      std::istringstream ls(line);
      std::string tag;
      double weight = 0.0, empirical = 0.0;
      std::uint64_t log_size = 0;
      std::size_t comp_features = 0, n_patterns = 0;
      if (!(ls >> tag >> weight >> log_size >> empirical >> comp_features >>
            n_patterns) ||
          tag != "pcluster") {
        return Fail(error, "malformed pcluster line: " + line);
      }
      if (!(weight >= 0.0 && weight <= 1.0 + 1e-9)) {
        return Fail(error, "pcluster weight outside [0,1]: " + line);
      }
      if (!(empirical >= 0.0) || !std::isfinite(empirical)) {
        return Fail(error,
                    "pcluster entropy not finite/non-negative: " + line);
      }
      if (comp_features > n_features) {
        return Fail(error, "pcluster universe exceeds the codebook: " + line);
      }
      if (n_patterns > PatternMixtureModel::kMaxServablePatterns) {
        return Fail(error, "implausible pattern count: " + line);
      }
      std::vector<FeatureVec> patterns;
      std::vector<double> marginals;
      patterns.reserve(n_patterns);
      marginals.reserve(n_patterns);
      for (std::size_t i = 0; i < n_patterns; ++i) {
        if (!next_line(&line)) return Fail(error, "truncated pattern list");
        std::istringstream ps(line);
        std::string ptag;
        double p = 0.0;
        std::size_t n_ids = 0;
        if (!(ps >> ptag >> p >> n_ids) || ptag != "pm" || n_ids == 0 ||
            n_ids > comp_features) {
          return Fail(error, "malformed pattern-marginal line: " + line);
        }
        if (!(p >= 0.0 && p <= 1.0)) {
          return Fail(error, "pattern marginal out of [0,1]: " + line);
        }
        std::vector<FeatureId> ids(n_ids);
        for (std::size_t j = 0; j < n_ids; ++j) {
          if (!(ps >> ids[j]) || ids[j] >= comp_features) {
            return Fail(error,
                        "pattern references unknown feature id: " + line);
          }
        }
        FeatureVec b(std::move(ids));
        if (b.size() != n_ids) {
          return Fail(error, "duplicate id within pattern: " + line);
        }
        for (const FeatureVec& prev : patterns) {
          if (prev.ids == b.ids) {
            return Fail(error, "duplicate pattern in pcluster: " + line);
          }
        }
        patterns.push_back(std::move(b));
        marginals.push_back(p);
      }
      total_log_size += log_size;
      components.emplace_back(
          weight, PatternEncoding(std::move(patterns), std::move(marginals),
                                  comp_features, empirical, log_size));
    }
    if (next_line(&line)) {
      return Fail(error, "unexpected trailer line: " + line);
    }
    summary->encoding = NaiveMixtureEncoding();
    summary->model = std::make_shared<PatternMixtureModel>(
        std::move(components), total_log_size);
    return true;
  }

  std::vector<MixtureComponent> components;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    if (!next_line(&line)) return Fail(error, "truncated cluster header");
    std::istringstream ls(line);
    std::string tag;
    double weight = 0.0, empirical = 0.0;
    std::uint64_t log_size = 0;
    std::size_t n_marginals = 0;
    if (!(ls >> tag >> weight >> log_size >> empirical >> n_marginals) ||
        tag != "cluster") {
      return Fail(error, "malformed cluster line: " + line);
    }
    // The negated comparisons also reject NaN, which a plain
    // `p < 0.0 || p > 1.0` silently accepts.
    if (!(weight >= 0.0 && weight <= 1.0 + 1e-9)) {
      return Fail(error, "cluster weight outside [0,1]: " + line);
    }
    if (!(empirical >= 0.0) || !std::isfinite(empirical)) {
      return Fail(error, "cluster entropy not finite/non-negative: " + line);
    }
    if (n_marginals > n_features) {
      return Fail(error, "cluster claims more marginals than features: " +
                             line);
    }
    std::vector<FeatureId> features;
    std::vector<double> marginals;
    features.reserve(n_marginals);
    marginals.reserve(n_marginals);
    std::vector<bool> seen(n_features, false);
    for (std::size_t i = 0; i < n_marginals; ++i) {
      if (!next_line(&line)) return Fail(error, "truncated marginal list");
      std::istringstream ms(line);
      std::string mtag;
      FeatureId f = 0;
      double p = 0.0;
      if (!(ms >> mtag >> f >> p) || mtag != "m") {
        return Fail(error, "malformed marginal line: " + line);
      }
      if (f >= n_features) {
        return Fail(error, "marginal references unknown feature id");
      }
      if (seen[f]) {
        return Fail(error, "duplicate feature id in cluster: " + line);
      }
      seen[f] = true;
      if (!(p >= 0.0 && p <= 1.0)) {
        return Fail(error, "marginal out of [0,1]: " + line);
      }
      features.push_back(f);
      marginals.push_back(p);
    }
    MixtureComponent comp;
    comp.weight = weight;
    comp.encoding = NaiveEncoding::FromMarginals(
        std::move(features), std::move(marginals), empirical, log_size);
    components.push_back(std::move(comp));
  }
  summary->encoding =
      NaiveMixtureEncoding::FromComponents(std::move(components));

  // v2 extras: per-cluster pattern blocks (with the component's refined
  // Error) and the informational total refined Error.
  std::vector<std::vector<FeatureVec>> patterns(n_clusters);
  std::vector<double> component_errors(n_clusters, 0.0);
  for (std::size_t c = 0; c < n_clusters; ++c) {
    component_errors[c] =
        summary->encoding.Component(c).encoding.ReproductionError();
  }
  double refined_error = 0.0;
  bool saw_refined_error = false;
  while (version >= 2 && next_line(&line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "patterns") {
      std::size_t cluster = 0, count = 0;
      double comp_error = 0.0;
      if (!(ls >> cluster >> count >> comp_error)) {
        return Fail(error, "malformed patterns line: " + line);
      }
      if (cluster >= n_clusters) {
        return Fail(error, "patterns block references unknown cluster: " +
                               line);
      }
      if (!patterns[cluster].empty()) {
        return Fail(error, "duplicate patterns block for cluster: " + line);
      }
      // Bound derived from the miner: the refined encoder can never
      // retain more patterns than its candidate cap or than distinct
      // multi-feature subsets exist — unlike the former n^2 + 1 guess,
      // this accepts every file WriteSummary itself produces.
      if (count == 0 || count > MaxRefinedPatternsPerComponent(n_features)) {
        return Fail(error, "implausible pattern count: " + line);
      }
      if (!std::isfinite(comp_error) || comp_error < 0.0) {
        return Fail(error, "component error not finite/non-negative: " +
                               line);
      }
      component_errors[cluster] = comp_error;
      for (std::size_t i = 0; i < count; ++i) {
        if (!next_line(&line)) return Fail(error, "truncated pattern list");
        std::istringstream ps(line);
        std::string ptag;
        std::size_t n_ids = 0;
        if (!(ps >> ptag >> n_ids) || ptag != "p" || n_ids == 0 ||
            n_ids > n_features) {
          return Fail(error, "malformed pattern line: " + line);
        }
        std::vector<FeatureId> ids(n_ids);
        for (std::size_t j = 0; j < n_ids; ++j) {
          if (!(ps >> ids[j]) || ids[j] >= n_features) {
            return Fail(error, "pattern references unknown feature id: " +
                                   line);
          }
        }
        patterns[cluster].push_back(FeatureVec(std::move(ids)));
      }
    } else if (tag == "refined_error") {
      if (!(ls >> refined_error) || !std::isfinite(refined_error) ||
          refined_error < 0.0) {
        return Fail(error, "malformed refined_error line: " + line);
      }
      saw_refined_error = true;
    } else {
      return Fail(error, "unexpected trailer line: " + line);
    }
  }

  if (summary->encoder == "refined") {
    // The model recomputes the total from the per-component errors; the
    // refined_error trailer is accepted for readability/diffability.
    (void)refined_error;
    (void)saw_refined_error;
    summary->model = std::make_shared<RefinedMixtureModel>(
        summary->encoding, std::move(patterns), std::move(component_errors));
  } else {
    bool any = false;
    for (const auto& p : patterns) any = any || !p.empty();
    if (any || saw_refined_error) {
      return Fail(error, "pattern/refined_error trailer on a non-refined "
                         "summary");
    }
    summary->model = std::make_shared<NaiveMixtureModel>(summary->encoding);
  }
  return true;
}

namespace {

/// Both file writers stage into a same-directory temporary and rename
/// over the target — rename(2) is atomic within a filesystem, so a
/// concurrent reader (the serve daemon's directory watch, a parallel
/// merge job) sees either the old complete summary or the new one,
/// never a torn prefix, and a crashed writer never leaves a
/// valid-looking partial at the published path.
std::string StagingPathFor(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

bool CommitStagedFile(const std::string& tmp, const std::string& path,
                      std::string* error) {
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Fail(error, "cannot publish summary (rename failed): " + path);
  }
  return true;
}

}  // namespace

bool WriteSummaryFile(const std::string& path, const Vocabulary& vocab,
                      const WorkloadModel& model, std::string* error) {
  const std::string tmp = StagingPathFor(path);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Fail(error, "cannot open for writing: " + tmp);
    if (!WriteSummary(vocab, model, &out, error)) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Fail(error, "write failed: " + tmp);
    }
  }
  return CommitStagedFile(tmp, path, error);
}

bool WriteSummaryFile(const std::string& path, const Vocabulary& vocab,
                      const NaiveMixtureEncoding& encoding,
                      std::string* error) {
  const std::string tmp = StagingPathFor(path);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Fail(error, "cannot open for writing: " + tmp);
    WriteSummary(vocab, encoding, &out);
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Fail(error, "write failed: " + tmp);
    }
  }
  return CommitStagedFile(tmp, path, error);
}

bool ReadSummaryFile(const std::string& path, PersistedSummary* summary,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open for reading: " + path);
  return ReadSummary(&in, summary, error);
}

bool MergeSummaries(const std::vector<PersistedSummary>& parts,
                    std::size_t max_components, ThreadPool* pool,
                    PersistedSummary* out, std::string* error) {
  if (parts.empty()) return Fail(error, "nothing to merge");
  // Pooling operates on the naive payload, so every part's encoder must
  // belong to the mergeable (naive) family — reject e.g. "pattern"
  // summaries loudly instead of silently merging something else.
  for (const PersistedSummary& part : parts) {
    const Encoder* encoder = EncoderRegistry::Instance().Find(part.encoder);
    if (encoder == nullptr) {
      return Fail(error, "unknown encoder tag in summary: " + part.encoder);
    }
    if (!encoder->Mergeable()) {
      return Fail(error, "summaries produced by encoder '" + part.encoder +
                             "' cannot be merged (no naive payload)");
    }
  }

  // Union the codebooks and rebuild each component's encoding in the
  // merged id space (feature lists stay sorted ascending).
  out->vocabulary = Vocabulary();
  std::vector<NaiveMixtureEncoding> remapped;
  remapped.reserve(parts.size());
  for (const PersistedSummary& part : parts) {
    std::vector<FeatureId> id_map(part.vocabulary.size());
    for (FeatureId f = 0; f < part.vocabulary.size(); ++f) {
      id_map[f] = out->vocabulary.Intern(part.vocabulary.Get(f));
    }
    std::vector<MixtureComponent> comps;
    comps.reserve(part.encoding.NumComponents());
    for (std::size_t c = 0; c < part.encoding.NumComponents(); ++c) {
      const MixtureComponent& comp = part.encoding.Component(c);
      std::vector<std::pair<FeatureId, double>> pairs;
      pairs.reserve(comp.encoding.features().size());
      for (std::size_t i = 0; i < comp.encoding.features().size(); ++i) {
        pairs.emplace_back(id_map[comp.encoding.features()[i]],
                           comp.encoding.marginals()[i]);
      }
      std::sort(pairs.begin(), pairs.end());
      std::vector<FeatureId> features;
      std::vector<double> marginals;
      features.reserve(pairs.size());
      marginals.reserve(pairs.size());
      for (const auto& [f, p] : pairs) {
        features.push_back(f);
        marginals.push_back(p);
      }
      MixtureComponent rebuilt;
      rebuilt.weight = comp.weight;
      rebuilt.encoding = NaiveEncoding::FromMarginals(
          std::move(features), std::move(marginals),
          comp.encoding.EmpiricalEntropy(), comp.encoding.LogSize());
      comps.push_back(std::move(rebuilt));
    }
    remapped.push_back(
        NaiveMixtureEncoding::FromComponents(std::move(comps)));
  }

  std::vector<const NaiveMixtureEncoding*> ptrs;
  ptrs.reserve(remapped.size());
  for (const NaiveMixtureEncoding& e : remapped) ptrs.push_back(&e);
  NaiveMixtureEncoding merged = NaiveMixtureEncoding::Merge(ptrs);

  if (max_components > 0 && merged.NumComponents() > max_components) {
    merged = merged.Reconcile(max_components, pool);
  }
  out->encoding = std::move(merged);
  // Patterns are log-dependent and cannot be re-ranked offline, so the
  // merge result is always a plain naive summary.
  out->encoder = "naive";
  out->model = std::make_shared<NaiveMixtureModel>(out->encoding);
  return true;
}

}  // namespace logr
