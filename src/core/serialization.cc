#include "core/serialization.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "core/pattern_model.h"
#include "util/bytes.h"
#include "util/check.h"
#include "workload/binary_log.h"

namespace logr {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// ---------------------------------------------------------- v4 writer

enum class EncoderCode : std::uint8_t {
  kNaive = 0,
  kRefined = 1,
  kPattern = 2,
};

/// Codebook token kinds: word bytes [A-Za-z0-9_], whitespace, and every
/// other byte (punctuation, control and non-ASCII bytes alike).
int TokenKind(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9') || c == '_') {
    return 0;
  }
  if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
      c == '\f') {
    return 1;
  }
  return 2;
}

/// Calls `fn` on each maximal run of one token kind in `text`; the runs
/// concatenate back to `text`.
template <typename Fn>
void ForEachToken(std::string_view text, Fn fn) {
  std::size_t i = 0;
  while (i < text.size()) {
    const int kind = TokenKind(text[i]);
    std::size_t j = i + 1;
    while (j < text.size() && TokenKind(text[j]) == kind) ++j;
    fn(text.substr(i, j - i));
    i = j;
  }
}

/// Codebook section: the token dictionary (most frequent first, first
/// occurrence breaking ties, so equal codebooks write equal bytes), then
/// each feature in id order as a clause byte and its token ids.
void AppendCodebook(const Vocabulary& vocab, std::string* out) {
  std::unordered_map<std::string_view, std::uint32_t> slot_of;
  std::vector<std::string_view> tokens;  // by first occurrence
  std::vector<std::uint64_t> frequency;
  std::vector<std::uint32_t> refs;        // slots, all features in order
  std::vector<std::uint32_t> ref_counts;  // one per feature
  ref_counts.reserve(vocab.size());
  for (FeatureId f = 0; f < vocab.size(); ++f) {
    const std::size_t before = refs.size();
    ForEachToken(vocab.Get(f).text, [&](std::string_view token) {
      auto [it, inserted] = slot_of.emplace(
          token, static_cast<std::uint32_t>(tokens.size()));
      if (inserted) {
        tokens.push_back(token);
        frequency.push_back(0);
      }
      ++frequency[it->second];
      refs.push_back(it->second);
    });
    ref_counts.push_back(static_cast<std::uint32_t>(refs.size() - before));
  }
  std::vector<std::uint32_t> order(tokens.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return frequency[a] > frequency[b];
                   });
  std::vector<std::uint32_t> id_of(tokens.size());
  AppendVarint(out, tokens.size());
  for (std::uint32_t id = 0; id < order.size(); ++id) {
    id_of[order[id]] = id;
    const std::string_view token = tokens[order[id]];
    AppendVarint(out, token.size());
    out->append(token.data(), token.size());
  }
  AppendVarint(out, vocab.size());
  std::size_t next = 0;
  for (FeatureId f = 0; f < vocab.size(); ++f) {
    AppendU8(out, static_cast<std::uint8_t>(vocab.Get(f).clause));
    AppendVarint(out, ref_counts[f]);
    for (std::uint32_t k = 0; k < ref_counts[f]; ++k) {
      AppendVarint(out, id_of[refs[next++]]);
    }
  }
}

/// True (with `*count`) when double(count) / double(log_size)
/// reproduces `p` bit for bit, so `p` can be stored as an integer.
bool ExactCount(double p, std::uint64_t log_size, std::uint64_t* count) {
  // Past 2^53 a count no longer converts to double exactly.
  if (log_size == 0 || log_size > (std::uint64_t{1} << 53) ||
      !(p >= 0.0 && p <= 1.0)) {
    return false;
  }
  const std::uint64_t c = static_cast<std::uint64_t>(
      std::nearbyint(p * static_cast<double>(log_size)));
  const double back = static_cast<double>(c) / static_cast<double>(log_size);
  if (std::memcmp(&back, &p, sizeof(p)) != 0) return false;
  *count = c;
  return true;
}

/// Appends `head` with a form bit, then marginal `p`: as a varint count
/// when ExactCount holds (bit 0), else as the raw f64 (bit 1).
void AppendTaggedMarginal(std::uint64_t head, double p,
                          std::uint64_t log_size, std::string* out) {
  std::uint64_t count = 0;
  if (ExactCount(p, log_size, &count)) {
    AppendVarint(out, head << 1);
    AppendVarint(out, count);
  } else {
    AppendVarint(out, (head << 1) | 1);
    AppendF64(out, p);
  }
}

/// Strictly ascending ids as gaps: each id minus (previous id + 1).
void AppendIdGaps(const std::vector<FeatureId>& ids, std::string* out) {
  std::uint64_t next = 0;
  for (FeatureId f : ids) {
    AppendVarint(out, f - next);
    next = static_cast<std::uint64_t>(f) + 1;
  }
}

void AppendNaiveComponents(const NaiveMixtureEncoding& encoding,
                           std::string* out) {
  AppendVarint(out, encoding.NumComponents());
  for (std::size_t c = 0; c < encoding.NumComponents(); ++c) {
    const MixtureComponent& comp = encoding.Component(c);
    const NaiveEncoding& enc = comp.encoding;
    AppendF64(out, comp.weight);
    AppendVarint(out, enc.LogSize());
    AppendF64(out, enc.EmpiricalEntropy());
    AppendVarint(out, enc.features().size());
    std::uint64_t next = 0;
    for (std::size_t i = 0; i < enc.features().size(); ++i) {
      const FeatureId f = enc.features()[i];
      AppendTaggedMarginal(f - next, enc.marginals()[i], enc.LogSize(), out);
      next = static_cast<std::uint64_t>(f) + 1;
    }
  }
}

/// Refined extras: per component, its pattern count, and when nonzero
/// its refined Error and the patterns.
void AppendRefinedPatterns(const WorkloadModel& model, std::string* out) {
  for (std::size_t c = 0; c < model.NumComponents(); ++c) {
    const std::vector<FeatureVec> patterns = model.ComponentPatterns(c);
    AppendVarint(out, patterns.size());
    if (patterns.empty()) continue;
    AppendF64(out, model.ComponentError(c));
    for (const FeatureVec& b : patterns) {
      AppendVarint(out, b.size());
      AppendIdGaps(b.ids, out);
    }
  }
}

/// Pattern components. The marginals are the ones measured on the log
/// (not fitted class probabilities): the reader refits by the same
/// deterministic iterative scaling the encoder ran, over the same
/// inputs, which is what makes the round trip exact.
void AppendPatternComponents(const PatternMixtureModel& model,
                             std::string* out) {
  AppendVarint(out, model.NumComponents());
  for (std::size_t c = 0; c < model.NumComponents(); ++c) {
    const PatternEncoding& enc = model.ComponentEncoding(c);
    AppendF64(out, model.ComponentWeight(c));
    AppendVarint(out, enc.LogSize());
    AppendF64(out, enc.EmpiricalEntropy());
    AppendVarint(out, enc.NumFeatures());
    AppendVarint(out, enc.patterns().size());
    for (std::size_t i = 0; i < enc.patterns().size(); ++i) {
      const FeatureVec& b = enc.patterns()[i];
      AppendTaggedMarginal(b.size(), enc.marginals()[i], enc.LogSize(), out);
      AppendIdGaps(b.ids, out);
    }
  }
}

/// Frames a payload: magic, version, flags, file size, checksum.
void WriteFramed(const std::string& payload, std::ostream* out) {
  LOGR_CHECK_MSG(HostIsLittleEndian(),
                 "summary v4 is not supported on big-endian hosts");
  std::string header(kSummaryMagic, sizeof(kSummaryMagic));
  AppendU32(&header, kSummaryVersion);
  AppendU32(&header, 0);  // flags
  AppendU64(&header, kSummaryHeaderSize + payload.size());
  AppendU64(&header, BinaryLogChecksum(payload.data(), payload.size()));
  LOGR_CHECK(header.size() == kSummaryHeaderSize);
  out->write(header.data(), static_cast<std::streamsize>(header.size()));
  out->write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

// ---------------------------------------------------------- v4 reader

/// Reads summary v4's payload front to back. Every read is bounds-
/// checked; the first failure sticks (later reads return zeros and
/// counts read as 0, so no loop runs on) and is what ReadSummary
/// reports.
class PayloadReader {
 public:
  PayloadReader(const char* begin, const char* end)
      : begin_(begin), p_(begin), end_(end) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::size_t offset() const { return static_cast<std::size_t>(p_ - begin_); }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  bool Fail(const std::string& message) {
    if (ok()) error_ = "summary v4: " + message;
    p_ = end_;
    return false;
  }

  std::uint8_t U8(const char* what) {
    if (remaining() < 1) return Truncated(what);
    return static_cast<std::uint8_t>(*p_++);
  }

  double F64(const char* what) {
    if (remaining() < 8) return Truncated(what);
    const double v = LoadF64(p_);
    p_ += 8;
    return v;
  }

  std::uint64_t Varint(const char* what) {
    std::uint64_t v = 0;
    if (!GetVarint(&p_, end_, &v)) return Truncated(what);
    return v;
  }

  /// A count of entries each at least `min_entry_bytes` long, refused
  /// (read as 0) when the remaining bytes cannot hold that many — so
  /// every allocation sized by it is bounded by the file.
  std::uint64_t Count(std::size_t min_entry_bytes, const char* what) {
    const std::uint64_t n = Varint(what);
    if (n > remaining() / min_entry_bytes) {
      Fail(std::string(what) + " count " + std::to_string(n) +
           " exceeds the bytes that remain");
      return 0;
    }
    return n;
  }

  std::string_view Bytes(std::uint64_t n, const char* what) {
    if (n > remaining()) {
      Truncated(what);
      return {};
    }
    std::string_view v(p_, static_cast<std::size_t>(n));
    p_ += n;
    return v;
  }

  /// A marginal written by AppendTaggedMarginal with form bit `raw`.
  double Marginal(bool raw, std::uint64_t log_size, const char* what) {
    if (raw) {
      const double p = F64(what);
      if (!(p >= 0.0 && p <= 1.0)) Fail(std::string(what) + " out of [0,1]");
      return p;
    }
    const std::uint64_t count = Varint(what);
    if (count > log_size || log_size == 0) {
      Fail(std::string(what) + " count exceeds the component's log size");
      return 0.0;
    }
    return static_cast<double>(count) / static_cast<double>(log_size);
  }

  /// `n` ascending ids written by AppendIdGaps, each below `bound`.
  std::vector<FeatureId> Ids(std::uint64_t n, std::uint64_t bound,
                             const char* what) {
    std::vector<FeatureId> ids;
    if (n > remaining()) {
      Truncated(what);
      return ids;
    }
    ids.reserve(static_cast<std::size_t>(n));
    std::uint64_t next = 0;
    for (std::uint64_t j = 0; j < n && ok(); ++j) {
      const std::uint64_t gap = Varint(what);
      if (next > bound || gap >= bound - next) {
        Fail(std::string(what) + " references unknown feature id");
        break;
      }
      ids.push_back(static_cast<FeatureId>(next + gap));
      next += gap + 1;
    }
    return ids;
  }

 private:
  int Truncated(const char* what) {
    Fail(std::string("truncated ") + what);
    return 0;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  std::string error_;
};

/// Component weight and entropy checks shared by ReadNaiveFamily and
/// ReadPatternComponents; the negated comparisons also reject NaN.
bool ValidWeight(double weight) {
  return weight >= 0.0 && weight <= 1.0 + 1e-9;
}
bool ValidEntropy(double h) { return h >= 0.0 && std::isfinite(h); }

/// Rebuilds the codebook. Reconstructed text is capped (a few tokens can
/// otherwise be referenced into gigabytes of text) at 64 bytes per file
/// byte, or 16 MiB for small files.
bool ReadCodebook(PayloadReader& in, std::size_t file_size,
                  Vocabulary* vocab) {
  const std::uint64_t n_tokens = in.Count(2, "token dictionary");
  std::vector<std::string_view> tokens;
  tokens.reserve(static_cast<std::size_t>(n_tokens));
  for (std::uint64_t t = 0; t < n_tokens && in.ok(); ++t) {
    const std::string_view token =
        in.Bytes(in.Varint("token dictionary"), "token dictionary");
    if (token.empty()) return in.Fail("empty token in the dictionary");
    tokens.push_back(token);
  }
  const std::size_t text_cap =
      std::max<std::size_t>(std::size_t{16} << 20, 64 * file_size);
  std::size_t text_bytes = 0;
  const std::uint64_t n_features = in.Count(2, "feature list");
  for (std::uint64_t f = 0; f < n_features && in.ok(); ++f) {
    Feature feat;
    if (!ClauseFromCode(in.U8("feature list"), &feat.clause)) {
      return in.Fail("invalid feature clause byte");
    }
    const std::uint64_t n_refs = in.Count(1, "feature tokens");
    for (std::uint64_t k = 0; k < n_refs && in.ok(); ++k) {
      const std::uint64_t id = in.Varint("feature tokens");
      if (id >= tokens.size()) {
        return in.Fail("token id " + std::to_string(id) +
                       " past the dictionary");
      }
      text_bytes += tokens[id].size();
      if (text_bytes > text_cap) {
        return in.Fail("codebook text exceeds " + std::to_string(text_cap) +
                       " bytes");
      }
      feat.text.append(tokens[id]);
    }
    if (in.ok() && vocab->Intern(feat) != f) {
      return in.Fail("duplicate feature in codebook: " + feat.text);
    }
  }
  return in.ok();
}

/// Naive-family components and, for "refined", the patterns section.
bool ReadNaiveFamily(PayloadReader& in, std::size_t n_features,
                     PersistedSummary* s) {
  // Smallest component: weight, log size, entropy, marginal count.
  const std::uint64_t n_clusters = in.Count(18, "component list");
  std::vector<MixtureComponent> components;
  components.reserve(static_cast<std::size_t>(n_clusters));
  for (std::uint64_t c = 0; c < n_clusters && in.ok(); ++c) {
    const double weight = in.F64("component header");
    const std::uint64_t log_size = in.Varint("component header");
    const double empirical = in.F64("component header");
    const std::uint64_t n_marginals = in.Count(2, "marginal list");
    if (!in.ok()) break;
    if (!ValidWeight(weight)) return in.Fail("cluster weight outside [0,1]");
    if (!ValidEntropy(empirical)) {
      return in.Fail("cluster entropy not finite/non-negative");
    }
    if (n_marginals > n_features) {
      return in.Fail("cluster claims more marginals than features");
    }
    std::vector<FeatureId> features;
    std::vector<double> marginals;
    features.reserve(static_cast<std::size_t>(n_marginals));
    marginals.reserve(static_cast<std::size_t>(n_marginals));
    std::uint64_t next = 0;
    for (std::uint64_t i = 0; i < n_marginals && in.ok(); ++i) {
      const std::uint64_t head = in.Varint("marginal list");
      const std::uint64_t gap = head >> 1;
      if (next > n_features || gap >= n_features - next) {
        return in.Fail("marginal references unknown feature id");
      }
      features.push_back(static_cast<FeatureId>(next + gap));
      next += gap + 1;
      marginals.push_back(in.Marginal(head & 1, log_size, "marginal"));
    }
    MixtureComponent comp;
    comp.weight = weight;
    comp.encoding = NaiveEncoding::FromMarginals(
        std::move(features), std::move(marginals), empirical, log_size);
    components.push_back(std::move(comp));
  }
  if (!in.ok()) return false;
  s->size.components = in.offset() - s->size.codebook - 1;

  const bool refined = s->encoder == "refined";
  std::vector<std::vector<FeatureVec>> patterns(components.size());
  std::vector<double> errors;  // per component, its refined Error
  if (refined) {
    for (std::size_t c = 0; c < components.size() && in.ok(); ++c) {
      // A component stored without patterns keeps its naive Error.
      errors.push_back(components[c].encoding.ReproductionError());
      const std::uint64_t count = in.Count(2, "pattern list");
      if (count == 0) continue;
      // Bound derived from the miner: the refined encoder never retains
      // more patterns than its candidate cap or than distinct
      // multi-feature subsets exist.
      if (count > MaxRefinedPatternsPerComponent(n_features)) {
        return in.Fail("implausible pattern count");
      }
      errors[c] = in.F64("pattern list");
      if (!ValidEntropy(errors[c])) {
        return in.Fail("component error not finite/non-negative");
      }
      for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        const std::uint64_t n_ids = in.Varint("pattern");
        if (n_ids == 0 || n_ids > n_features) {
          return in.Fail("malformed pattern");
        }
        patterns[c].push_back(FeatureVec(in.Ids(n_ids, n_features, "pattern")));
      }
    }
    if (!in.ok()) return false;
  }
  s->encoding = NaiveMixtureEncoding::FromComponents(std::move(components));
  if (refined) {
    s->model = std::make_shared<RefinedMixtureModel>(
        s->encoding, std::move(patterns), std::move(errors));
  } else {
    s->model = std::make_shared<NaiveMixtureModel>(s->encoding);
  }
  return true;
}

/// Pattern components, including the kMaxServablePatterns cap the
/// encoder itself is clamped to.
bool ReadPatternComponents(PayloadReader& in, std::size_t n_features,
                           PersistedSummary* s) {
  // Smallest component: weight, log size, entropy, width, pattern count.
  const std::uint64_t n_clusters = in.Count(19, "component list");
  std::vector<PatternMixtureModel::Component> components;
  components.reserve(static_cast<std::size_t>(n_clusters));
  std::uint64_t total_log_size = 0;
  for (std::uint64_t c = 0; c < n_clusters && in.ok(); ++c) {
    const double weight = in.F64("pcluster header");
    const std::uint64_t log_size = in.Varint("pcluster header");
    const double empirical = in.F64("pcluster header");
    const std::uint64_t comp_features = in.Varint("pcluster header");
    const std::uint64_t n_patterns = in.Count(3, "pattern list");
    if (!in.ok()) break;
    if (!ValidWeight(weight)) return in.Fail("pcluster weight outside [0,1]");
    if (!ValidEntropy(empirical)) {
      return in.Fail("pcluster entropy not finite/non-negative");
    }
    if (comp_features > n_features) {
      return in.Fail("pcluster universe exceeds the codebook");
    }
    if (n_patterns > PatternMixtureModel::kMaxServablePatterns) {
      return in.Fail("implausible pattern count");
    }
    std::vector<FeatureVec> patterns;
    std::vector<double> marginals;
    const std::size_t patterns_start = in.offset();
    for (std::uint64_t i = 0; i < n_patterns && in.ok(); ++i) {
      const std::uint64_t head = in.Varint("pattern");
      const std::uint64_t n_ids = head >> 1;
      const double p = in.Marginal(head & 1, log_size, "pattern marginal");
      if (n_ids == 0 || n_ids > comp_features) {
        return in.Fail("malformed pattern-marginal entry");
      }
      FeatureVec b(in.Ids(n_ids, comp_features, "pattern"));
      for (const FeatureVec& prev : patterns) {
        if (prev.ids == b.ids) return in.Fail("duplicate pattern in pcluster");
      }
      patterns.push_back(std::move(b));
      marginals.push_back(p);
    }
    if (!in.ok()) break;
    s->size.patterns += in.offset() - patterns_start;
    total_log_size += log_size;
    components.emplace_back(
        weight, PatternEncoding(std::move(patterns), std::move(marginals),
                                static_cast<std::size_t>(comp_features),
                                empirical, log_size));
  }
  if (!in.ok()) return false;
  s->encoding = NaiveMixtureEncoding();
  s->model = std::make_shared<PatternMixtureModel>(std::move(components),
                                                   total_log_size);
  return true;
}

/// Reads a whole summary v4 file; anything without its magic is refused
/// with the one error that names the fix.
bool ReadSummaryBytes(std::string_view bytes, PersistedSummary* s,
                      std::string* error) {
  if (bytes.size() < sizeof(kSummaryMagic) ||
      std::memcmp(bytes.data(), kSummaryMagic, sizeof(kSummaryMagic)) != 0) {
    return Fail(error,
                "not a summary v4 file (summary v1-v3 text is no longer read; "
                "re-run `logr_cli compress` on the log)");
  }
  if (!HostIsLittleEndian()) {
    return Fail(error, "summary v4: big-endian hosts are not supported");
  }
  if (bytes.size() < kSummaryHeaderSize) {
    return Fail(error, "summary v4: truncated header");
  }
  const char* base = bytes.data();
  const std::uint32_t version = LoadU32(base + 8);
  if (version != kSummaryVersion) {
    return Fail(error, "summary v4: unsupported version " +
                           std::to_string(version));
  }
  if (LoadU32(base + 12) != 0) {
    return Fail(error, "summary v4: reserved flags are nonzero");
  }
  if (LoadU64(base + 16) != bytes.size()) {
    return Fail(error, "summary v4: file size mismatch (truncated or "
                       "over-long file)");
  }
  const char* payload = base + kSummaryHeaderSize;
  const std::size_t payload_size = bytes.size() - kSummaryHeaderSize;
  if (LoadU64(base + kSummaryChecksumOffset) !=
      BinaryLogChecksum(payload, payload_size)) {
    return Fail(error, "summary v4: payload checksum mismatch (file is "
                       "corrupt)");
  }

  PayloadReader in(payload, payload + payload_size);
  s->size = SummarySize();
  s->size.total = bytes.size();
  const std::uint8_t code = in.U8("encoder");
  if (code == static_cast<std::uint8_t>(EncoderCode::kNaive)) {
    s->encoder = "naive";
  } else if (code == static_cast<std::uint8_t>(EncoderCode::kRefined)) {
    s->encoder = "refined";
  } else if (code == static_cast<std::uint8_t>(EncoderCode::kPattern)) {
    s->encoder = "pattern";
  } else {
    in.Fail("unknown encoder code " + std::to_string(code));
  }
  if (in.ok() && ReadCodebook(in, bytes.size(), &s->vocabulary)) {
    s->size.codebook = in.offset() - 1;
    const std::size_t n_features = s->vocabulary.size();
    if (s->encoder == "pattern") {
      ReadPatternComponents(in, n_features, s);
    } else {
      ReadNaiveFamily(in, n_features, s);
    }
  }
  if (in.ok() && in.remaining() != 0) in.Fail("trailing bytes");
  if (!in.ok()) return Fail(error, in.error());
  // Each component reader measured one section; the other is the rest.
  const std::size_t body = in.offset() - 1 - s->size.codebook;
  if (s->encoder == "pattern") {
    s->size.components = body - s->size.patterns;
  } else {
    s->size.patterns = body - s->size.components;
  }
  return true;
}

}  // namespace

bool WriteSummary(const Vocabulary& vocab, const WorkloadModel& model,
                  std::ostream* out, std::string* error) {
  const PatternMixtureModel* pattern = model.AsPatternMixture();
  const NaiveMixtureEncoding* naive = model.AsNaiveMixture();
  if (pattern == nullptr && naive == nullptr) {
    return Fail(error, std::string("summaries produced by encoder '") +
                           model.EncoderName() +
                           "' expose neither a naive-mixture nor a pattern "
                           "payload and cannot be serialized");
  }
  // Only tags the reader understands are written: a runtime-registered
  // mergeable encoder persists as its naive payload, so its files stay
  // loadable everywhere.
  EncoderCode code = EncoderCode::kNaive;
  if (pattern != nullptr) {
    code = EncoderCode::kPattern;
  } else if (std::string(model.EncoderName()) == "refined") {
    code = EncoderCode::kRefined;
  }
  std::string payload;
  AppendU8(&payload, static_cast<std::uint8_t>(code));
  AppendCodebook(vocab, &payload);
  if (pattern != nullptr) {
    AppendPatternComponents(*pattern, &payload);
  } else {
    AppendNaiveComponents(*naive, &payload);
    if (code == EncoderCode::kRefined) AppendRefinedPatterns(model, &payload);
  }
  WriteFramed(payload, out);
  return true;
}

bool ReadSummary(std::istream* in, PersistedSummary* summary,
                 std::string* error) {
  const std::string bytes((std::istreambuf_iterator<char>(*in)),
                          std::istreambuf_iterator<char>());
  return ReadSummaryBytes(bytes, summary, error);
}

bool WriteSummaryFile(const std::string& path, const Vocabulary& vocab,
                      const WorkloadModel& model, std::string* error) {
  // rename(2) is atomic within a filesystem, so the temporary sits in
  // the same directory as `path`.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
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
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Fail(error, "cannot publish summary (rename failed): " + path);
  }
  return true;
}

bool ReadSummaryFile(const std::string& path, PersistedSummary* summary,
                     std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Fail(error, "cannot open for reading: " + path);
  const std::streamoff end = in.tellg();
  if (end < 0) return Fail(error, "cannot determine size of: " + path);
  std::string bytes(static_cast<std::size_t>(end), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.gcount() != end) return Fail(error, "read failed: " + path);
  return ReadSummaryBytes(bytes, summary, error);
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
  // merged id space (FromMarginals restores the ascending order).
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
      std::vector<FeatureId> features;
      features.reserve(comp.encoding.features().size());
      for (FeatureId f : comp.encoding.features()) {
        features.push_back(id_map[f]);
      }
      MixtureComponent rebuilt;
      rebuilt.weight = comp.weight;
      rebuilt.encoding = NaiveEncoding::FromMarginals(
          std::move(features), comp.encoding.marginals(),
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
