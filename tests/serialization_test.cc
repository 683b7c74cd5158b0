#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "gtest/gtest.h"
#include "util/bytes.h"
#include "util/prng.h"
#include "workload/binary_log.h"

namespace logr {
namespace {

QueryLog MakeLog() {
  QueryLog log;
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "id"});
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "sms_type"});
  log.mutable_vocabulary()->Intern({FeatureClause::kFrom, "messages"});
  log.mutable_vocabulary()->Intern({FeatureClause::kWhere, "status = ?"});
  log.Add(FeatureVec({0, 2, 3}), 7);
  log.Add(FeatureVec({0, 2}), 3);
  log.Add(FeatureVec({1, 2}), 5);
  return log;
}

TEST(SerializationTest, RefinedSummaryWithLargeBudgetRoundTrips) {
  // Regression for the ROADMAP known issue: the reader's former
  // pattern-count bound (n_features^2 + 1) rejected refined summaries
  // WriteSummary itself produced when a small-feature log was
  // compressed with a large refine_patterns budget. The bound is now
  // derived from the miner's retainable-pattern limit.
  Pcg32 rng(19);
  QueryLog log;
  // 6 features: C(6,2)+C(6,3)+C(6,4) = 50 distinct minable patterns,
  // well past the old bound of 37.
  for (int i = 0; i < 60; ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 6; ++f) {
      if (rng.NextBernoulli(0.5)) ids.push_back(f);
    }
    if (ids.empty()) ids.push_back(0);
    log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(4));
  }
  for (FeatureId f = 0; f < 6; ++f) {
    log.mutable_vocabulary()->Intern(
        {FeatureClause::kWhere, "col" + std::to_string(f) + " = ?"});
  }
  LogROptions opts;
  opts.num_clusters = 1;
  opts.encoder = "refined";
  opts.refine_patterns = 64;  // far beyond what 6 features can yield
  LogRSummary summary = Compress(log, opts);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  EXPECT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
}

TEST(SerializationTest, FeatureTextWithSpacesSurvives) {
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
  Feature f{FeatureClause::kWhere, "status = ?"};
  EXPECT_NE(loaded.vocabulary.Find(f), Vocabulary::kNotFound);
}

TEST(SerializationTest, RejectsBadHeader) {
  // Anything without the v4 magic, a v1-v3 text summary included, gets
  // the one error that names the fix.
  for (const char* text : {"not-a-summary\n", "logr-summary v2\n", ""}) {
    std::stringstream buffer(text);
    PersistedSummary loaded;
    std::string error;
    EXPECT_FALSE(ReadSummary(&buffer, &loaded, &error)) << text;
    EXPECT_EQ(error,
              "not a summary v4 file (summary v1-v3 text is no longer read; "
              "re-run `logr_cli compress` on the log)");
  }
}

TEST(SerializationTest, RejectsTruncatedInput) {
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(),
                           NaiveMixtureModel(*summary.Model().AsNaiveMixture()),
                           &buffer, &error));
  std::string text = buffer.str();
  for (std::size_t cut : {text.size() / 4, text.size() / 2}) {
    std::stringstream truncated(text.substr(0, cut));
    PersistedSummary loaded;
    EXPECT_FALSE(ReadSummary(&truncated, &loaded, &error)) << cut;
  }
}

TEST(SerializationTest, FuzzedInputNeverCrashesTheReader) {
  // Mutate a valid summary at random positions: the reader must always
  // return (accept or reject), never crash or hang.
  QueryLog log = MakeLog();
  LogROptions opts;
  opts.num_clusters = 2;
  LogRSummary summary = Compress(log, opts);
  std::stringstream buffer;
  std::string write_error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &write_error))
      << write_error;
  const std::string valid = buffer.str();

  Pcg32 rng(33);
  const char charset[] = "0123456789 .-naif\nmcluster";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    const std::size_t edits = 1 + rng.NextBounded(8);
    for (std::size_t e = 0; e < edits; ++e) {
      std::size_t pos = rng.NextBounded(
          static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] = charset[rng.NextBounded(sizeof(charset) - 1)];
    }
    std::stringstream in(mutated);
    PersistedSummary loaded;
    std::string error;
    ReadSummary(&in, &loaded, &error);  // outcome free, crash forbidden
  }
}

TEST(SerializationTest, FileWritesArePublishedAtomically) {
  // WriteSummaryFile stages into a pid-suffixed temp and renames, so no
  // staging file survives a successful publish and a failing target
  // leaves nothing behind.
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  const std::string path = "/tmp/logr_atomic_test.logr";
  const std::string staged =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::string error;
  ASSERT_TRUE(
      WriteSummaryFile(path, log.vocabulary(), summary.Model(), &error))
      << error;
  EXPECT_FALSE(std::ifstream(staged).good()) << "staging file leaked";
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());

  // Unwritable target directory: a clean failure, no partial output.
  EXPECT_FALSE(WriteSummaryFile("/nonexistent-dir/x.logr",
                                log.vocabulary(), summary.Model(), &error));
  EXPECT_FALSE(error.empty());
}

QueryLog PatternLog() {
  Pcg32 rng(23);
  QueryLog log;
  for (FeatureId f = 0; f < 10; ++f) {
    log.mutable_vocabulary()->Intern(
        {FeatureClause::kWhere, "p" + std::to_string(f) + " = ?"});
  }
  for (int i = 0; i < 40; ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 10; ++f) {
      if (rng.NextBernoulli(f < 5 ? 0.6 : 0.2)) ids.push_back(f);
    }
    if (ids.empty()) ids.push_back(0);
    log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(6));
  }
  return log;
}

TEST(SerializationTest, PatternSummariesRefuseToMerge) {
  QueryLog log = PatternLog();
  LogROptions opts;
  opts.num_clusters = 2;
  opts.encoder = "pattern";
  LogRSummary summary = Compress(log, opts);
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
  std::vector<PersistedSummary> parts;
  parts.push_back(std::move(loaded));
  PersistedSummary merged;
  EXPECT_FALSE(MergeSummaries(parts, 0, nullptr, &merged, &error));
  EXPECT_NE(error.find("cannot be merged"), std::string::npos) << error;
}

// ------------------------------------------------------------ summary v4

/// Every single feature, every pair among the first 24, and seeded
/// random subsets: what a reload must answer bit for bit.
std::vector<FeatureVec> Battery(std::size_t n_features) {
  std::vector<FeatureVec> out;
  out.emplace_back();
  for (FeatureId f = 0; f < n_features; ++f) out.push_back(FeatureVec({f}));
  const FeatureId pairs = static_cast<FeatureId>(std::min<std::size_t>(
      n_features, 24));
  for (FeatureId a = 0; a < pairs; ++a) {
    for (FeatureId b = a + 1; b < pairs; ++b) {
      out.push_back(FeatureVec({a, b}));
    }
  }
  Pcg32 rng(41);
  for (int trial = 0; trial < 200 && n_features > 0; ++trial) {
    std::vector<FeatureId> ids;
    for (int k = 0; k < 4; ++k) {
      ids.push_back(static_cast<FeatureId>(
          rng.NextBounded(static_cast<std::uint32_t>(n_features))));
    }
    out.push_back(FeatureVec(std::move(ids)));
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameEstimates(const WorkloadModel& expected,
                         const WorkloadModel& actual,
                         std::size_t n_features) {
  std::size_t differing = 0;
  for (const FeatureVec& q : Battery(n_features)) {
    if (!SameBits(expected.EstimateCount(q), actual.EstimateCount(q)) ||
        !SameBits(expected.EstimateMarginal(q), actual.EstimateMarginal(q))) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
}

std::string SummaryBytes(const Vocabulary& vocab, const WorkloadModel& model) {
  std::ostringstream out;
  std::string error;
  EXPECT_TRUE(WriteSummary(vocab, model, &out, &error)) << error;
  return out.str();
}

PersistedSummary LoadBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  PersistedSummary loaded;
  std::string error;
  EXPECT_TRUE(ReadSummary(&in, &loaded, &error)) << error;
  return loaded;
}

/// A 20-feature log with two correlated feature groups.
QueryLog GroupLog() {
  Pcg32 rng(29);
  QueryLog log;
  for (FeatureId f = 0; f < 20; ++f) {
    log.mutable_vocabulary()->Intern(
        {f < 10 ? FeatureClause::kSelect : FeatureClause::kWhere,
         "t" + std::to_string(f % 3) + ".col_" + std::to_string(f) +
             (f < 10 ? "" : " = ?")});
  }
  for (int i = 0; i < 80; ++i) {
    const FeatureId base = i % 2 == 0 ? 0 : 10;
    std::vector<FeatureId> ids;
    for (FeatureId f = base; f < base + 10; ++f) {
      if (rng.NextBernoulli(f - base < 4 ? 0.8 : 0.25)) ids.push_back(f);
    }
    if (ids.empty()) ids.push_back(base);
    log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(9));
  }
  return log;
}

TEST(SerializationTest, V4StoresCountAndRawMarginals) {
  // Reconciling a merge fuses components into weighted averages, which
  // are no longer count / log_size: the file then holds both marginal
  // forms, and both reload bit for bit.
  const QueryLog log = GroupLog();
  LogROptions opts;
  opts.num_clusters = 4;
  std::vector<PersistedSummary> parts;
  for (int seed = 0; seed < 2; ++seed) {
    opts.seed = 11 + seed;
    const LogRSummary summary = Compress(log, opts);
    parts.push_back(
        LoadBytes(SummaryBytes(log.vocabulary(), summary.Model())));
  }
  PersistedSummary merged;
  std::string error;
  ASSERT_TRUE(MergeSummaries(parts, 3, nullptr, &merged, &error)) << error;

  const NaiveMixtureEncoding& merged_mix = *merged.model->AsNaiveMixture();
  std::size_t exact = 0, raw = 0;
  for (std::size_t c = 0; c < merged_mix.NumComponents(); ++c) {
    const NaiveEncoding& enc = merged_mix.Component(c).encoding;
    const double n = static_cast<double>(enc.LogSize());
    for (double p : enc.marginals()) {
      const double back = std::nearbyint(p * n) / n;
      ++(SameBits(back, p) ? exact : raw);
    }
  }
  EXPECT_GT(exact, 0u);
  EXPECT_GT(raw, 0u);

  const std::string bytes = SummaryBytes(merged.vocabulary, *merged.model);
  const PersistedSummary loaded = LoadBytes(bytes);
  ASSERT_NE(loaded.model, nullptr);
  const NaiveMixtureEncoding& loaded_mix = *loaded.model->AsNaiveMixture();
  for (std::size_t c = 0; c < merged_mix.NumComponents(); ++c) {
    const NaiveEncoding& want = merged_mix.Component(c).encoding;
    const NaiveEncoding& got = loaded_mix.Component(c).encoding;
    EXPECT_EQ(got.features(), want.features());
    ASSERT_EQ(got.marginals().size(), want.marginals().size());
    for (std::size_t i = 0; i < want.marginals().size(); ++i) {
      EXPECT_TRUE(SameBits(got.marginals()[i], want.marginals()[i])) << i;
    }
  }
  ExpectSameEstimates(*merged.model, *loaded.model, merged.vocabulary.size());
  EXPECT_EQ(SummaryBytes(loaded.vocabulary, *loaded.model), bytes);
}

TEST(SerializationTest, V4RoundTripsAnyFeatureText) {
  // v2 split lines on "\n" and ate one leading space; v4 stores tokens,
  // so every byte string survives, in every clause.
  const std::vector<std::string> texts = {
      "  leading", "trailing  ", "repeated   inner  spaces", "", " ",
      "carriage\rreturn", "new\nline", "\xc3\xa9t\xc3\xa9 \xff\x80",
      "tab\there", "f(a, b) >= ?", "__id_9"};
  QueryLog log;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    log.mutable_vocabulary()->Intern(
        {static_cast<FeatureClause>(i % 6), texts[i]});
  }
  const FeatureId n = static_cast<FeatureId>(texts.size());
  for (FeatureId f = 0; f + 1 < n; ++f) log.Add(FeatureVec({f, f + 1}), f + 1);
  const LogRSummary summary = Compress(log, LogROptions());

  const std::string bytes = SummaryBytes(log.vocabulary(), summary.Model());
  const PersistedSummary loaded = LoadBytes(bytes);
  ASSERT_EQ(loaded.vocabulary.size(), texts.size());
  for (FeatureId f = 0; f < n; ++f) {
    EXPECT_EQ(loaded.vocabulary.Get(f), log.vocabulary().Get(f)) << f;
  }
  ExpectSameEstimates(summary.Model(), *loaded.model, texts.size());
}

TEST(SerializationTest, V4SizeBreakdownCoversTheFile) {
  const QueryLog log = GroupLog();
  for (const char* encoder : {"naive", "refined", "pattern"}) {
    SCOPED_TRACE(encoder);
    LogROptions opts;
    opts.num_clusters = 2;
    opts.encoder = encoder;
    if (std::string(encoder) == "refined") opts.refine_patterns = 3;
    const LogRSummary summary = Compress(log, opts);
    const std::string bytes = SummaryBytes(log.vocabulary(), summary.Model());
    const SummarySize size = LoadBytes(bytes).size;
    EXPECT_EQ(size.total, bytes.size());
    EXPECT_EQ(size.total, kSummaryHeaderSize + 1 + size.codebook +
                              size.components + size.patterns);
    EXPECT_GT(size.codebook, 0u);
    EXPECT_GT(size.components, 0u);
    EXPECT_EQ(size.patterns > 0, std::string(encoder) != "naive");
  }
}

/// Frames `payload` as a v4 file with a correct size and checksum.
std::string Framed(const std::string& payload) {
  std::string out(kSummaryMagic, sizeof(kSummaryMagic));
  AppendU32(&out, kSummaryVersion);
  AppendU32(&out, 0);
  AppendU64(&out, kSummaryHeaderSize + payload.size());
  AppendU64(&out, BinaryLogChecksum(payload.data(), payload.size()));
  return out + payload;
}

std::string Varints(std::initializer_list<std::uint64_t> values) {
  std::string out;
  for (std::uint64_t v : values) AppendVarint(&out, v);
  return out;
}

std::string F64(double v) {
  std::string out;
  AppendF64(&out, v);
  return out;
}

/// A payload's encoder byte and codebook: `n` features "a", "b", ...,
/// each in clause 0 and spelled by one token.
std::string Codebook(std::uint8_t encoder, std::size_t n) {
  std::string p;
  AppendU8(&p, encoder);
  AppendVarint(&p, n);  // tokens
  for (std::size_t i = 0; i < n; ++i) {
    AppendVarint(&p, 1);
    p += static_cast<char>('a' + i);
  }
  AppendVarint(&p, n);  // features
  for (std::size_t i = 0; i < n; ++i) {
    AppendU8(&p, 0);
    AppendVarint(&p, 1);
    AppendVarint(&p, i);
  }
  return p;
}

/// A list of one naive-family component of ten queries, up to its
/// `n_marginals` marginal entries.
std::string OneCluster(double weight, double entropy,
                       std::uint64_t n_marginals) {
  return Varints({1}) + F64(weight) + Varints({10}) + F64(entropy) +
         Varints({n_marginals});
}

/// A list of one pattern component of four queries over a
/// `width`-feature universe, up to its `n_patterns` entries.
std::string OnePCluster(double weight, double entropy, std::uint64_t width,
                        std::uint64_t n_patterns) {
  return Varints({1}) + F64(weight) + Varints({4}) + F64(entropy) +
         Varints({width, n_patterns});
}

/// A one-feature naive payload: codebook {"a"}, one component of ten
/// queries whose marginal is the count `count`.
std::string TinyPayload(std::uint64_t count) {
  return Codebook(0, 1) + OneCluster(1.0, 0.0, 1) + Varints({0, count});
}

TEST(SerializationTest, V4ReaderRejectsCorruptFiles) {
  {
    const PersistedSummary tiny = LoadBytes(Framed(TinyPayload(5)));
    ASSERT_NE(tiny.model, nullptr);
    EXPECT_EQ(tiny.model->EstimateCount(FeatureVec({0})), 5.0);
  }
  const QueryLog log = GroupLog();
  const std::string valid =
      SummaryBytes(log.vocabulary(), Compress(log, LogROptions()).Model());

  std::ostringstream logrl;  // the log itself, given in place of a summary
  std::string write_error;
  ASSERT_TRUE(
      BinaryLogWriter::Write(log, DatasetSummary(), &logrl, &write_error))
      << write_error;
  std::string bad_checksum = valid;
  bad_checksum[kSummaryHeaderSize + 3] ^= 0x20;
  std::string bad_version = valid;
  bad_version[8] = 5;
  std::string bad_flags = valid;
  bad_flags[12] = 1;

  std::string count_bomb;  // a token dictionary of 2^40 entries
  AppendU8(&count_bomb, 0);
  AppendVarint(&count_bomb, std::uint64_t{1} << 40);

  std::string token_past = TinyPayload(5);
  token_past[7] = 7;  // the feature's one token id
  std::string bad_clause = TinyPayload(5);
  bad_clause[5] = 6;
  std::string bad_encoder = TinyPayload(5);
  bad_encoder[0] = 3;

  std::string empty_token(1, '\0');  // one zero-length token
  empty_token += Varints({1, 0, 0});
  std::string duplicate_feature(1, '\0');  // two features, both "a"
  duplicate_feature += Varints({1, 1}) + "a" + Varints({2, 0, 1, 0, 0, 1, 0});
  // 4,097 references to a 4,096-byte token pass the 16 MiB text cap.
  std::string text_bomb(1, '\0');
  text_bomb += Varints({1, 4096}) + std::string(4096, 'x') + Varints({1});
  text_bomb += std::string(1, '\0') + Varints({4097});
  text_bomb += std::string(4097, '\0');

  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // Naive: one feature; `entry` is feature 0 with count 5 of 10.
  const std::string naive = Codebook(0, 1);
  const std::string entry = Varints({0, 5});
  // Refined: two features, so one pattern at most ({0, 1} = `pair`).
  const std::string refined = Codebook(1, 2) + OneCluster(1.0, 0.0, 1) + entry;
  const std::string pair = Varints({2, 0, 0});
  // Pattern: three features; `single` is {0} with count 2 of 4.
  const std::string pattern = Codebook(2, 3);
  const std::string single = Varints({1 << 1, 2, 0});
  std::string thirteen;
  for (int i = 0; i < 13; ++i) thirteen += single;

  struct Case {
    std::string bytes;
    const char* expect;
  };
  const Case cases[] = {
      {logrl.str(),
       "not a summary: this is a binary query log (.logrl); run `logr_cli "
       "compress` on it"},
      {valid.substr(0, valid.size() / 2), "file size mismatch"},
      {valid.substr(0, 20), "truncated header"},
      {bad_checksum, "payload checksum mismatch"},
      {bad_version, "unsupported version"},
      {bad_flags, "reserved flags are nonzero"},
      {Framed(count_bomb), "exceeds the bytes that remain"},
      {Framed(token_past), "past the dictionary"},
      {Framed(bad_clause), "invalid feature clause byte"},
      {Framed(bad_encoder), "unknown encoder code"},
      {Framed(TinyPayload(11)), "exceeds the component's log size"},
      {Framed(TinyPayload(5) + "x"), "trailing bytes"},
      {Framed(TinyPayload(5).substr(0, 4)), "truncated feature list"},
      {Framed(empty_token), "empty token in the dictionary"},
      {Framed(duplicate_feature), "duplicate feature in codebook: a"},
      {Framed(text_bomb), "codebook text exceeds 16777216 bytes"},
      // Naive-family components.
      {Framed(naive + OneCluster(nan, 0.0, 1) + entry),
       "cluster weight outside [0,1]"},
      {Framed(naive + OneCluster(2.5, 0.0, 1) + entry),
       "cluster weight outside [0,1]"},
      {Framed(naive + OneCluster(1.0, inf, 1) + entry),
       "cluster entropy not finite/non-negative"},
      {Framed(naive + OneCluster(1.0, -0.5, 1) + entry),
       "cluster entropy not finite/non-negative"},
      {Framed(naive + OneCluster(1.0, 0.0, 2) + entry + entry),
       "cluster claims more marginals than features"},
      {Framed(naive + OneCluster(1.0, 0.0, 1) + Varints({1 << 1, 5})),
       "marginal references unknown feature id"},
      {Framed(naive + OneCluster(1.0, 0.0, 1) + Varints({1}) + F64(nan)),
       "v4: marginal out of [0,1]"},
      {Framed(naive + OneCluster(1.0, 0.0, 1) + Varints({1}) + F64(1.5)),
       "v4: marginal out of [0,1]"},
      // Refined patterns.
      {Framed(refined + Varints({2}) + F64(0.1) + pair + pair),
       "implausible pattern count"},
      {Framed(refined + Varints({1}) + F64(inf) + pair),
       "component error not finite/non-negative"},
      {Framed(refined + Varints({1}) + F64(nan) + pair),
       "component error not finite/non-negative"},
      {Framed(refined + Varints({1}) + F64(0.1) + Varints({0})),
       "malformed pattern"},
      {Framed(refined + Varints({1}) + F64(0.1) + Varints({3, 0, 0, 0})),
       "malformed pattern"},
      {Framed(refined + Varints({1}) + F64(0.1) + Varints({2, 1, 0})),
       "pattern references unknown feature id"},
      // Pattern components.
      {Framed(pattern + OnePCluster(2.5, 0.5, 3, 1) + single),
       "pcluster weight outside [0,1]"},
      {Framed(pattern + OnePCluster(nan, 0.5, 3, 1) + single),
       "pcluster weight outside [0,1]"},
      {Framed(pattern + OnePCluster(1.0, -1.0, 3, 1) + single),
       "pcluster entropy not finite/non-negative"},
      {Framed(pattern + OnePCluster(1.0, nan, 3, 1) + single),
       "pcluster entropy not finite/non-negative"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 4, 1) + single),
       "pcluster universe exceeds the codebook"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 13) + thirteen),
       "implausible pattern count"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 1) +
              Varints({(1 << 1) | 1}) + F64(1.5) + Varints({0})),
       "pattern marginal out of [0,1]"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 1) +
              Varints({(1 << 1) | 1}) + F64(nan) + Varints({0})),
       "pattern marginal out of [0,1]"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 1) + Varints({1 << 1, 5, 0})),
       "pattern marginal count exceeds the component's log size"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 1) + Varints({1 << 1, 2, 7})),
       "pattern references unknown feature id"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 2) + single + single),
       "duplicate pattern in pcluster"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 1) + Varints({0, 2, 0})),
       "malformed pattern-marginal entry"},
      {Framed(pattern + OnePCluster(1.0, 0.5, 3, 1) + Varints({2 << 1, 2, 0})),
       "truncated pattern"},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.bytes);
    PersistedSummary loaded;
    std::string error;
    EXPECT_FALSE(ReadSummary(&in, &loaded, &error)) << c.expect;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.expect << " -> " << error;
  }
}

}  // namespace
}  // namespace logr
