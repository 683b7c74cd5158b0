// Loader-correctness battery for the logr-log v1 binary columnar format
// (workload/binary_log.h): round trips of the edge-case logs, a
// corruption/fuzz suite mirroring the ReadSummary hardening —
// truncations, bad magic/version, out-of-range ids, offset tables past
// EOF, and checksum mismatches must fail loudly, never crash or silently
// load — and the one view materializer over every backing. That the
// generated logs read back from an mmap'd .logrl as their text load,
// and compress to the same bytes, is equivalence_test's text-vs-.logrl
// leg.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "oracles/same_log.h"
#include "util/prng.h"
#include "workload/binary_log.h"
#include "workload/log_view.h"

namespace logr {
namespace {

LogLoader PocketLoader() {
  PocketDataOptions gen;
  gen.num_distinct = 200;
  gen.total_queries = 60000;
  return LoadEntries(GeneratePocketDataLog(gen));
}

LogLoader BankLoader() {
  BankLogOptions gen;
  gen.num_templates = 250;
  gen.total_queries = 120000;
  gen.noise_entries = 20;
  return LoadEntries(GenerateBankLog(gen));
}

std::string Serialize(const QueryLog& log, const DatasetSummary& summary) {
  std::ostringstream out;
  std::string error;
  EXPECT_TRUE(BinaryLogWriter::Write(log, summary, &out, &error)) << error;
  return out.str();
}

bool TryRead(const std::string& bytes, std::string* error) {
  MmapQueryLog log;
  return MmapQueryLog::OpenBuffer(bytes.data(), bytes.size(), &log, error);
}

/// Eager read of an in-memory image: open, then materialize the view.
bool ReadImage(const std::string& bytes, QueryLog* log,
               DatasetSummary* summary, std::string* error) {
  MmapQueryLog mapped;
  if (!MmapQueryLog::OpenBuffer(bytes.data(), bytes.size(), &mapped, error)) {
    return false;
  }
  *log = LogView(mapped).Materialize();
  *summary = mapped.summary();
  return true;
}

std::uint64_t HeaderU64(const std::string& bytes, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

void PatchU32(std::string* bytes, std::size_t off, std::uint32_t v) {
  std::memcpy(&(*bytes)[off], &v, sizeof(v));
}

void PatchU64(std::string* bytes, std::size_t off, std::uint64_t v) {
  std::memcpy(&(*bytes)[off], &v, sizeof(v));
}

/// Recomputes and re-stamps the payload checksum after a deliberate
/// payload patch, so the test reaches the structural validation under
/// test instead of tripping the checksum first.
void Restamp(std::string* bytes) {
  PatchU64(bytes, kBinaryLogChecksumOffset,
           BinaryLogChecksum(bytes->data() + kBinaryLogHeaderSize,
                             bytes->size() - kBinaryLogHeaderSize));
}

// ----------------------------------------------------------- round trips

void ExpectRoundTrip(const LogLoader& loader, const std::string& name) {
  const DatasetSummary summary = loader.Summary(name);
  const std::string bytes = Serialize(loader.log(), summary);
  QueryLog reloaded;
  DatasetSummary reloaded_summary;
  std::string error;
  ASSERT_TRUE(ReadImage(bytes, &reloaded, &reloaded_summary, &error))
      << error;
  std::string why;
  EXPECT_TRUE(SameQueryLog(loader.log(), reloaded, &why)) << why;
  EXPECT_TRUE(SameDatasetSummary(summary, reloaded_summary, &why)) << why;
}

TEST(BinaryLogTest, RoundTripEmptyLog) {
  LogLoader empty;
  ExpectRoundTrip(empty, "empty");
}

TEST(BinaryLogTest, RoundTripRawVectorLogWithoutVocabulary) {
  // Logs assembled from raw ids have an empty vocabulary; NumFeatures
  // comes from the feature bound and must survive the trip.
  QueryLog log;
  log.Add(FeatureVec({0, 4, 9}), 3);
  log.Add(FeatureVec({2}), 5);
  DatasetSummary summary;
  summary.name = "raw";
  summary.num_queries = 8;
  const std::string bytes = Serialize(log, summary);
  QueryLog reloaded;
  std::string error;
  ASSERT_TRUE(ReadImage(bytes, &reloaded, &summary, &error)) << error;
  std::string why;
  EXPECT_TRUE(SameQueryLog(log, reloaded, &why)) << why;
  EXPECT_EQ(reloaded.NumFeatures(), 10u);
}

TEST(BinaryLogTest, ReaderDedupIndexStaysLive) {
  // Adding to a binary-loaded log must keep collapsing duplicates.
  LogLoader loader = PocketLoader();
  const std::string bytes = Serialize(loader.log(), loader.Summary("p"));
  QueryLog reloaded;
  DatasetSummary summary;
  std::string error;
  ASSERT_TRUE(ReadImage(bytes, &reloaded, &summary, &error)) << error;
  const std::size_t distinct = reloaded.NumDistinct();
  const std::uint64_t total = reloaded.TotalQueries();
  reloaded.Add(reloaded.Vector(0), 2);
  EXPECT_EQ(reloaded.NumDistinct(), distinct);
  EXPECT_EQ(reloaded.TotalQueries(), total + 2);
}

/// Byte offset of the summary trailer's u64 slots: past its u32 name
/// length and the name.
std::size_t SummarySlots(const std::string& bytes) {
  const std::uint64_t summary_off = HeaderU64(bytes, 128);
  std::uint32_t name_len;
  std::memcpy(&name_len, bytes.data() + summary_off, sizeof(name_len));
  return static_cast<std::size_t>(summary_off) + 4 + name_len;
}

TEST(BinaryLogTest, ReservedSummarySlotsAreIgnored) {
  LogLoader loader = BankLoader();
  const DatasetSummary summary = loader.Summary("bank");
  const std::string fresh = Serialize(loader.log(), summary);
  const std::size_t slots = SummarySlots(fresh);
  constexpr std::size_t kReserved[] = {24, 40, 48, 64};
  for (std::size_t off : kReserved) {
    EXPECT_EQ(HeaderU64(fresh, slots + off), UINT64_MAX) << off;
  }

  // Older writers stored Table 1's distinct queries with constants,
  // conjunctive and rewritable templates, and features with constants
  // there. Such a file opens with the same log and funnel.
  std::string older = fresh;
  PatchU64(&older, slots + 24, 188184);
  PatchU64(&older, slots + 40, 1494);
  PatchU64(&older, slots + 48, 1712);
  PatchU64(&older, slots + 64, 144708);
  Restamp(&older);
  ASSERT_NE(older, fresh);
  QueryLog reloaded;
  DatasetSummary reloaded_summary;
  std::string error;
  ASSERT_TRUE(ReadImage(older, &reloaded, &reloaded_summary, &error))
      << error;
  std::string why;
  EXPECT_TRUE(SameQueryLog(loader.log(), reloaded, &why)) << why;
  EXPECT_TRUE(SameDatasetSummary(summary, reloaded_summary, &why)) << why;
}

// -------------------------------------------------- mmap vs eager reads

class BinaryLogFileTest : public ::testing::Test {
 protected:
  std::string WriteTempFile(const std::string& bytes,
                            const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(static_cast<bool>(out));
    return path;
  }
};

TEST(BinaryLogTest, MappedLogSurvivesRewrite) {
  // `split` rewrites shard files that `distribute` workers map, and
  // `convert` the .logrl that `compress` maps. A rewrite must publish a
  // new file, not change the bytes under an open mapping: the same
  // vectors with other counts rewrite the file at the same size.
  QueryLog before;
  before.Add(FeatureVec({0, 2}), 5);
  before.Add(FeatureVec({1}), 7);
  QueryLog after;
  after.Add(FeatureVec({0, 2}), 50);
  after.Add(FeatureVec({1}), 70);
  const std::string path =
      ::testing::TempDir() + "logr_rewrite_" + std::to_string(::getpid()) +
      ".logrl";
  std::string error;
  ASSERT_TRUE(BinaryLogWriter::WriteFile(path, before, DatasetSummary(),
                                         &error))
      << error;
  MmapQueryLog mapped;
  ASSERT_TRUE(MmapQueryLog::Open(path, &mapped, &error)) << error;
  ASSERT_TRUE(mapped.mapped());
  ASSERT_TRUE(BinaryLogWriter::WriteFile(path, after, DatasetSummary(),
                                         &error))
      << error;

  std::string why;
  EXPECT_TRUE(SameQueryLog(LogView(mapped).Materialize(), before, &why))
      << why;
  MmapQueryLog reopened;
  ASSERT_TRUE(MmapQueryLog::Open(path, &reopened, &error)) << error;
  EXPECT_TRUE(SameQueryLog(LogView(reopened).Materialize(), after, &why))
      << why;
  std::remove(path.c_str());
}

/// The reference sub-log: the vocabulary copied, then one Add per row.
QueryLog AddRows(const QueryLog& log, const std::vector<std::size_t>& rows) {
  QueryLog out;
  *out.mutable_vocabulary() = log.vocabulary();
  for (std::size_t i : rows) {
    out.Add(log.Vector(i), log.Multiplicity(i), log.SampleSql(i));
  }
  return out;
}

TEST_F(BinaryLogFileTest, MaterializeSubsetMatchesAddOverEveryBacking) {
  LogLoader loader = BankLoader();
  const QueryLog& log = loader.log();
  const std::string path = WriteTempFile(
      Serialize(log, loader.Summary("bank")), "materialize.logrl");
  MmapQueryLog mapped;
  std::string error;
  ASSERT_TRUE(MmapQueryLog::Open(path, &mapped, &error)) << error;

  // Every third row in descending order, so the copy reorders the base;
  // then three rows of that window, addressed through a subview.
  std::vector<std::size_t> window;
  for (std::size_t i = log.NumDistinct(); i-- > 0;) {
    if (i % 3 == 0) window.push_back(i);
  }
  ASSERT_GE(window.size(), 3u);
  const std::vector<std::size_t> picks = {window.size() - 1, 0, 2};
  std::vector<std::size_t> picks_in_base;
  for (std::size_t p : picks) picks_in_base.push_back(window[p]);

  // No vocabulary: NumFeatures comes from the largest id of the rows
  // taken (10 for {0, 4, 9}, 3 for {2} alone).
  QueryLog raw;
  raw.Add(FeatureVec({0, 4, 9}), 3, "SELECT raw");
  raw.Add(FeatureVec({2}), 5);
  raw.Add(FeatureVec({1, 7}), 1);

  struct Case {
    const char* name;
    LogView view;
    std::vector<std::size_t> rows;
    QueryLog expect;
  };
  const Case cases[] = {
      {"heap", LogView(log), window, AddRows(log, window)},
      {"mmap", LogView(mapped), window, AddRows(log, window)},
      {"heap subview", LogView(log).Subview(window), picks,
       AddRows(log, picks_in_base)},
      {"mmap subview", LogView(mapped).Subview(window), picks,
       AddRows(log, picks_in_base)},
      {"heap empty", LogView(log), {}, AddRows(log, {})},
      {"mmap empty", LogView(mapped), {}, AddRows(log, {})},
      {"raw", LogView(raw), {2, 0}, AddRows(raw, {2, 0})},
      {"raw narrow", LogView(raw), {1}, AddRows(raw, {1})},
  };
  for (const Case& c : cases) {
    QueryLog got = c.view.MaterializeSubset(c.rows);
    std::string why;
    EXPECT_TRUE(SameQueryLog(got, c.expect, &why)) << c.name << ": " << why;
    if (got.NumDistinct() > 0) {
      // The dedup index is live: re-adding a row folds into it.
      got.Add(got.Vector(0), 1);
      EXPECT_EQ(got.NumDistinct(), c.expect.NumDistinct()) << c.name;
    }
  }
  EXPECT_EQ(LogView(raw).MaterializeSubset({2, 0}).NumFeatures(), 10u);
  EXPECT_EQ(LogView(raw).MaterializeSubset({1}).NumFeatures(), 3u);
  EXPECT_EQ(LogView(log).MaterializeSubset({}).NumFeatures(),
            log.vocabulary().size());
}

TEST_F(BinaryLogFileTest, EagerFallbackMatchesMmap) {
  LogLoader loader = PocketLoader();
  const std::string path = WriteTempFile(
      Serialize(loader.log(), loader.Summary("pocket")), "eager.logrl");

  BinaryLogReadOptions eager_opts;
  eager_opts.prefer_mmap = false;
  MmapQueryLog mapped, eager;
  std::string error;
  ASSERT_TRUE(MmapQueryLog::Open(path, &mapped, &error)) << error;
  ASSERT_TRUE(MmapQueryLog::Open(path, eager_opts, &eager, &error)) << error;
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(eager.mapped());
  std::string why;
  EXPECT_TRUE(SameQueryLog(LogView(mapped).Materialize(),
                           LogView(eager).Materialize(), &why))
      << why;
  EXPECT_TRUE(SameDatasetSummary(mapped.summary(), eager.summary(), &why))
      << why;
}

TEST_F(BinaryLogFileTest, IsBinaryLogFileSniffsMagic) {
  LogLoader loader;
  loader.AddSql("SELECT a FROM t");
  const std::string path = WriteTempFile(
      Serialize(loader.log(), loader.Summary("s")), "sniff.logrl");
  EXPECT_TRUE(IsBinaryLogFile(path));
  const std::string text_path =
      WriteTempFile("SELECT a FROM t\n", "sniff.sql");
  EXPECT_FALSE(IsBinaryLogFile(text_path));
  EXPECT_FALSE(IsBinaryLogFile(::testing::TempDir() + "absent.logrl"));
}

TEST_F(BinaryLogFileTest, MmapOpenRejectsCorruptFile) {
  LogLoader loader = PocketLoader();
  std::string bytes = Serialize(loader.log(), loader.Summary("pocket"));
  bytes[bytes.size() / 2] ^= 0x40;  // payload bit rot, checksum stale
  const std::string path = WriteTempFile(bytes, "corrupt.logrl");
  MmapQueryLog mapped;
  std::string error;
  EXPECT_FALSE(MmapQueryLog::Open(path, &mapped, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

// ----------------------------------------------------- corruption suite

class BinaryLogCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LogLoader loader;
    loader.AddSql("SELECT a, b FROM t WHERE x = 1 AND y = 2", 50);
    loader.AddSql("SELECT a FROM t WHERE x = 3", 30);
    loader.AddSql("SELECT c FROM u WHERE z = 4", 20);
    bytes_ = Serialize(loader.log(), loader.Summary("fixture"));
  }

  void ExpectRejected(const std::string& bytes,
                      const std::string& expect_substring) {
    std::string error;
    EXPECT_FALSE(TryRead(bytes, &error));
    EXPECT_NE(error.find(expect_substring), std::string::npos)
        << "error was: " << error;
  }

  std::string bytes_;
};

TEST_F(BinaryLogCorruptionTest, AcceptsThePristineImage) {
  std::string error;
  EXPECT_TRUE(TryRead(bytes_, &error)) << error;
}

TEST_F(BinaryLogCorruptionTest, RejectsTruncatedHeader) {
  ExpectRejected(bytes_.substr(0, 10), "truncated");
  ExpectRejected("", "truncated");
}

TEST_F(BinaryLogCorruptionTest, RejectsBadMagic) {
  std::string bad = bytes_;
  bad[0] = 'X';
  ExpectRejected(bad, "magic");
}

TEST_F(BinaryLogCorruptionTest, RejectsUnsupportedVersion) {
  std::string bad = bytes_;
  PatchU32(&bad, 8, 99);
  ExpectRejected(bad, "version");
}

TEST_F(BinaryLogCorruptionTest, RejectsReservedFlags) {
  std::string bad = bytes_;
  PatchU32(&bad, 12, 1);
  ExpectRejected(bad, "flags");
}

TEST_F(BinaryLogCorruptionTest, RejectsTruncatedPayload) {
  // Every strict prefix must be rejected via the file-size check.
  ExpectRejected(bytes_.substr(0, bytes_.size() - 1), "size mismatch");
  ExpectRejected(bytes_.substr(0, kBinaryLogHeaderSize), "size mismatch");
}

TEST_F(BinaryLogCorruptionTest, RejectsChecksumMismatch) {
  std::string bad = bytes_;
  bad[kBinaryLogHeaderSize + 3] ^= 0x01;
  ExpectRejected(bad, "checksum");
}

TEST_F(BinaryLogCorruptionTest, RejectsOffsetTablePastEof) {
  std::string bad = bytes_;
  PatchU64(&bad, 72, bad.size() - 4);  // offsets_off
  ExpectRejected(bad, "offset table out of bounds");
}

TEST_F(BinaryLogCorruptionTest, RejectsIdColumnPastEof) {
  std::string bad = bytes_;
  PatchU64(&bad, 80, bad.size());  // ids_off
  ExpectRejected(bad, "id column out of bounds");
}

TEST_F(BinaryLogCorruptionTest, RejectsNonMonotoneOffsets) {
  std::string bad = bytes_;
  const std::uint64_t offsets_off = HeaderU64(bad, 72);
  const std::uint64_t num_ids = HeaderU64(bad, 48);
  PatchU64(&bad, offsets_off + 8, num_ids + 7);
  Restamp(&bad);
  ExpectRejected(bad, "offset table");
}

TEST_F(BinaryLogCorruptionTest, RejectsOutOfRangeFeatureId) {
  std::string bad = bytes_;
  const std::uint64_t ids_off = HeaderU64(bad, 80);
  const std::uint64_t num_features = HeaderU64(bad, 64);
  PatchU32(&bad, ids_off, static_cast<std::uint32_t>(num_features + 5));
  Restamp(&bad);
  ExpectRejected(bad, "out of range");
}

TEST_F(BinaryLogCorruptionTest, RejectsUnsortedVectorIds) {
  // The first vector has several ids; reversing two breaks the strict
  // ascending order the format requires.
  std::string bad = bytes_;
  const std::uint64_t ids_off = HeaderU64(bad, 80);
  std::uint32_t first, second;
  std::memcpy(&first, bad.data() + ids_off, 4);
  std::memcpy(&second, bad.data() + ids_off + 4, 4);
  ASSERT_LT(first, second);
  PatchU32(&bad, ids_off, second);
  PatchU32(&bad, ids_off + 4, first);
  Restamp(&bad);
  ExpectRejected(bad, "ascending");
}

TEST_F(BinaryLogCorruptionTest, RejectsZeroMultiplicity) {
  std::string bad = bytes_;
  const std::uint64_t counts_off = HeaderU64(bad, 88);
  PatchU64(&bad, counts_off, 0);
  Restamp(&bad);
  ExpectRejected(bad, "zero multiplicity");
}

TEST_F(BinaryLogCorruptionTest, RejectsCountTotalMismatch) {
  std::string bad = bytes_;
  const std::uint64_t counts_off = HeaderU64(bad, 88);
  const std::uint64_t first = HeaderU64(bad, counts_off);
  PatchU64(&bad, counts_off, first + 1);
  Restamp(&bad);
  ExpectRejected(bad, "sum");
}

TEST_F(BinaryLogCorruptionTest, RejectsDuplicateVectors) {
  // Two single-id vectors exist ({<a,SELECT>...} structure differs), so
  // force vector 2 to repeat vector 1 by copying its id span. The
  // fixture's vectors 1 and 2 are single-feature... locate two vectors
  // of equal length and overwrite one span with the other.
  std::string bad = bytes_;
  const std::uint64_t offsets_off = HeaderU64(bad, 72);
  const std::uint64_t ids_off = HeaderU64(bad, 80);
  const std::uint64_t n = HeaderU64(bad, 32);
  ASSERT_GE(n, 2u);
  bool patched = false;
  for (std::uint64_t i = 0; i + 1 < n && !patched; ++i) {
    const std::uint64_t a0 = HeaderU64(bad, offsets_off + 8 * i);
    const std::uint64_t a1 = HeaderU64(bad, offsets_off + 8 * (i + 1));
    for (std::uint64_t j = i + 1; j < n && !patched; ++j) {
      const std::uint64_t b0 = HeaderU64(bad, offsets_off + 8 * j);
      const std::uint64_t b1 = HeaderU64(bad, offsets_off + 8 * (j + 1));
      if (a1 - a0 != b1 - b0 || a1 == a0) continue;
      std::memcpy(&bad[ids_off + 4 * b0], bad.data() + ids_off + 4 * a0,
                  static_cast<std::size_t>(4 * (a1 - a0)));
      patched = true;
    }
  }
  ASSERT_TRUE(patched) << "fixture needs two equal-length vectors";
  Restamp(&bad);
  ExpectRejected(bad, "duplicate distinct vectors");
}

TEST_F(BinaryLogCorruptionTest, RejectsTruncatedVocabulary) {
  std::string bad = bytes_;
  PatchU64(&bad, 56, HeaderU64(bad, 56) + 1);  // vocab_count
  ExpectRejected(bad, "vocabulary");
}

TEST_F(BinaryLogCorruptionTest, RejectsDuplicateVocabularyFeature) {
  // The fixture interns <a, SELECT> and <c, SELECT> among others — both
  // one-byte texts with the same clause. Rewriting "c" to "a" makes the
  // codebook intern short.
  std::string bad = bytes_;
  const std::uint64_t vocab_off = HeaderU64(bad, 96);
  const std::uint64_t vocab_size = HeaderU64(bad, 104);
  const std::uint64_t vocab_count = HeaderU64(bad, 56);
  std::size_t p = static_cast<std::size_t>(vocab_off);
  const std::size_t limit = static_cast<std::size_t>(vocab_off + vocab_size);
  char first_single = '\0';
  std::uint8_t first_clause = 0;
  bool patched = false;
  for (std::uint64_t f = 0; f < vocab_count && !patched; ++f) {
    ASSERT_LE(p + 5, limit);
    const std::uint8_t clause = static_cast<std::uint8_t>(bad[p]);
    std::uint32_t len;
    std::memcpy(&len, bad.data() + p + 1, 4);
    if (len == 1) {
      if (first_single == '\0') {
        first_single = bad[p + 5];
        first_clause = clause;
      } else if (clause == first_clause && bad[p + 5] != first_single) {
        bad[p + 5] = first_single;
        patched = true;
      }
    }
    p += 5 + len;
  }
  ASSERT_TRUE(patched) << "fixture needs two single-char features";
  Restamp(&bad);
  ExpectRejected(bad, "duplicate feature");
}

TEST_F(BinaryLogCorruptionTest, RejectsInconsistentNumFeatures) {
  std::string bad = bytes_;
  PatchU64(&bad, 64, HeaderU64(bad, 64) + 1);
  ExpectRejected(bad, "num_features");
}

TEST_F(BinaryLogCorruptionTest, RejectsTruncatedSummaryBlock) {
  std::string bad = bytes_;
  PatchU64(&bad, 136, HeaderU64(bad, 136) - 1);  // summary_size
  ExpectRejected(bad, "summary block");
}

TEST_F(BinaryLogCorruptionTest, RejectsSqlBlockPastEof) {
  std::string bad = bytes_;
  ASSERT_NE(HeaderU64(bad, 112), 0u) << "fixture keeps sample SQL";
  PatchU64(&bad, 112, bad.size() - 2);  // sql_off
  ExpectRejected(bad, "sample-SQL block out of bounds");
}

// ------------------------------------------------------------- fuzzing

TEST_F(BinaryLogCorruptionTest, FuzzByteFlipsNeverCrash) {
  Pcg32 rng(20260730);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = bytes_;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          rng.NextBounded(static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] ^= static_cast<char>(1u << rng.NextBounded(8));
    }
    std::string error;
    QueryLog loaded;
    DatasetSummary summary;
    if (ReadImage(mutated, &loaded, &summary, &error)) {
      // A flip the validators accept (e.g. in the unchecked reserved
      // word) must still yield a structurally sound log.
      EXPECT_EQ(loaded.NumDistinct(), 3u);
      EXPECT_GT(loaded.TotalQueries(), 0u);
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST_F(BinaryLogCorruptionTest, FuzzTruncationsAlwaysRejected) {
  Pcg32 rng(4213);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t keep =
        rng.NextBounded(static_cast<std::uint32_t>(bytes_.size()));
    std::string error;
    EXPECT_FALSE(TryRead(bytes_.substr(0, keep), &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(BinaryLogCorruptionTest, FuzzGarbageWithMagicNeverCrashes) {
  Pcg32 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = 8 + rng.NextBounded(600);
    std::string garbage(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      garbage[i] = static_cast<char>(rng.NextBounded(256));
    }
    // Half the trials keep a valid magic so validation runs deeper.
    if (trial % 2 == 0) {
      std::memcpy(&garbage[0], kBinaryLogMagic, sizeof(kBinaryLogMagic));
    }
    std::string error;
    EXPECT_FALSE(TryRead(garbage, &error));
  }
}

// Named regression cases from the PR-8 fuzz night: structure-aware
// mutants of the checked-in golden shard with the payload checksum
// *restamped* after mutation, so they sail past the checksum gate and
// land on the deep structural validators. The corpus driver
// (fuzz_binary_log_corpus) only proves these never crash; this test
// pins the stronger contract that each is rejected with a reason — if
// a validator regresses into accepting one, this fails before the
// fuzzers ever run. Files live in fuzz/corpus/binary_log/.
class FuzzNightRegressionTest : public ::testing::Test {
 protected:
  static std::string ReadCorpusFile(const std::string& name) {
    const std::string path =
        std::string(LOGR_FUZZ_CORPUS_DIR) + "/binary_log/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "missing corpus file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static bool Rejected(const std::string& bytes, std::string* error) {
    MmapQueryLog log;
    return !MmapQueryLog::OpenBuffer(bytes.data(), bytes.size(), &log, error);
  }
};

TEST_F(FuzzNightRegressionTest, GoldenSeedStillLoads) {
  const std::string bytes = ReadCorpusFile("golden.logrl");
  MmapQueryLog log;
  std::string error;
  ASSERT_TRUE(MmapQueryLog::OpenBuffer(bytes.data(), bytes.size(), &log,
                                       &error))
      << error;
  EXPECT_EQ(log.NumDistinct(), 4u);
}

TEST_F(FuzzNightRegressionTest, RestampedMutantsAllRejectedWithReason) {
  const char* cases[] = {
      "huge_num_distinct.logrl",  // num_distinct=2^61: offset table
                                  // byte-count must not overflow
      "ids_off_in_header.logrl",  // ids section aliasing the header
      "huge_num_ids.logrl",       // num_ids inflated past its section
      "vocab_size_wrap.logrl",    // vocab_size=2^64-1: off+size wraps
      "zero_count.logrl",         // zeroed multiplicity column
  };
  for (const char* name : cases) {
    const std::string bytes = ReadCorpusFile(name);
    ASSERT_FALSE(bytes.empty()) << name;
    std::string error;
    EXPECT_TRUE(Rejected(bytes, &error)) << name << " was accepted";
    EXPECT_FALSE(error.empty()) << name << " rejected without a reason";
  }
}

}  // namespace
}  // namespace logr
