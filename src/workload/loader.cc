#include "workload/loader.h"

#include <istream>

#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "workload/binary_log.h"

namespace logr {

/// Everything the fold needs from the first line of a template key,
/// computed on the pool. Only `kind` is set unless the line is a valid
/// SELECT.
struct LogLoader::PreparedLine {
  sql::StatementKind kind = sql::StatementKind::kParseError;
  std::string canonical;  // constant-free printed form
  std::vector<Feature> features;
};

namespace {

/// Tags of a TemplateKey's token walk, one per token class it tells apart.
enum KeyTag : char {
  kIdentifierTag = 'i',
  kKeywordTag = 'k',
  kOperatorTag = 'o',
  kParameterTag = 'p',
  kLiteralTag = 'l',  // any literal before the first LIMIT / OFFSET
  kIntegerTag = 'I',  // literals from then on keep their type
  kFloatTag = 'F',
  kStringTag = 'S',
  kLexErrorTag = 'E',  // ends the walk of a line that fails to lex
};

/// Appends `tag`, the LEB128 length of `text` and `text` to `key`.
void AppendText(KeyTag tag, std::string_view text, std::string* key) {
  key->push_back(tag);
  std::size_t size = text.size();
  do {
    const unsigned char low = size & 0x7f;
    size >>= 7;
    key->push_back(static_cast<char>(size ? low | 0x80 : low));
  } while (size);
  key->append(text);
}

}  // namespace

std::string TemplateKey(std::string_view sql) {
  const sql::TokenList list = sql::Lex(sql);
  std::string key;
  // Each token adds at most two bytes to its source text (a tag and a
  // one-byte length), unless its text runs past 127 bytes.
  key.reserve(sql.size() + 2 * list.tokens.size());
  bool keep_literals = false;  // from the first LIMIT or OFFSET on
  // Lex ends its list with kEndOfInput or kError.
  for (const sql::Token& t : list.tokens) {
    switch (t.type) {
      case sql::TokenType::kIdentifier:
        AppendText(kIdentifierTag, t.text, &key);
        for (auto c = key.end() - t.text.size(); c != key.end(); ++c) {
          if (*c >= 'A' && *c <= 'Z') *c += 'a' - 'A';
        }
        break;
      case sql::TokenType::kKeyword:
        key.push_back(kKeywordTag);
        key.push_back(static_cast<char>(t.keyword));
        if (t.keyword == sql::Keyword::kLimit ||
            t.keyword == sql::Keyword::kOffset) {
          keep_literals = true;
        }
        break;
      case sql::TokenType::kOperator:
        AppendText(kOperatorTag, t.text, &key);
        break;
      case sql::TokenType::kParameter:
        AppendText(kParameterTag, t.text, &key);
        break;
      case sql::TokenType::kInteger:
      case sql::TokenType::kFloat:
      case sql::TokenType::kString:
        if (!keep_literals) {
          key.push_back(kLiteralTag);
        } else {
          AppendText(t.type == sql::TokenType::kInteger ? kIntegerTag
                     : t.type == sql::TokenType::kFloat ? kFloatTag
                                                        : kStringTag,
                     t.text, &key);
        }
        break;
      case sql::TokenType::kEndOfInput:
        return key;
      case sql::TokenType::kError:
        key.push_back(kLexErrorTag);
        return key;
    }
  }
  return key;
}

LogLoader::LogLoader(Options opts) : opts_(std::move(opts)) {}

void LogLoader::AddSql(std::string_view raw_sql, std::uint64_t count) {
  if (count == 0) return;  // zero occurrences: nothing to record
  pending_.push_back({std::string(raw_sql), count});
  if (pending_.size() >= kBatchLines) Flush();
}

void LogLoader::Flush() const {
  if (pending_.empty()) return;
  const std::size_t n = pending_.size();
  ThreadPool* pool = opts_.pool ? opts_.pool : ThreadPool::Shared();

  // (A) Key every line and look the key up among the folded ones. Workers
  // only read `keys_`; the fold alone inserts, after (B). A line's record
  // is set here on a hit, else by the fold.
  std::vector<std::string> keys(n);
  std::vector<const KeyedLine*> keyed(n, nullptr);
  ParallelFor(pool, 0, n, kFineGrain, [&](std::size_t i) {
    keys[i] = TemplateKey(pending_[i].sql);
    auto it = keys_.find(keys[i]);
    if (it != keys_.end()) keyed[i] = &it->second;
  });

  // The first line of each new key in the batch represents it.
  std::vector<std::size_t> rep(n);
  std::vector<std::size_t> firsts;
  {
    std::unordered_map<std::string_view, std::size_t> first_of;
    for (std::size_t i = 0; i < n; ++i) {
      if (keyed[i]) continue;
      rep[i] = first_of.try_emplace(keys[i], i).first->second;
      if (rep[i] == i) firsts.push_back(i);
    }
  }

  // (B) Parse, regularize and print the representatives only.
  std::vector<PreparedLine> prepared(n);
  ParallelFor(pool, 0, firsts.size(), kFineGrain, [&](std::size_t f) {
    const std::size_t i = firsts[f];
    PreparedLine& p = prepared[i];
    sql::ParseResult parsed = sql::Parse(pending_[i].sql);
    p.kind = parsed.kind;
    if (!parsed.ok()) return;
    sql::StatementPtr regular = sql::Regularize(
        std::move(parsed.statement), sql::RegularizeOptions(), nullptr);
    p.canonical = sql::PrintStatement(*regular);
    // A template folded by an earlier batch already has its features:
    // the fold only needs them for a template it has not seen. Workers
    // only read `templates_`; the fold alone writes it, after this loop.
    if (templates_.count(p.canonical) == 0) {
      p.features = ListFeatures(*regular, opts_.extract);
    }
  });

  // Serial fold in input order: interning order fixes the feature ids and
  // Add order fixes the distinct-vector order and sample SQL. A
  // representative precedes every line that reuses it.
  Vocabulary* vocab = log_.mutable_vocabulary();
  for (std::size_t i = 0; i < n; ++i) {
    if (keyed[i] == nullptr && rep[i] != i) {
      keyed[i] = keyed[rep[i]];
    } else if (keyed[i] == nullptr) {
      const PreparedLine& p = prepared[i];
      KeyedLine line;
      line.kind = p.kind;
      if (p.kind == sql::StatementKind::kSelect) {
        auto [it, fresh] = templates_.try_emplace(p.canonical);
        if (fresh) {
          std::vector<FeatureId> ids;
          ids.reserve(p.features.size());
          for (const Feature& f : p.features) ids.push_back(vocab->Intern(f));
          it->second = FeatureVec(std::move(ids));
        }
        line.features = &it->second;
      }
      keyed[i] = &keys_.emplace(std::move(keys[i]), line).first->second;
    }
    const KeyedLine& line = *keyed[i];
    const std::uint64_t count = pending_[i].count;
    if (line.kind == sql::StatementKind::kParseError) {
      num_parse_errors_ += count;
    } else if (line.kind != sql::StatementKind::kSelect) {
      num_non_select_ += count;
    } else {
      num_queries_ += count;
      log_.Add(*line.features, count, std::move(pending_[i].sql));
    }
  }
  pending_.clear();
}

bool LogLoader::WriteBinary(const std::string& path,
                            const std::string& dataset_name,
                            std::string* error) const {
  return BinaryLogWriter::WriteFile(path, log(), Summary(dataset_name), error);
}

DatasetSummary LogLoader::Summary(std::string name) const {
  Flush();
  DatasetSummary s;
  s.name = std::move(name);
  s.num_queries = num_queries_;
  s.num_non_select = num_non_select_;
  s.num_parse_errors = num_parse_errors_;
  s.num_distinct_no_const = templates_.size();
  s.max_multiplicity = log_.MaxMultiplicity();
  s.num_features_no_const = log_.NumFeatures();
  s.avg_features_per_query = log_.AvgFeaturesPerQuery();
  return s;
}

bool SplitCountPrefix(std::string_view line, std::string_view* sql,
                      std::uint64_t* count) {
  const std::size_t tab = line.find('\t');
  const std::string_view prefix = line.substr(0, tab);
  if (tab == std::string_view::npos || prefix.empty() ||
      prefix.find_first_not_of("0123456789") != std::string_view::npos) {
    *sql = line;
    *count = 1;
    return true;
  }
  if (!ParseUint64(prefix, 0, UINT64_MAX, count)) return false;
  *sql = line.substr(tab + 1);
  return true;
}

bool ReadTextLog(std::istream& in,
                 const std::function<void(std::string_view sql,
                                          std::uint64_t count)>& add,
                 std::string* error) {
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::string_view sql;
    std::uint64_t count = 0;
    if (!SplitCountPrefix(line, &sql, &count)) {
      *error = StrFormat("line %llu: count %s does not fit in 64 bits",
                         static_cast<unsigned long long>(line_no),
                         line.substr(0, line.find('\t')).c_str());
      return false;
    }
    if (count > UINT64_MAX - total) {
      *error = StrFormat(
          "line %llu: count %llu takes the log's total past %llu",
          static_cast<unsigned long long>(line_no),
          static_cast<unsigned long long>(count),
          static_cast<unsigned long long>(UINT64_MAX));
      return false;
    }
    total += count;
    add(sql, count);
  }
  if (in.bad()) {
    *error = StrFormat("read error after line %llu",
                       static_cast<unsigned long long>(line_no));
    return false;
  }
  return true;
}

}  // namespace logr
