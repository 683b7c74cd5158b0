#include "workload/predicate.h"

#include <algorithm>
#include <cctype>

namespace logr {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string Upper(const std::string& s) {
  std::string u = s;
  std::transform(u.begin(), u.end(), u.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return u;
}

bool ClauseFromLabel(const std::string& label, FeatureClause* clause) {
  const std::string u = Upper(label);
  if (u == "SELECT") *clause = FeatureClause::kSelect;
  else if (u == "FROM") *clause = FeatureClause::kFrom;
  else if (u == "WHERE") *clause = FeatureClause::kWhere;
  else if (u == "GROUPBY") *clause = FeatureClause::kGroupBy;
  else if (u == "ORDERBY") *clause = FeatureClause::kOrderBy;
  else if (u == "LIMIT") *clause = FeatureClause::kLimit;
  else return false;
  return true;
}

/// Strict decimal parse of a feature id: every character a digit, no
/// sign, no trailing garbage, value within the codebook. The previous
/// CLI behavior — treating "7x" as a CLAUSE:TEXT spec and failing with
/// a misleading "unknown clause" — is exactly the bug this replaces.
bool ParseFeatureId(const std::string& digits, const Vocabulary& vocab,
                    FeatureId* id, std::string* error) {
  if (digits.empty()) return Fail(error, "empty feature id");
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Fail(error, "feature id must be numeric, got '" + digits +
                             "' (use CLAUSE:TEXT for structural terms)");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xffffffffull) {
      return Fail(error, "feature id out of range: " + digits);
    }
  }
  if (value >= vocab.size()) {
    return Fail(error, "feature id " + digits + " past the codebook (" +
                           std::to_string(vocab.size()) + " features)");
  }
  *id = static_cast<FeatureId>(value);
  return true;
}

/// Parses one predicate term against `vocab`:
///   CLAUSE:TEXT   e.g. "WHERE:status = ?" (clause case-insensitive)
///   #N or N       a numeric feature id, strictly validated: rejects
///                 non-numeric ids ("7x", "id3") and ids past the
///                 codebook loudly instead of estimating garbage.
/// Appends to `out` (features or missing). Returns false with a
/// human-readable `error` on malformed input.
bool ParsePredicateTerm(const std::string& term, const Vocabulary& vocab,
                        ParsedPredicate* out, std::string* error) {
  if (term.empty()) return Fail(error, "empty predicate term");

  // Numeric forms first: "#7" and bare digits. A term with a colon is
  // always structural.
  const std::size_t colon = term.find(':');
  if (colon == std::string::npos) {
    const std::string digits = term[0] == '#' ? term.substr(1) : term;
    FeatureId id = 0;
    if (!ParseFeatureId(digits, vocab, &id, error)) return false;
    out->features.ids.push_back(id);
    return true;
  }

  FeatureClause clause;
  if (!ClauseFromLabel(term.substr(0, colon), &clause)) {
    return Fail(error, "unknown clause in '" + term +
                           "' (SELECT, FROM, WHERE, GROUPBY, ORDERBY, "
                           "LIMIT, or a numeric feature id)");
  }
  const std::string text = term.substr(colon + 1);
  if (text.empty()) {
    return Fail(error, "empty feature text in '" + term + "'");
  }
  Feature feat{clause, text};
  const FeatureId id = vocab.Find(feat);
  if (id == Vocabulary::kNotFound) {
    out->missing.push_back(feat.ToString());
    return true;
  }
  out->features.ids.push_back(id);
  return true;
}

}  // namespace

bool ParsePredicate(const std::vector<std::string>& terms,
                    const Vocabulary& vocab, ParsedPredicate* out,
                    std::string* error) {
  if (terms.empty()) return Fail(error, "empty predicate");
  ParsedPredicate parsed;
  for (const std::string& term : terms) {
    if (!ParsePredicateTerm(term, vocab, &parsed, error)) return false;
  }
  // Canonical form: the FeatureVec constructor sorts and deduplicates,
  // so "7,3,7" and "3,7" are the same predicate from here on.
  parsed.features = FeatureVec(std::move(parsed.features.ids));
  *out = std::move(parsed);
  return true;
}

std::vector<std::string> SplitPredicateList(const std::string& text) {
  std::vector<std::string> terms;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    std::string term = text.substr(start, comma - start);
    while (!term.empty() && std::isspace(static_cast<unsigned char>(
                                term.front()))) {
      term.erase(term.begin());
    }
    while (!term.empty() &&
           std::isspace(static_cast<unsigned char>(term.back()))) {
      term.pop_back();
    }
    terms.push_back(std::move(term));
    if (comma == text.size()) break;
    start = comma + 1;
  }
  return terms;
}

}  // namespace logr
