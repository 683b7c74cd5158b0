// Query features in the style of Aligon et al. [3] (paper Section 2.2).
//
// Each feature is one of: a SELECT-clause output expression, a FROM-clause
// table or subquery, or a conjunctive WHERE-clause atom. An extended mode
// additionally captures GROUP BY / ORDER BY / LIMIT elements (Makiyama et
// al. [39] capture aggregation features; the paper's Appendix E
// visualizations show ORDER BY and LIMIT elements, so they are available
// behind an option).
#ifndef LOGR_WORKLOAD_FEATURE_H_
#define LOGR_WORKLOAD_FEATURE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace logr {

enum class FeatureClause : std::uint8_t {
  kSelect,
  kFrom,
  kWhere,
  kGroupBy,
  kOrderBy,
  kLimit,
};

/// Human-readable clause tag ("SELECT", "FROM", ...).
const char* FeatureClauseName(FeatureClause clause);

/// Decodes a stored clause number (the enum value, as the .logrl and
/// summary formats write it) into `*clause`. Returns false, leaving
/// `*clause` untouched, for any value outside 0-5.
bool ClauseFromCode(std::int64_t code, FeatureClause* clause);

/// One structural query element, e.g. <status=?, WHERE>.
struct Feature {
  FeatureClause clause = FeatureClause::kSelect;
  std::string text;

  bool operator==(const Feature& o) const {
    return clause == o.clause && text == o.text;
  }

  /// Renders as "<text, CLAUSE>" (paper's 〈 ., . 〉 notation).
  std::string ToString() const;
};

using FeatureId = std::uint32_t;

/// Bidirectional feature <-> id interning table: the encoding codebook.
///
/// Feature ids are dense and assigned in first-seen order, so a
/// vocabulary built from a log enumerates the log's feature universe
/// (assumption (1) of Section 2.1).
class Vocabulary {
 public:
  /// Returns the id for `f`, interning it if new.
  FeatureId Intern(const Feature& f);

  /// Returns the id of `f` or `kNotFound` if absent.
  static constexpr FeatureId kNotFound = 0xffffffffu;
  FeatureId Find(const Feature& f) const;

  /// Feature for an id. Requires id < size().
  const Feature& Get(FeatureId id) const;

  std::size_t size() const { return features_.size(); }

  /// The interning key: equal for two features iff they are ==.
  static std::string Key(const Feature& f);

 private:
  std::vector<Feature> features_;
  std::unordered_map<std::string, FeatureId> index_;
};

}  // namespace logr

#endif  // LOGR_WORKLOAD_FEATURE_H_
