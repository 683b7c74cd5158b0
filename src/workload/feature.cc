#include "workload/feature.h"

#include "util/check.h"

namespace logr {

const char* FeatureClauseName(FeatureClause clause) {
  switch (clause) {
    case FeatureClause::kSelect: return "SELECT";
    case FeatureClause::kFrom: return "FROM";
    case FeatureClause::kWhere: return "WHERE";
    case FeatureClause::kGroupBy: return "GROUPBY";
    case FeatureClause::kOrderBy: return "ORDERBY";
    case FeatureClause::kLimit: return "LIMIT";
  }
  return "?";
}

bool ClauseFromCode(std::int64_t code, FeatureClause* clause) {
  if (code < 0 || code > static_cast<std::int64_t>(FeatureClause::kLimit)) {
    return false;
  }
  *clause = static_cast<FeatureClause>(code);
  return true;
}

std::string Feature::ToString() const {
  return "<" + text + ", " + FeatureClauseName(clause) + ">";
}

std::string Vocabulary::Key(const Feature& f) {
  std::string key(1, static_cast<char>('0' + static_cast<int>(f.clause)));
  key += f.text;
  return key;
}

FeatureId Vocabulary::Intern(const Feature& f) {
  std::string key = Key(f);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  FeatureId id = static_cast<FeatureId>(features_.size());
  features_.push_back(f);
  index_.emplace(std::move(key), id);
  return id;
}

FeatureId Vocabulary::Find(const Feature& f) const {
  auto it = index_.find(Key(f));
  return it == index_.end() ? kNotFound : it->second;
}

const Feature& Vocabulary::Get(FeatureId id) const {
  LOGR_CHECK(id < features_.size());
  return features_[id];
}

}  // namespace logr
