#include "oracles/same_log.h"

namespace logr {

bool SameQueryLog(const QueryLog& a, const QueryLog& b, std::string* why) {
  auto mismatch = [why](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.NumDistinct() != b.NumDistinct()) return mismatch("NumDistinct");
  if (a.TotalQueries() != b.TotalQueries()) return mismatch("TotalQueries");
  if (a.NumFeatures() != b.NumFeatures()) return mismatch("NumFeatures");
  if (a.vocabulary().size() != b.vocabulary().size()) {
    return mismatch("vocabulary size");
  }
  for (FeatureId f = 0; f < a.vocabulary().size(); ++f) {
    if (!(a.vocabulary().Get(f) == b.vocabulary().Get(f))) {
      return mismatch("vocabulary entry " + std::to_string(f));
    }
  }
  for (std::size_t i = 0; i < a.NumDistinct(); ++i) {
    if (!(a.Vector(i) == b.Vector(i))) {
      return mismatch("vector " + std::to_string(i));
    }
    if (a.Multiplicity(i) != b.Multiplicity(i)) {
      return mismatch("multiplicity " + std::to_string(i));
    }
    if (a.SampleSql(i) != b.SampleSql(i)) {
      return mismatch("sample SQL " + std::to_string(i));
    }
  }
  return true;
}

bool SameDatasetSummary(const DatasetSummary& a, const DatasetSummary& b,
                        std::string* why) {
  auto mismatch = [why](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.name != b.name) return mismatch("name");
  if (a.num_queries != b.num_queries) return mismatch("num_queries");
  if (a.num_non_select != b.num_non_select) return mismatch("num_non_select");
  if (a.num_parse_errors != b.num_parse_errors) {
    return mismatch("num_parse_errors");
  }
  if (a.num_distinct_no_const != b.num_distinct_no_const) {
    return mismatch("num_distinct_no_const");
  }
  if (a.max_multiplicity != b.max_multiplicity) {
    return mismatch("max_multiplicity");
  }
  if (a.num_features_no_const != b.num_features_no_const) {
    return mismatch("num_features_no_const");
  }
  if (a.avg_features_per_query != b.avg_features_per_query) {
    return mismatch("avg_features_per_query");
  }
  return true;
}

}  // namespace logr
