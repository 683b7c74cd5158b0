// Canonical predicate parsing shared by the CLI and the serve protocol.
//
// Analytics requests name a conjunctive feature set ("how many queries
// contain all of these?") either structurally (CLAUSE:TEXT, the form
// `logr_cli estimate` always took) or by feature id (#7 or plain 7 —
// the codebook position printed by `info`/`visualize`). Both front ends
// parse through this module so they agree on the grammar, on loud
// rejection of malformed terms (a non-numeric id, an unknown clause, an
// id past the codebook), and on canonicalization: the resulting
// FeatureVec is sorted and deduplicated, so textually different spellings
// of the same predicate hit any estimate cache identically.
#ifndef LOGR_WORKLOAD_PREDICATE_H_
#define LOGR_WORKLOAD_PREDICATE_H_

#include <string>
#include <vector>

#include "workload/feature.h"
#include "workload/feature_vec.h"

namespace logr {

/// A parsed conjunctive predicate over a summary's codebook.
struct ParsedPredicate {
  /// Canonical feature set: sorted ascending, deduplicated, every id
  /// resolvable in the vocabulary the predicate was parsed against.
  FeatureVec features;
  /// CLAUSE:TEXT terms naming features absent from the codebook. A
  /// feature that never occurs in the summarized log has marginal
  /// exactly 0, so callers short-circuit the whole conjunction to 0
  /// when this is non-empty (and can echo the terms to the user).
  std::vector<std::string> missing;
};

/// Parses a whole predicate, one term per element: CLAUSE:TEXT (e.g.
/// "WHERE:status = ?", clause case-insensitive) or a numeric feature id
/// "#N" or "N", strictly validated. Then canonicalizes: sorted,
/// deduplicated. Empty `terms` is an error — an empty conjunction is
/// trivially true and almost certainly a caller bug.
bool ParsePredicate(const std::vector<std::string>& terms,
                    const Vocabulary& vocab, ParsedPredicate* out,
                    std::string* error);

/// Splits the serve protocol's single-token predicate form — terms
/// joined by commas, e.g. "3,7,#12" or "FROM:orders,WHERE:status = ?" —
/// into terms for ParsePredicate. Surrounding whitespace per term is
/// trimmed; empty terms (",,", trailing comma) are preserved so the
/// parser rejects them loudly.
std::vector<std::string> SplitPredicateList(const std::string& text);

}  // namespace logr

#endif  // LOGR_WORKLOAD_PREDICATE_H_
