// Interpretable rendering of compressed workloads (paper Sec. 2.3.2
// and Appendix E).
//
// Under the isomorphism assumption of Sec. 2.1, an encoding translates
// back into query syntax: each cluster renders as a synthetic SQL
// template whose SELECT / FROM / WHERE elements carry their marginals.
// Marginal magnitude maps to a shading glyph (the textual analogue of
// Fig. 10's gray levels: '#' at >= 0.95, '+' at >= 0.50, '.' below);
// features below a marginal of 0.15 are omitted, matching the appendix
// ("features with marginal too small will be invisible and omitted"),
// and each clause lists at most 8 features.
#ifndef LOGR_CORE_VISUALIZE_H_
#define LOGR_CORE_VISUALIZE_H_

#include <string>

#include "core/encoder.h"
#include "workload/query_log.h"

namespace logr {

/// Shading glyph for a marginal.
char MarginalGlyph(double marginal);

/// Renders component `component` of `model` as an indented clause
/// listing, through the analytics facade (per-component features and
/// marginals), so every encoder's summaries visualize the same way.
/// `vocab` maps the model's feature ids back to query elements.
std::string RenderCluster(const Vocabulary& vocab, const WorkloadModel& model,
                          std::size_t component);

/// Renders the whole model, clusters ordered by descending weight.
std::string RenderMixture(const Vocabulary& vocab, const WorkloadModel& model);

}  // namespace logr

#endif  // LOGR_CORE_VISUALIZE_H_
