#include "core/visualize.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace logr {

namespace {

/// Features below this marginal are omitted from the rendering.
constexpr double kMinMarginal = 0.15;
/// At most this many features are listed per clause.
constexpr std::size_t kMaxPerClause = 8;
/// Shading thresholds: '#' at >= kSolid, '+' at >= kStrong, '.' below.
constexpr double kSolid = 0.95;
constexpr double kStrong = 0.50;

struct Annotated {
  double marginal;
  std::string line;
};

void AppendClause(const char* label, std::vector<Annotated>* items,
                  std::string* out) {
  if (items->empty()) return;
  std::sort(items->begin(), items->end(),
            [](const Annotated& a, const Annotated& b) {
              return a.marginal > b.marginal;
            });
  out->append("  ");
  out->append(label);
  out->append("\n");
  for (std::size_t i = 0; i < items->size() && i < kMaxPerClause; ++i) {
    out->append("    ");
    out->append((*items)[i].line);
    out->append("\n");
  }
  if (items->size() > kMaxPerClause) {
    out->append(
        StrFormat("    ... %zu more\n", items->size() - kMaxPerClause));
  }
}

}  // namespace

char MarginalGlyph(double marginal) {
  if (marginal >= kSolid) return '#';
  if (marginal >= kStrong) return '+';
  return '.';
}

std::string RenderCluster(const Vocabulary& vocab, const WorkloadModel& model,
                          std::size_t component) {
  std::string out = StrFormat(
      "cluster: weight %.1f%%, |L| %llu, verbosity %zu, error %.3f\n",
      100.0 * model.ComponentWeight(component),
      static_cast<unsigned long long>(model.ComponentLogSize(component)),
      model.ComponentVerbosity(component), model.ComponentError(component));

  // One listing per clause: SELECT, FROM, WHERE, then every other clause
  // (the enum's stored order puts those three first).
  static const char* const kLabels[] = {"SELECT", "FROM",
                                        "WHERE (conjunctive atoms)", "OTHER"};
  std::vector<Annotated> clauses[4];
  bool any = false;
  for (FeatureId id : model.ComponentFeatures(component)) {
    const double m = model.ComponentMarginal(component, id);
    if (m < kMinMarginal) continue;
    const Feature& f = vocab.Get(id);
    clauses[std::min<std::size_t>(static_cast<std::size_t>(f.clause), 3)]
        .push_back({m, StrFormat("%c %s", MarginalGlyph(m), f.text.c_str())});
    any = true;
  }
  if (!any) {
    out += "  (features too diffuse to visualize — needs sub-clustering, "
           "cf. App. E)\n";
    return out;
  }
  for (std::size_t c = 0; c < 4; ++c) {
    AppendClause(kLabels[c], &clauses[c], &out);
  }
  return out;
}

std::string RenderMixture(const Vocabulary& vocab,
                          const WorkloadModel& model) {
  std::vector<std::size_t> order(model.NumComponents());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return model.ComponentWeight(a) > model.ComponentWeight(b);
  });
  std::string out;
  for (std::size_t i : order) {
    out += RenderCluster(vocab, model, i);
    out += "\n";
  }
  return out;
}

}  // namespace logr
