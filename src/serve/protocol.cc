#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "workload/predicate.h"

namespace logr {

namespace {

std::string Err(const std::string& msg) { return "err " + msg; }

/// Round-trip-exact double rendering (same precision the summary format
/// uses), so protocol clients read the served model bit for bit.
std::string Fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Per-feature overall marginal p(f) = Σ_i w_i p_i(f) for every feature
/// any component retains, keyed by the feature itself so two summaries
/// with different codebooks compare by identity, not by id.
std::map<std::pair<int, std::string>, double> OverallMarginals(
    const ServedSummary& s) {
  const WorkloadModel& m = *s.summary.model;
  std::set<FeatureId> support;
  for (std::size_t c = 0; c < m.NumComponents(); ++c) {
    for (FeatureId f : m.ComponentFeatures(c)) support.insert(f);
  }
  std::map<std::pair<int, std::string>, double> out;
  for (FeatureId f : support) {
    const Feature& feat = s.summary.vocabulary.Get(f);
    out[{static_cast<int>(feat.clause), feat.text}] =
        m.EstimateMarginal(FeatureVec({f}));
  }
  return out;
}

std::string HandleInfo(const ServedSummary& s) {
  const WorkloadModel& m = *s.summary.model;
  std::ostringstream os;
  os.precision(17);
  os << "ok encoder=" << m.EncoderName() << " features="
     << s.summary.vocabulary.size() << " clusters=" << m.NumComponents()
     << " queries=" << m.LogSize() << " error=" << m.Error()
     << " verbosity=" << m.TotalVerbosity() << " generation="
     << s.generation;
  return os.str();
}

std::string HandleEstimate(const ServedSummary& s,
                           const std::string& predicate) {
  if (predicate.empty()) return Err("estimate needs a predicate");
  ParsedPredicate pred;
  std::string error;
  if (!ParsePredicate(SplitPredicateList(predicate), s.summary.vocabulary,
                      &pred, &error)) {
    return Err(error);
  }
  const WorkloadModel& m = *s.summary.model;
  // A conjunct naming a feature absent from the codebook never occurs
  // in the summarized log, so the whole conjunction has count exactly 0.
  const double marginal =
      pred.missing.empty() ? m.EstimateMarginal(pred.features) : 0.0;
  const double count =
      pred.missing.empty() ? m.EstimateCount(pred.features) : 0.0;
  std::ostringstream os;
  os << "ok count=" << Fmt(count) << " marginal=" << Fmt(marginal)
     << " queries=" << m.LogSize();
  if (!pred.missing.empty()) os << " missing=" << pred.missing.size();
  return os.str();
}

std::string HandleMarginal(const ServedSummary& s, const std::string& term) {
  if (term.empty()) return Err("marginal needs one feature term");
  ParsedPredicate pred;
  std::string error;
  if (!ParsePredicate(SplitPredicateList(term), s.summary.vocabulary, &pred,
                      &error)) {
    return Err(error);
  }
  if (pred.features.size() + pred.missing.size() != 1) {
    return Err("marginal takes exactly one feature term");
  }
  const WorkloadModel& m = *s.summary.model;
  std::ostringstream os;
  if (!pred.missing.empty()) {
    os << "ok marginal=0 components=" << m.NumComponents();
    for (std::size_t c = 0; c < m.NumComponents(); ++c) os << " 0";
    return os.str();
  }
  const FeatureId f = pred.features.ids[0];
  os << "ok marginal=" << Fmt(m.EstimateMarginal(pred.features))
     << " components=" << m.NumComponents();
  for (std::size_t c = 0; c < m.NumComponents(); ++c) {
    os << " " << Fmt(m.ComponentMarginal(c, f));
  }
  return os.str();
}

std::string HandleDrift(const ServedSummary& a, const ServedSummary& b) {
  // Workload drift as overall per-feature marginal movement between two
  // summaries (e.g. last week's vs. today's): L1 over the union of
  // their supports, plus the top movers. Features compare by identity
  // (clause + text), so the two codebooks need not align.
  const auto pa = OverallMarginals(a);
  const auto pb = OverallMarginals(b);
  std::map<std::pair<int, std::string>, std::pair<double, double>> joined;
  for (const auto& [feat, p] : pa) joined[feat].first = p;
  for (const auto& [feat, p] : pb) joined[feat].second = p;
  double l1 = 0.0;
  struct Mover {
    double magnitude;
    std::string label;
    double delta;
  };
  std::vector<Mover> movers;
  movers.reserve(joined.size());
  for (const auto& [feat, p] : joined) {
    const double delta = p.second - p.first;
    l1 += std::fabs(delta);
    Feature f{static_cast<FeatureClause>(feat.first), feat.second};
    movers.push_back({std::fabs(delta), f.ToString(), delta});
  }
  std::sort(movers.begin(), movers.end(), [](const Mover& x, const Mover& y) {
    if (x.magnitude != y.magnitude) return x.magnitude > y.magnitude;
    return x.label < y.label;
  });
  std::ostringstream os;
  os << "ok l1=" << Fmt(l1) << " features=" << joined.size();
  const std::size_t top = std::min<std::size_t>(3, movers.size());
  if (top > 0) {
    os << " top";
    for (std::size_t i = 0; i < top; ++i) {
      os << (i == 0 ? " " : " ; ") << movers[i].label << "="
         << Fmt(movers[i].delta);
    }
  }
  return os.str();
}

}  // namespace

std::string ProtocolHandler::HandleRequestLine(const std::string& line) const {
  std::string request = line;
  if (!request.empty() && request.back() == '\r') request.pop_back();
  std::istringstream ls(request);
  std::string cmd;
  if (!(ls >> cmd)) return Err("empty request");

  if (cmd == "ping") return "ok pong";

  if (cmd == "list") {
    const auto snapshots = registry_->List();
    std::ostringstream os;
    os << "ok " << snapshots.size();
    for (const auto& s : snapshots) os << " " << s->name;
    return os.str();
  }

  if (cmd == "stats") {
    // Shedding and deadline enforcement are only trustworthy when
    // observable: these counters let an operator (and the chaos tests)
    // reconcile what the daemon did against the traffic it received.
    // The requests counter includes this very request — the daemon
    // counts a line before handling it.
    std::ostringstream os;
    os << "ok accepted=" << (counters_ ? counters_->accepted.load() : 0)
       << " active=" << (counters_ ? counters_->active.load() : 0)
       << " shed=" << (counters_ ? counters_->shed.load() : 0)
       << " timed_out=" << (counters_ ? counters_->timed_out.load() : 0)
       << " requests=" << (counters_ ? counters_->requests.load() : 0)
       << " rescans=" << registry_->Rescans();
    return os.str();
  }

  if (cmd == "reload") {
    const SummaryRegistry::ScanResult r = registry_->Rescan();
    std::ostringstream os;
    os << "ok loaded=" << r.loaded << " reloaded=" << r.reloaded
       << " removed=" << r.removed << " failed=" << r.failed;
    return os.str();
  }

  if (cmd == "info" || cmd == "estimate" || cmd == "marginal") {
    std::string name;
    if (!(ls >> name)) return Err(cmd + " needs a summary name");
    const auto snapshot = registry_->Find(name);
    if (snapshot == nullptr) {
      return Err("no summary named '" + name + "' (try list)");
    }
    std::string rest;
    std::getline(ls, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
    if (cmd == "info") {
      if (!rest.empty()) return Err("info takes only a summary name");
      return HandleInfo(*snapshot);
    }
    if (cmd == "estimate") return HandleEstimate(*snapshot, rest);
    return HandleMarginal(*snapshot, rest);
  }

  if (cmd == "drift") {
    std::string name_a, name_b, extra;
    if (!(ls >> name_a >> name_b) || (ls >> extra)) {
      return Err("drift needs exactly two summary names");
    }
    const auto a = registry_->Find(name_a);
    if (a == nullptr) return Err("no summary named '" + name_a + "'");
    const auto b = registry_->Find(name_b);
    if (b == nullptr) return Err("no summary named '" + name_b + "'");
    return HandleDrift(*a, *b);
  }

  return Err("unknown command '" + cmd +
             "' (ping, list, info, estimate, marginal, drift, reload, "
             "stats, quit)");
}

}  // namespace logr
