#include "perfbench/src/checks.h"

#include <fstream>
#include <sstream>

namespace perfbench {

using twill::JsonValue;

namespace {

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool sweepPoints(const JsonValue* arr, const char* axis, std::map<unsigned, uint64_t>& out) {
  if (!arr || !arr->isArray()) return false;
  for (const JsonValue& p : arr->items()) {
    const JsonValue* a = p.get(axis);
    const JsonValue* c = p.get("cycles");
    if (!a || !c || !a->isUnsigned() || !c->isUnsigned()) return false;
    out[static_cast<unsigned>(a->asUnsigned())] = c->asUnsigned();
  }
  return true;
}

}  // namespace

bool equalModuloWall(const JsonValue& a, const JsonValue& b, std::string& why,
                     const std::string& path) {
  if (a.kind() != b.kind()) {
    why = path + ": kinds differ";
    return false;
  }
  switch (a.kind()) {
    case JsonValue::Kind::Null: return true;
    case JsonValue::Kind::Bool:
      if (a.asBool() == b.asBool()) return true;
      break;
    case JsonValue::Kind::Number:
      if (a.isUnsigned() == b.isUnsigned() &&
          (a.isUnsigned() ? a.asUnsigned() == b.asUnsigned() : a.asDouble() == b.asDouble()))
        return true;
      break;
    case JsonValue::Kind::String:
      if (a.asString() == b.asString()) return true;
      break;
    case JsonValue::Kind::Array: {
      if (a.items().size() != b.items().size()) break;
      for (size_t i = 0; i < a.items().size(); ++i)
        if (!equalModuloWall(a.items()[i], b.items()[i], why, path + "[" + std::to_string(i) + "]"))
          return false;
      return true;
    }
    case JsonValue::Kind::Object: {
      std::vector<std::pair<std::string, const JsonValue*>> am, bm;
      for (const auto& [k, v] : a.members())
        if (!endsWith(k, "_wall_ms")) am.push_back({k, &v});
      for (const auto& [k, v] : b.members())
        if (!endsWith(k, "_wall_ms")) bm.push_back({k, &v});
      if (am.size() != bm.size()) break;
      for (size_t i = 0; i < am.size(); ++i) {
        if (am[i].first != bm[i].first) {
          why = path + ": member " + am[i].first + " vs " + bm[i].first;
          return false;
        }
        if (!equalModuloWall(*am[i].second, *bm[i].second, why, path + "." + am[i].first))
          return false;
      }
      return true;
    }
  }
  why = path + ": values differ";
  return false;
}

bool documentsEqualModuloWall(const std::string& a, const std::string& b, std::string& why) {
  JsonValue ja, jb;
  std::string err;
  if (!twill::parseJson(a, ja, err) || !twill::parseJson(b, jb, err)) {
    why = "unparsable document: " + err;
    return false;
  }
  return equalModuloWall(ja, jb, why);
}

bool loadBaseline(const std::string& path, std::map<std::string, BaselineKernel>& out,
                  std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  if (!twill::parseJson(ss.str(), doc, error)) return false;
  const JsonValue* kernels = doc.get("kernels");
  if (!kernels || !kernels->isArray()) {
    error = "baseline has no kernels array";
    return false;
  }
  for (const JsonValue& k : kernels->items()) {
    const JsonValue* rep = k.get("report");
    const JsonValue* name = rep ? rep->get("name") : nullptr;
    if (!name || !name->isString()) {
      error = "baseline kernel without a report name";
      return false;
    }
    BaselineKernel& bk = out[name->asString()];
    bk.report = *rep;
    if (!sweepPoints(k.get("queue_latency_sweep"), "latency", bk.latencySweep) ||
        !sweepPoints(k.get("queue_capacity_sweep"), "capacity", bk.capacitySweep)) {
      error = "baseline sweeps malformed for " + name->asString();
      return false;
    }
  }
  return true;
}

bool checkReport(const twill::BenchmarkReport& rep, const BaselineKernel& base, std::string& why) {
  JsonValue got;
  std::string err;
  if (!twill::parseJson(twill::reportToJson(rep), got, err)) {
    why = "report JSON unparsable: " + err;
    return false;
  }
  return equalModuloWall(got, base.report, why);
}

twill::ParamSpace exploreGrid() {
  twill::ParamSpace s;
  s.queueCapacities = {1, 2, 8, 32};
  s.queueLatencies = {2, 8, 32};
  s.processorCounts = {1, 2};
  return s;
}

bool checkExplore(const twill::ExploreResult& res, const BaselineKernel& base, std::string& why) {
  if (!res.ok || res.points.size() != exploreGrid().size()) {
    why = "exploration failed: " + res.error;
    return false;
  }
  for (const twill::PointResult& p : res.points) {
    if (!p.ok) {
      why = "point " + std::to_string(p.point.index) + ": " + p.error;
      return false;
    }
    const twill::SimConfig& sc = p.point.sim;
    if (sc.numProcessors != 1) continue;
    const uint64_t cycles = p.report.twill.cycles;
    // Fig. 6.5 sweeps latency at the default capacity; Fig. 6.6 sweeps
    // capacity at the default latency.
    if (sc.queueCapacity == 8 && base.latencySweep.count(sc.queueLatency) &&
        base.latencySweep.at(sc.queueLatency) != cycles) {
      why = "latency " + std::to_string(sc.queueLatency) + ": " + std::to_string(cycles) +
            " cycles, baseline " + std::to_string(base.latencySweep.at(sc.queueLatency));
      return false;
    }
    if (sc.queueLatency == 2 && base.capacitySweep.count(sc.queueCapacity) &&
        base.capacitySweep.at(sc.queueCapacity) != cycles) {
      why = "capacity " + std::to_string(sc.queueCapacity) + ": " + std::to_string(cycles) +
            " cycles, baseline " + std::to_string(base.capacitySweep.at(sc.queueCapacity));
      return false;
    }
    if (sc.queueCapacity == 8 && sc.queueLatency == 2 && !checkReport(p.report, base, why)) {
      why = "default point: " + why;
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
