// The benchmark's own tests: the operation streams, their class bands, the
// serve cache model, the metric names, and the traced replay against the
// driver. Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "perfbench/src/checks.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/stream.h"
#include "src/chstone/kernels.h"
#include "src/support/json.h"

namespace perfbench {
namespace {

const Workload kAll[] = {Workload::Report, Workload::Explore, Workload::Serve};
constexpr uint64_t kSeeds[] = {1, 2, 7, 42, 1234567};

std::map<std::string, unsigned> classShares(const Stream& s) {
  std::map<std::string, unsigned> n;
  for (const Op& op : s.block) ++n[className(s.workload, op)];
  return n;
}

bool sameOps(const Stream& a, const Stream& b) {
  if (a.block.size() != b.block.size()) return false;
  for (size_t i = 0; i < a.block.size(); ++i)
    if (a.block[i].kernel != b.block[i].kernel || a.block[i].outcome != b.block[i].outcome ||
        a.block[i].document != b.block[i].document)
      return false;
  return true;
}

TEST(Stream, SameSeedSameStream) {
  for (Workload w : kAll)
    for (uint64_t seed : kSeeds) EXPECT_TRUE(sameOps(makeStream(w, seed), makeStream(w, seed)));
}

TEST(Stream, OtherSeedOtherOrderSameShares) {
  for (Workload w : kAll) {
    const Stream a = makeStream(w, 1);
    for (uint64_t seed : kSeeds) {
      if (seed == 1) continue;
      const Stream b = makeStream(w, seed);
      EXPECT_FALSE(sameOps(a, b)) << workloadName(w) << " seed " << seed;
      EXPECT_EQ(classShares(a), classShares(b)) << workloadName(w) << " seed " << seed;
    }
  }
}

TEST(Stream, EveryKernelAppears) {
  for (Workload w : kAll) {
    std::set<unsigned> ks;
    for (const Op& op : makeStream(w, 3).block) ks.insert(op.kernel);
    EXPECT_EQ(ks.size(), twill::chstoneKernels().size()) << workloadName(w);
  }
}

TEST(Stream, PercentileRanksInsideClassBands) {
  for (Workload w : kAll)
    for (uint64_t seed : kSeeds)
      for (CostTable t : {CostTable::Light, CostTable::Heavy})
        for (double q : {0.5, 0.9}) {
          std::string why;
          EXPECT_TRUE(rankInsideBand(makeStream(w, seed), t, q, 0.05, 0.15, &why))
              << workloadName(w) << " p" << q * 100 << ": " << why;
        }
}

TEST(Stream, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentileSorted(v, 0.5), 50);
  EXPECT_EQ(percentileSorted(v, 0.9), 90);
}

TEST(ServeStream, CacheOutcomeCountsHold) {
  for (uint64_t seed : kSeeds) {
    const Stream s = makeStream(Workload::Serve, seed);
    std::map<Outcome, uint64_t> intended;
    for (const Op& op : s.block) ++intended[op.outcome];
    EXPECT_EQ(s.block.size(), 100u);
    EXPECT_EQ(intended[Outcome::FullHit], 28u);
    EXPECT_EQ(intended[Outcome::ArtifactHit], 43u);
    EXPECT_EQ(intended[Outcome::Miss], 29u);
    for (uint64_t blocks : {1u, 2u, 7u}) {
      CacheCounts c;
      std::string error;
      ASSERT_TRUE(modelCache(s, kServeCacheEntries, blocks, c, error)) << error;
      EXPECT_EQ(c.fullHits, 28 * blocks);
      EXPECT_EQ(c.artifactHits, 43 * blocks);
      EXPECT_EQ(c.misses, 29 * blocks);
      // Every insertion past the cap evicts exactly one entry: misses insert
      // an artifact entry, misses and artifact hits a response.
      EXPECT_EQ(c.artifactEvictions, 29 * blocks - kServeCacheEntries);
      EXPECT_EQ(c.responseEvictions, 72 * blocks - kServeCacheEntries);
    }
  }
}

TEST(ServeStream, MissesVarySwFractionWithoutChangingTheWork) {
  // Every sw_fraction a miss may use must leave each kernel's extracted
  // pipeline as the default one (same structure and cycles), so a miss
  // costs what its kernel costs, whatever the seed.
  for (const twill::KernelInfo& k : twill::chstoneKernels()) {
    const twill::BenchmarkReport ref = twill::runBenchmark(k.name, k.source);
    ASSERT_TRUE(ref.ok) << k.name;
    for (double f : serveSwFractions()) {
      twill::DriverOptions opts;
      opts.dswp.swFraction = f;
      const twill::BenchmarkReport rep = twill::runBenchmark(k.name, k.source, opts);
      ASSERT_TRUE(rep.ok) << k.name << " " << f << ": " << rep.error;
      EXPECT_EQ(rep.twill.cycles, ref.twill.cycles) << k.name << " " << f;
      EXPECT_EQ(rep.queues, ref.queues) << k.name << " " << f;
      EXPECT_EQ(rep.semaphores, ref.semaphores) << k.name << " " << f;
      EXPECT_EQ(rep.hwThreads, ref.hwThreads) << k.name << " " << f;
    }
  }
}

TEST(ServeStream, ArtifactHitsVarySchedQuantumWithoutChangingTheWork) {
  // An artifact hit runs two processors at one of these quanta: a new
  // request-cache key, yet the Twill simulation each kernel's miss ran
  // (same cycles), so an artifact hit costs the same whatever the seed.
  for (const twill::KernelInfo& k : twill::chstoneKernels()) {
    const twill::BenchmarkReport ref = twill::runBenchmark(k.name, k.source);
    ASSERT_TRUE(ref.ok) << k.name;
    for (unsigned q : serveArtifactQuanta()) {
      twill::DriverOptions opts;
      opts.sim.numProcessors = 2;
      opts.sim.schedQuantum = q;
      const twill::BenchmarkReport rep = twill::runBenchmark(k.name, k.source, opts);
      ASSERT_TRUE(rep.ok) << k.name << " " << q << ": " << rep.error;
      EXPECT_NEAR(static_cast<double>(rep.twill.cycles), static_cast<double>(ref.twill.cycles),
                  0.001 * static_cast<double>(ref.twill.cycles))
          << k.name << " " << q;
    }
  }
}

TEST(Metrics, NamesAreWellFormedAndMatchBenchmarkJson) {
  const std::regex name("[A-Za-z0-9_.-]+");
  std::set<std::string> harness;
  for (const auto* defs : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(std::regex_match(d.name, name)) << d.name;
      EXPECT_TRUE(harness.insert(d.name).second) << "duplicate " << d.name;
    }
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  twill::JsonValue doc;
  std::string error;
  ASSERT_TRUE(twill::parseJson(ss.str(), doc, error)) << error;
  auto listed = [&](const char* key, const std::vector<MetricDef>& defs) {
    const twill::JsonValue* arr = doc.get(key);
    ASSERT_TRUE(arr && arr->isArray()) << key;
    ASSERT_EQ(arr->items().size(), defs.size()) << key;
    for (size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(arr->items()[i].get("name")->asString(), defs[i].name) << key;
      EXPECT_EQ(arr->items()[i].get("unit")->asString(), defs[i].unit) << key;
    }
  };
  listed("end_to_end", endToEndMetrics());
  listed("per_layer", perLayerMetrics());
  // explore runs (and feeds the explore layers of every traced run) but is
  // not a gated workload: see README.md, "Steadiness".
  std::set<std::string> workloads;
  for (const auto& w : doc.get("workloads")->items()) workloads.insert(w.get("name")->asString());
  EXPECT_EQ(workloads, (std::set<std::string>{"report", "serve"}));
}

TEST(Replay, EqualsDriverOnOneKernel) {
  const twill::KernelInfo* k = twill::findKernel("sha");
  ASSERT_NE(k, nullptr);
  SpanRecorder rec;
  const ReplayResult r = replayReport(k->source, twill::DriverOptions(), rec, 1);
  const twill::BenchmarkReport rep = twill::runBenchmark(k->name, k->source);
  std::string why;
  EXPECT_TRUE(matchesDriver(r, rep, why)) << why;
  // Every layer the replay times left a span.
  std::set<std::string> names;
  for (const auto& s : rec.spans()) names.insert(s.name);
  for (const char* layer : {"frontend.compile", "transforms.passes", "ir.verify", "ir.golden",
                            "sim.sw", "hls.schedule", "sim.hw", "dswp.extract",
                            "verify.partition", "exec.decode", "sim.twill"})
    EXPECT_TRUE(names.count(layer)) << layer;
}

TEST(Checks, DriverReportMatchesBaseline) {
  std::map<std::string, BaselineKernel> base;
  std::string error;
  ASSERT_TRUE(loadBaseline(PERFBENCH_BASELINE, base, error)) << error;
  const twill::KernelInfo* k = twill::findKernel("jpeg");
  std::string why;
  EXPECT_TRUE(checkReport(twill::runBenchmark(k->name, k->source), base.at("jpeg"), why)) << why;
  // A changed cycle count is caught; a changed wall clock is not a change.
  twill::BenchmarkReport rep = twill::runBenchmark(k->name, k->source);
  rep.stages.passesMs += 5;
  EXPECT_TRUE(checkReport(rep, base.at("jpeg"), why)) << why;
  rep.twill.cycles += 1;
  EXPECT_FALSE(checkReport(rep, base.at("jpeg"), why));
}

}  // namespace
}  // namespace perfbench
