// Unit tests for the design-space exploration subsystem (src/explore):
// space enumeration and axis parsing, Pareto pruning on hand-built point
// sets, and the explorer's thread-count invariance + artifact-reuse
// exactness on a small program.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "src/explore/explorer.h"
#include "src/explore/pareto.h"
#include "src/explore/pool.h"
#include "src/explore/space.h"

namespace {

using namespace twill;

// ---------------------------------------------------------------------------
// ParamSpace
// ---------------------------------------------------------------------------

TEST(ParamSpaceTest, DefaultsAreOneDriverDefaultPoint) {
  ParamSpace s;
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.groupCount(), 1u);
  auto pts = s.enumerate();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].index, 0u);
  EXPECT_EQ(pts[0].dswp.numPartitions, DswpConfig{}.numPartitions);
  EXPECT_EQ(pts[0].sim.queueCapacity, SimConfig{}.queueCapacity);
  EXPECT_EQ(pts[0].sim.queueLatency, SimConfig{}.queueLatency);
}

TEST(ParamSpaceTest, RowMajorOrderCompileAxesOutermost) {
  ParamSpace s;
  s.partitions = {0, 2};
  s.swFractions = {0.1, 0.5};
  s.queueCapacities = {4, 8};
  s.queueLatencies = {2};
  s.processorCounts = {1, 2};
  EXPECT_EQ(s.groupCount(), 4u);
  EXPECT_EQ(s.pointsPerGroup(), 4u);
  EXPECT_EQ(s.size(), 16u);
  auto pts = s.enumerate();
  ASSERT_EQ(pts.size(), 16u);
  for (size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].index, i);
  // Innermost axis (processors) varies fastest.
  EXPECT_EQ(pts[0].sim.numProcessors, 1u);
  EXPECT_EQ(pts[1].sim.numProcessors, 2u);
  EXPECT_EQ(pts[0].sim.queueCapacity, 4u);
  EXPECT_EQ(pts[2].sim.queueCapacity, 8u);
  // Points of one compile group are contiguous.
  for (size_t g = 0; g < 4; ++g) {
    const auto& first = pts[g * 4];
    for (size_t k = 1; k < 4; ++k) {
      EXPECT_EQ(pts[g * 4 + k].dswp.numPartitions, first.dswp.numPartitions);
      EXPECT_EQ(pts[g * 4 + k].dswp.swFraction, first.dswp.swFraction);
    }
  }
  // Compile axes: swFraction inner, partitions outer.
  EXPECT_EQ(pts[0].dswp.numPartitions, 0u);
  EXPECT_EQ(pts[4].dswp.swFraction, 0.5);
  EXPECT_EQ(pts[8].dswp.numPartitions, 2u);
}

TEST(ParamSpaceTest, ValidateRejectsBadAxes) {
  std::string err;
  ParamSpace s;
  EXPECT_TRUE(s.validate(err)) << err;
  s.queueCapacities = {};
  EXPECT_FALSE(s.validate(err));
  s = ParamSpace{};
  s.queueCapacities = {0};
  EXPECT_FALSE(s.validate(err));
  s = ParamSpace{};
  s.processorCounts = {0};
  EXPECT_FALSE(s.validate(err));
  s = ParamSpace{};
  s.swFractions = {1.5};
  EXPECT_FALSE(s.validate(err));
  s = ParamSpace{};
  s.swFractions = {std::nan("")};
  EXPECT_FALSE(s.validate(err));
}

TEST(ParamSpaceTest, AxisParsing) {
  std::vector<unsigned> u;
  std::string err;
  EXPECT_TRUE(parseUnsignedAxis("2,8,32", false, u, err)) << err;
  EXPECT_EQ(u, (std::vector<unsigned>{2, 8, 32}));
  EXPECT_TRUE(parseUnsignedAxis("0", true, u, err));
  EXPECT_FALSE(parseUnsignedAxis("0", false, u, err));
  EXPECT_FALSE(parseUnsignedAxis("", false, u, err));
  EXPECT_FALSE(parseUnsignedAxis("2,,8", false, u, err));
  EXPECT_FALSE(parseUnsignedAxis("2,x", false, u, err));
  EXPECT_FALSE(parseUnsignedAxis("-3", false, u, err));
  EXPECT_FALSE(parseUnsignedAxis("99999999999999999999", false, u, err));

  std::vector<double> f;
  EXPECT_TRUE(parseFractionAxis("0.05,0.25,0.5", f, err)) << err;
  EXPECT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f[1], 0.25);
  EXPECT_FALSE(parseFractionAxis("1.5", f, err));
  EXPECT_FALSE(parseFractionAxis("abc", f, err));
  // NaN fails both < 0 and > 1 comparisons; it must still be rejected.
  EXPECT_FALSE(parseFractionAxis("nan", f, err));
  EXPECT_FALSE(parseFractionAxis("inf", f, err));
}

// ---------------------------------------------------------------------------
// Pareto pruning
// ---------------------------------------------------------------------------

TEST(ParetoTest, DominationIsStrict) {
  Objectives a{100, 50, 1.0};
  Objectives b{200, 60, 1.5};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  // Equal vectors never dominate each other.
  EXPECT_FALSE(dominates(a, a));
  // Better on one axis, worse on another: neither dominates.
  Objectives c{50, 80, 1.0};
  EXPECT_FALSE(dominates(a, c));
  EXPECT_FALSE(dominates(c, a));
  // Equal but for one better axis: dominates.
  Objectives d{100, 50, 0.9};
  EXPECT_TRUE(dominates(d, a));
}

TEST(ParetoTest, FrontierPrunesDominatedPoints) {
  // Hand-built set: 0 and 3 trade cycles vs area, 1 is dominated by 0,
  // 4 is dominated by 3, 2 trades power.
  std::vector<Objectives> pts = {
      {100, 50, 1.0},  // frontier
      {150, 60, 1.2},  // dominated by 0
      {120, 55, 0.5},  // frontier (best power)
      {80, 90, 1.1},   // frontier (best cycles)
      {90, 95, 1.2},   // dominated by 3
  };
  EXPECT_EQ(paretoFrontier(pts), (std::vector<size_t>{0, 2, 3}));
}

TEST(ParetoTest, DuplicateOptimaAllStayOnFrontier) {
  std::vector<Objectives> pts = {{10, 10, 1.0}, {10, 10, 1.0}, {20, 20, 2.0}};
  EXPECT_EQ(paretoFrontier(pts), (std::vector<size_t>{0, 1}));
}

TEST(ParetoTest, EmptyAndSingleton) {
  EXPECT_TRUE(paretoFrontier({}).empty());
  EXPECT_EQ(paretoFrontier({{1, 1, 1.0}}), (std::vector<size_t>{0}));
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

TEST(PoolTest, RunsEveryIndexExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 7u}) {
    std::vector<std::atomic<int>> hits(23);
    runIndexedTasks(jobs, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
  runIndexedTasks(4, 0, [&](size_t) { FAIL() << "no tasks to run"; });
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

// Small but partitionable workload: two dependent loops over a global.
const char* kProgram =
    "int data[48];\n"
    "int main(void) {\n"
    "  unsigned x = 12345u;\n"
    "  for (int i = 0; i < 48; i++) {\n"
    "    x = x * 1664525u + 1013904223u;\n"
    "    data[i] = (int)(x >> 24);\n"
    "  }\n"
    "  int sum = 0;\n"
    "  for (int i = 0; i < 48; i++) sum += data[i] ^ (i << 2);\n"
    "  return sum;\n"
    "}\n";

ExploreRequest smallRequest() {
  ExploreRequest req;
  req.name = "unit";
  req.source = kProgram;
  req.space.partitions = {0, 2};
  req.space.queueCapacities = {2, 8};
  return req;
}

TEST(ExplorerTest, JobCountNeverChangesTheReport) {
  ExploreRequest req = smallRequest();
  ExploreResult serial = explore(req, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_EQ(serial.points.size(), 4u);
  for (unsigned jobs : {2u, 3u, 8u}) {
    ExploreResult parallel = explore(req, jobs);
    // The strongest form: the emitted documents are byte-identical.
    EXPECT_EQ(exploreToJson({serial}), exploreToJson({parallel})) << "jobs=" << jobs;
    EXPECT_EQ(exploreToCsv({serial}), exploreToCsv({parallel})) << "jobs=" << jobs;
  }
}

// Larger than the default 4 MiB simulated memory: explored under an 8 MiB
// ceiling, the group's reused decode must be laid out under that ceiling.
const char* kBigGlobalProgram =
    "int big[1400000];\n"
    "int main(void) {\n"
    "  int s = 0;\n"
    "  for (int i = 0; i < 64; i++) big[i * 1000] = i * 3;\n"
    "  for (int i = 0; i < 64; i++) s += big[i * 1000] ^ i;\n"
    "  return s;\n"
    "}\n";

/// Report JSON without the stage wall times, the only nondeterministic
/// fields.
std::string withoutWallTimes(BenchmarkReport rep) {
  rep.stages = StageTimes{};
  return reportToJson(rep);
}

TEST(ExplorerTest, ArtifactReuseMatchesFullDriverRun) {
  // Non-anchor points (the second queue capacity inside each group) must be
  // exactly what an independent single-point exploration (full runBenchmark
  // path) produces.
  ExploreRequest big;
  big.name = "big";
  big.source = kBigGlobalProgram;
  big.limits.memLimitBytes = 8u << 20;
  big.space.queueCapacities = {8, 4};
  for (const ExploreRequest& req : {smallRequest(), big}) {
    ExploreResult res = explore(req, 1);
    ASSERT_TRUE(res.ok) << req.name << ": " << res.error;
    for (size_t i = 1; i < res.points.size(); i += 2) {  // the second point of each group
      ExploreRequest one = req;
      one.space.partitions = {res.points[i].point.dswp.numPartitions};
      one.space.queueCapacities = {res.points[i].point.sim.queueCapacity};
      ExploreResult single = explore(one, 1);
      ASSERT_TRUE(single.ok) << req.name << ": " << single.error;
      EXPECT_EQ(withoutWallTimes(res.points[i].report), withoutWallTimes(single.points[0].report))
          << req.name << " point " << i;
      EXPECT_EQ(res.points[i].objectives.area, single.points[0].objectives.area)
          << req.name << " point " << i;
    }
  }
}

TEST(ExplorerTest, FrontierIsConsistentAndNonEmpty) {
  ExploreResult res = explore(smallRequest(), 2);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_FALSE(res.frontier.empty());
  std::set<size_t> frontier(res.frontier.begin(), res.frontier.end());
  // onFrontier flags agree with the index list.
  for (const auto& p : res.points)
    EXPECT_EQ(p.onFrontier, frontier.count(p.point.index) > 0) << p.point.index;
  // No frontier point dominates another; every non-frontier point is
  // dominated by some frontier point.
  for (size_t i : res.frontier)
    for (size_t j : res.frontier)
      if (i != j)
        EXPECT_FALSE(dominates(res.points[i].objectives, res.points[j].objectives));
  for (const auto& p : res.points) {
    if (p.onFrontier) continue;
    bool dominated = false;
    for (size_t i : res.frontier)
      dominated = dominated || dominates(res.points[i].objectives, p.objectives);
    EXPECT_TRUE(dominated) << p.point.index;
  }
}

TEST(ExplorerTest, InvalidSpaceReportsError) {
  ExploreRequest req = smallRequest();
  req.space.queueCapacities = {0};
  ExploreResult res = explore(req, 1);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
  EXPECT_TRUE(res.points.empty());
}

TEST(ExplorerTest, CompileFailurePropagatesPerPoint) {
  ExploreRequest req;
  req.name = "broken";
  req.source = "int main( {";
  req.space.queueCapacities = {2, 8};
  ExploreResult res = explore(req, 1);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.points.size(), 2u);
  for (const auto& p : res.points) {
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("compile failed"), std::string::npos) << p.error;
  }
  EXPECT_TRUE(res.frontier.empty());
}

TEST(ExplorerTest, VerifyFailurePrunesTheWholeCompileGroup) {
  // A verification failure depends only on the compile-side knobs, so the
  // anchor's rejection must be copied to every sim point of its group
  // (fail-fast pruning: no simulation time is spent on configurations the
  // verifier already proved broken).
  ExploreRequest req;
  req.name = "unseeded";
  req.source =
      "int acc[8];\n"
      "int f(int s) {\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
      "  for (int i = 0; i < 8; i++) { t ^= acc[i] << (i & 3); }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";
  req.inlineThreshold = 0;  // keep f out-of-line so it gets an overlap guard
  req.space.partitions = {2};
  req.space.queueCapacities = {2, 8, 32};
  req.unseedSemaphores = true;
  ExploreResult res = explore(req, 1);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.points.size(), 3u);
  for (const auto& p : res.points) {
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.report.failureKind, FailureKind::Verify) << p.point.index;
    EXPECT_NE(p.error.find("partition verification failed"), std::string::npos) << p.error;
  }
  EXPECT_TRUE(res.frontier.empty());
}

TEST(ExplorerTest, ResourceBreachPrunesTheWholeCompileGroup) {
  // A resource breach on the compile side (here: the golden execution's
  // memory ceiling, from ExploreRequest::limits) is shared by every sim
  // point of the group, exactly like a verification failure: the anchor's
  // rejection is copied, no per-point simulation runs, and the failure
  // kind survives as Resource so twill-explore can exit 5.
  ExploreRequest req;
  req.name = "capped";
  req.source = "int big[300000];\nint main(void) { big[7] = 1; return big[7]; }\n";
  req.limits.memLimitBytes = 1u << 20;  // 1 MiB ceiling; big[] needs ~1.2 MB
  req.space.partitions = {2};
  req.space.queueCapacities = {2, 8, 32};
  ExploreResult res = explore(req, 1);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.points.size(), 3u);
  for (const auto& p : res.points) {
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.report.failureKind, FailureKind::Resource) << p.point.index;
    EXPECT_FALSE(p.report.twillSimFailure) << p.point.index;
    EXPECT_NE(p.error.find("resource"), std::string::npos) << p.error;
  }
  EXPECT_TRUE(res.frontier.empty());
}

TEST(ExplorerTest, CsvHasHeaderAndOneRowPerPoint) {
  ExploreResult res = explore(smallRequest(), 1);
  ASSERT_TRUE(res.ok);
  std::string csv = exploreToCsv({res});
  size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + res.points.size());
  EXPECT_EQ(csv.compare(0, 6, "kernel"), 0);
  EXPECT_NE(csv.find("\nunit,0,"), std::string::npos);
}

}  // namespace
