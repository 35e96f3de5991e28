// Driver tests: the flow-selection options, report integrity, and error
// propagation of the public runBenchmark() entry point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/frontend/lower.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/verify/partition_verifier.h"

namespace twill {
namespace {

const char* kTinyProgram =
    "int a[16];"
    "int main() { int s = 0;"
    "for (int i = 0; i < 16; i++) a[i] = i * 11;"
    "for (int i = 0; i < 16; i++) s += a[i] >> 1;"
    "return s; }";

TEST(DriverTest, AllFlowsProduceConsistentReport) {
  BenchmarkReport r = runBenchmark("tiny", kTinyProgram);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.name, "tiny");
  EXPECT_EQ(r.sw.result, r.expected);
  EXPECT_EQ(r.hw.result, r.expected);
  EXPECT_EQ(r.twill.result, r.expected);
  EXPECT_GT(r.sw.cycles, 0u);
  EXPECT_GT(r.hw.cycles, 0u);
  EXPECT_GT(r.twill.cycles, 0u);
  // Speedup helpers must be consistent with the raw cycles.
  EXPECT_DOUBLE_EQ(r.speedupHWvsSW(),
                   static_cast<double>(r.sw.cycles) / static_cast<double>(r.hw.cycles));
  EXPECT_DOUBLE_EQ(r.speedupTwillvsHW(),
                   static_cast<double>(r.hw.cycles) / static_cast<double>(r.twill.cycles));
}

TEST(DriverTest, SkippingFlowsLeavesThemEmpty) {
  DriverOptions opts;
  opts.runPureSW = false;
  opts.runPureHW = false;
  BenchmarkReport r = runBenchmark("twill-only", kTinyProgram, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.sw.cycles, 0u);
  EXPECT_EQ(r.hw.cycles, 0u);
  EXPECT_GT(r.twill.cycles, 0u);
  EXPECT_GT(r.queues, 0u);
}

TEST(DriverTest, BaselinesOnlySkipExtraction) {
  DriverOptions opts;
  opts.runTwill = false;
  BenchmarkReport r = runBenchmark("baselines", kTinyProgram, opts);
  // Without the Twill flow, the report carries only the baselines.
  EXPECT_GT(r.sw.cycles, 0u);
  EXPECT_GT(r.hw.cycles, 0u);
  EXPECT_EQ(r.twill.cycles, 0u);
  EXPECT_EQ(r.queues, 0u);
}

TEST(DriverTest, DswpOptionsFlowThrough) {
  DriverOptions a;
  a.dswp.numPartitions = 2;
  DriverOptions b;
  b.dswp.numPartitions = 6;
  BenchmarkReport ra = runBenchmark("k2", kTinyProgram, a);
  BenchmarkReport rb = runBenchmark("k6", kTinyProgram, b);
  ASSERT_TRUE(ra.ok && rb.ok) << ra.error << rb.error;
  // More partitions -> at least as many threads and queues.
  EXPECT_LE(ra.hwThreads + ra.swThreads, rb.hwThreads + rb.swThreads);
  EXPECT_LE(ra.queues, rb.queues);
  // Results agree regardless.
  EXPECT_EQ(ra.expected, rb.expected);
  EXPECT_EQ(ra.twill.result, rb.twill.result);
}

TEST(DriverTest, SimOptionsFlowThrough) {
  DriverOptions slowQueues;
  slowQueues.sim.queueLatency = 64;
  BenchmarkReport fast = runBenchmark("fastq", kTinyProgram);
  BenchmarkReport slow = runBenchmark("slowq", kTinyProgram, slowQueues);
  ASSERT_TRUE(fast.ok && slow.ok);
  EXPECT_GE(slow.twill.cycles, fast.twill.cycles);
  EXPECT_EQ(slow.twill.result, fast.twill.result);
}

TEST(DriverTest, CompileErrorsAreReported) {
  BenchmarkReport r = runBenchmark("bad", "int main( { return 0; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("compile failed"), std::string::npos);
}

TEST(DriverTest, SemanticErrorsAreReported) {
  BenchmarkReport r = runBenchmark("bad2", "int main() { return f(3); }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("undeclared"), std::string::npos);
}

TEST(DriverTest, UnsupportedConstructsAreRejectedNotMiscompiled) {
  // Recursion is outside the input subset (§3.2.1 of the thesis); the
  // interpreter traps it before any flow runs, surfacing a clean error.
  BenchmarkReport r = runBenchmark(
      "rec", "int fac(int n) { if (n <= 1) return 1; return n * fac(n - 1); }"
             "int main() { return fac(5); }",
      DriverOptions{});
  // Either the inliner flattened it away (depth-bounded) or an error is
  // reported — what must never happen is a wrong silent result.
  if (r.ok) EXPECT_EQ(r.expected, 120u);
}

TEST(DriverTest, VoidMainRejected) {
  BenchmarkReport r = runBenchmark("voidmain", "void main() { }");
  // void main returns no checksum; the flows still run and agree on 0, or
  // an error is reported. Again: no silent divergence.
  if (r.ok) {
    EXPECT_EQ(r.sw.result, r.expected);
    EXPECT_EQ(r.twill.result, r.expected);
  }
}

// --- resimulateTwill: the one re-simulation path ---------------------------

/// Report JSON without the stage wall times, the only nondeterministic
/// fields.
std::string withoutWallTimes(BenchmarkReport rep) {
  rep.stages = StageTimes{};
  return reportToJson(rep);
}

class ResimulateTwillTest : public ::testing::TestWithParam<std::string> {};

// Metamorphic: re-simulating a kept anchor under changed Twill-only sim
// knobs yields the report a full runBenchmark under those knobs produces.
TEST_P(ResimulateTwillTest, EqualsAFullRunUnderTheNewSimKnobs) {
  const KernelInfo* k = findKernel(GetParam());
  ASSERT_NE(k, nullptr);
  DriverOptions anchorOpts;
  anchorOpts.keepTwillArtifacts = true;
  const BenchmarkReport anchor = runBenchmark(k->name, k->source, anchorOpts);
  ASSERT_TRUE(anchor.ok) << anchor.error;
  ASSERT_TRUE(anchor.twillArtifacts && anchor.twillArtifacts->program);

  DriverOptions capacity, latency, processors;
  capacity.sim.queueCapacity = 2;
  latency.sim.queueLatency = 8;
  processors.sim.numProcessors = 2;
  for (const DriverOptions& opts : {capacity, latency, processors}) {
    const BenchmarkReport full = runBenchmark(k->name, k->source, opts);
    EXPECT_EQ(withoutWallTimes(resimulateTwill(anchor, opts)), withoutWallTimes(full))
        << "capacity " << opts.sim.queueCapacity << ", latency " << opts.sim.queueLatency
        << ", processors " << opts.sim.numProcessors;
  }
}

std::vector<std::string> kernelNames() {
  std::vector<std::string> names;
  for (const KernelInfo& k : chstoneKernels()) names.push_back(k.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Chstone, ResimulateTwillTest, ::testing::ValuesIn(kernelNames()),
                         [](const auto& info) { return info.param; });

// --- Pure flows beside the Twill flow ---------------------------------------

/// Every SimOutcome field, for whole-outcome equality in one assertion.
std::string outcomeFields(const SimOutcome& o) {
  return "ok=" + std::to_string(o.ok) + " breach=" + std::to_string(o.resourceBreach) +
         " msg=" + o.message + " result=" + std::to_string(o.result) +
         " cycles=" + std::to_string(o.cycles) + " bus=" + std::to_string(o.busMessages) +
         " membus=" + std::to_string(o.memBusMessages) + " sw=" + std::to_string(o.retiredSW) +
         " hw=" + std::to_string(o.retiredHW) + " cs=" + std::to_string(o.contextSwitches) +
         " qops=" + std::to_string(o.queueOps) + " cpu=" + std::to_string(o.cpuBusy) +
         " hwbusy=" + std::to_string(o.hwBusy);
}

std::unique_ptr<Module> compileKernel(const KernelInfo& k) {
  auto m = std::make_unique<Module>();
  DiagEngine diag;
  EXPECT_TRUE(compileC(k.source, *m, diag)) << diag.str();
  runDefaultPipeline(*m);
  return m;
}

class PureFlowTest : public ::testing::TestWithParam<std::string> {};

// runBenchmark extracts, verifies and simulates the module while the
// prepared pure flows run on another thread, so a prepared run must not
// read the IR. Here the module is extracted and verified, then destroyed
// with its schedules, before the prepared runs start (under ASan any IR
// read is a use-after-free); their outcomes must still equal fresh runs.
TEST_P(PureFlowTest, PreparedRunsReadNoIr) {
  const KernelInfo* k = findKernel(GetParam());
  ASSERT_NE(k, nullptr);
  std::unique_ptr<Module> m = compileKernel(*k);
  auto schedules = std::make_unique<ScheduleMap>(scheduleModule(*m));
  PreparedPureRun sw = PreparedPureRun::prepare(*m, nullptr, SimConfig{});
  PreparedPureRun hw = PreparedPureRun::prepare(*m, schedules.get(), SimConfig{});
  DswpResult dswp = runDswp(*m, DswpConfig{});
  DiagEngine vd;
  EXPECT_TRUE(verifyModule(*m, vd)) << vd.str();
  EXPECT_TRUE(verifyPartition(*m, dswp, vd)) << vd.str();
  dswp = DswpResult{};
  m.reset();
  schedules.reset();
  const SimOutcome swOut = sw.run();
  const SimOutcome hwOut = hw.run();

  std::unique_ptr<Module> fresh = compileKernel(*k);
  const ScheduleMap freshSchedules = scheduleModule(*fresh);
  ASSERT_TRUE(swOut.ok) << swOut.message;
  ASSERT_TRUE(hwOut.ok) << hwOut.message;
  EXPECT_EQ(outcomeFields(swOut), outcomeFields(simulatePureSW(*fresh)));
  EXPECT_EQ(outcomeFields(hwOut), outcomeFields(simulatePureHW(*fresh, freshSchedules)));
}

// Metamorphic pair: with a sim trace attached the pure flows run on the
// calling thread before extraction; without one they run on a helper thread
// beside the Twill flow. The report is the same either way.
TEST_P(PureFlowTest, TraceOnAndOffGiveTheSameReport) {
  const KernelInfo* k = findKernel(GetParam());
  ASSERT_NE(k, nullptr);
  const BenchmarkReport untraced = runBenchmark(k->name, k->source);
  ASSERT_TRUE(untraced.ok) << untraced.error;
  TraceRecorder rec;
  DriverOptions traced;
  traced.sim.trace = &rec;
  EXPECT_EQ(withoutWallTimes(runBenchmark(k->name, k->source, traced)),
            withoutWallTimes(untraced));
  const std::string trace = rec.toJson();
  EXPECT_NE(trace.find("pure-SW"), std::string::npos);
  EXPECT_NE(trace.find("pure-HW"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Chstone, PureFlowTest, ::testing::ValuesIn(kernelNames()),
                         [](const auto& info) { return info.param; });

// A failed pure flow ends the report before any Twill-side field is set,
// although the Twill flow ran beside it to completion.
TEST(DriverTest, FailedPureFlowCarriesNoTwillFields) {
  const BenchmarkReport clean = runBenchmark("tiny", kTinyProgram);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_GT(clean.sw.cycles, clean.twill.cycles);
  DriverOptions opts;
  opts.sim.maxCycles = clean.sw.cycles - 1;
  const BenchmarkReport r = runBenchmark("tiny", kTinyProgram, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "pure-SW simulation failed: cycle limit exceeded");
  EXPECT_FALSE(r.twill.ok);
  EXPECT_EQ(r.twill.cycles, 0u);
  EXPECT_EQ(r.hw.cycles, 0u);
  EXPECT_EQ(r.queues, 0u);
  EXPECT_EQ(r.hwThreads + r.swThreads, 0u);
  EXPECT_EQ(r.areas.twillTotal.luts, 0u);
}

TEST(DriverTest, ResimulateWithoutArtifactsReturnsTheAnchor) {
  const BenchmarkReport anchor = runBenchmark("tiny", kTinyProgram);
  ASSERT_TRUE(anchor.ok) << anchor.error;
  EXPECT_EQ(anchor.twillArtifacts, nullptr);
  DriverOptions opts;
  opts.sim.queueCapacity = 2;
  EXPECT_EQ(reportToJson(resimulateTwill(anchor, opts)), reportToJson(anchor));
}

}  // namespace
}  // namespace twill
