#include "perfbench/src/replay.h"

#include "src/exec/decoded.h"
#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/verify/partition_verifier.h"

namespace perfbench {

using namespace twill;

std::unique_ptr<SimProgram> decodeForSim(Module& m, const DswpResult& dswp,
                                         const ScheduleMap& schedules) {
  auto prog = std::make_unique<SimProgram>(m, schedules);
  if (prog->prog) {
    if (Function* main = m.findFunction("main")) prog->prog->get(main);
    for (const DswpThread& t : dswp.threads) prog->prog->get(t.fn);
  }
  return prog;
}

ReplayResult replayReport(const std::string& source, const DriverOptions& opts, SpanRecorder& rec,
                          uint64_t op) {
  ReplayResult r;
  if (!opts.runPureSW || !opts.runPureHW || !opts.runTwill || !opts.verifyPartition ||
      opts.verifyOnly || opts.unseedSemaphores) {
    r.error = "replay supports the default flow set only";
    return r;
  }
  SimConfig sim = opts.sim;
  sim.memoryBytes = opts.limits.memLimitBytes;
  sim.wallBudgetMs = opts.limits.stageTimeoutMs;

  r.module = std::make_unique<Module>();
  Module& m = *r.module;
  {
    SpanRecorder::Scope s(&rec, "frontend.compile", op);
    DiagEngine diag;
    CompileTimes ct;
    if (!compileC(source, m, diag, &ct, &opts.limits)) {
      r.error = "compile failed:\n" + diag.str();
      return r;
    }
  }
  r.frontendInsts = m.instructionCount();
  Function* main = m.findFunction("main");
  if (!main) {
    r.error = "no main";
    return r;
  }
  {
    SpanRecorder::Scope s(&rec, "transforms.passes", op);
    runDefaultPipeline(m, opts.inlineThreshold, opts.limits.maxIrInstructions);
  }
  r.passesInsts = m.instructionCount();
  {
    SpanRecorder::Scope s(&rec, "ir.verify", op);
    DiagEngine vd;
    if (!verifyModule(m, vd)) {
      r.error = "verification failed after optimization";
      return r;
    }
  }
  {
    SpanRecorder::Scope s(&rec, "ir.golden", op);
    Interp in(m, opts.limits.memLimitBytes);
    InterpOutcome golden =
        in.runChecked(main, {}, opts.limits.maxInterpSteps, opts.limits.stageTimeoutMs);
    if (!golden.ok) {
      r.error = "golden run failed: " + golden.message;
      return r;
    }
    r.expected = golden.result;
  }
  {
    SpanRecorder::Scope s(&rec, "sim.sw", op);
    r.sw = simulatePureSW(m, sim);
  }
  ScheduleMap base;
  {
    SpanRecorder::Scope s(&rec, "hls.schedule", op);
    base = scheduleModule(m, opts.hls);
  }
  {
    SpanRecorder::Scope s(&rec, "sim.hw", op);
    r.hw = simulatePureHW(m, base, sim);
  }
  {
    SpanRecorder::Scope s(&rec, "dswp.extract", op);
    r.dswp = runDswp(m, opts.dswp);
  }
  {
    SpanRecorder::Scope s(&rec, "ir.verify", op);
    DiagEngine vd;
    if (!verifyModule(m, vd)) {
      r.error = "verification failed after DSWP";
      return r;
    }
  }
  {
    SpanRecorder::Scope s(&rec, "verify.partition", op);
    DiagEngine vd;
    if (!verifyPartition(m, r.dswp, vd)) {
      r.error = "partition verification failed";
      return r;
    }
  }
  r.queues = r.dswp.totalQueues();
  r.semaphores = r.dswp.totalSemaphores();
  r.hwThreads = r.dswp.hwThreadCount();
  {
    SpanRecorder::Scope s(&rec, "hls.schedule", op);
    r.schedules = scheduleModule(m, opts.hls, base);
  }
  {
    SpanRecorder::Scope s(&rec, "exec.decode", op);
    r.prog = decodeForSim(m, r.dswp, r.schedules);
  }
  {
    SpanRecorder::Scope s(&rec, "sim.twill", op);
    r.twill = simulateTwill(m, r.dswp, sim, r.schedules, r.prog.get());
  }
  r.ok = r.sw.ok && r.hw.ok && r.twill.ok && r.sw.result == r.expected &&
         r.hw.result == r.expected && r.twill.result == r.expected;
  if (!r.ok) r.error = "a flow failed or mismatched the golden result";
  return r;
}

namespace {

bool sameFlow(const char* flow, const SimOutcome& a, const SimOutcome& b, std::string& why) {
  if (a.ok == b.ok && a.result == b.result && a.cycles == b.cycles) return true;
  why = std::string(flow) + ": replay cycles " + std::to_string(a.cycles) + " result " +
        std::to_string(a.result) + ", driver cycles " + std::to_string(b.cycles) + " result " +
        std::to_string(b.result);
  return false;
}

}  // namespace

bool sameTwillOutcome(const SimOutcome& replayed, const BenchmarkReport& rep, std::string& why) {
  return sameFlow("twill", replayed, rep.twill, why);
}

bool matchesDriver(const ReplayResult& r, const BenchmarkReport& rep, std::string& why) {
  if (!r.ok || !rep.ok) {
    why = "replay ok=" + std::to_string(r.ok) + " (" + r.error + "), driver ok=" +
          std::to_string(rep.ok) + " (" + rep.error + ")";
    return false;
  }
  if (r.expected != rep.expected) {
    why = "golden checksum differs";
    return false;
  }
  if (r.queues != rep.queues || r.semaphores != rep.semaphores || r.hwThreads != rep.hwThreads) {
    why = "DSWP counts differ";
    return false;
  }
  return sameFlow("sw", r.sw, rep.sw, why) && sameFlow("hw", r.hw, rep.hw, why) &&
         sameFlow("twill", r.twill, rep.twill, why);
}

}  // namespace perfbench
