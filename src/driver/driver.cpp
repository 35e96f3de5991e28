#include "src/driver/driver.h"

#include <pthread.h>
#include <sched.h>

#include <optional>
#include <unordered_set>

#include "src/frontend/lower.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/support/json.h"
#include "src/verify/partition_verifier.h"

namespace twill {

// The driver maps `ResourceLimits::memLimitBytes` straight onto the
// simulators' default memory; the default ceiling must match or default-
// configured runs would silently change size.
static_assert(ResourceLimits{}.memLimitBytes == Memory::kDefaultSize,
              "ResourceLimits default memory ceiling must equal Memory::kDefaultSize");

namespace {

/// True (and fills error/kind) when `ms` breaches the per-stage wall budget.
/// The compile stages are also bounded structurally (token/AST/IR caps), so
/// this is a post-hoc classification, not a mid-stage interrupt.
bool stageBreach(const ResourceLimits& limits, const char* stage, double ms, std::string& error,
                 FailureKind& kind) {
  if (limits.stageTimeoutMs <= 0 || ms <= limits.stageTimeoutMs) return false;
  error = std::string("wall-clock budget exceeded in ") + stage + " (" + std::to_string(ms) +
          " ms, budget " + std::to_string(limits.stageTimeoutMs) + " ms)";
  kind = FailureKind::Resource;
  return true;
}

std::unique_ptr<Module> compileAndOptimize(const std::string& source, unsigned inlineThreshold,
                                           const ResourceLimits& limits, std::string& error,
                                           StageTimes& stages, FailureKind& kind) {
  auto m = std::make_unique<Module>();
  DiagEngine diag;
  CompileTimes ct;
  if (!compileC(source, *m, diag, &ct, &limits)) {
    error = "compile failed:\n" + diag.str();
    kind = diag.hasResourceError() ? FailureKind::Resource : FailureKind::Compile;
    return nullptr;
  }
  stages.parseMs = ct.parseMs;
  stages.lowerMs = ct.lowerMs;
  if (stageBreach(limits, "parse", ct.parseMs, error, kind) ||
      stageBreach(limits, "lower", ct.lowerMs, error, kind))
    return nullptr;
  if (!m->findFunction("main")) {
    // Every downstream stage (golden run, DSWP, the flows) starts from
    // main; a module without one is a source error, not a crash.
    error = "compile failed:\n<source>:1:1: error: no 'main' function defined";
    kind = FailureKind::Compile;
    return nullptr;
  }
  StageSpan passesSpan("passes");
  runDefaultPipeline(*m, inlineThreshold, limits.maxIrInstructions);
  stages.passesMs = passesSpan.closeMs();
  if (stageBreach(limits, "passes", stages.passesMs, error, kind)) return nullptr;
  DiagEngine vd;
  if (!verifyModule(*m, vd)) {
    error = "verification failed after optimization:\n" + vd.str();
    kind = FailureKind::Verify;
    return nullptr;
  }
  return m;
}

/// Functions that execute in the hardware domain: HW thread roots plus
/// everything they can call (callee masters run inside the calling thread).
std::unordered_set<const Function*> hwFunctions(const DswpResult& dswp) {
  std::unordered_set<const Function*> hw;
  // Iterative worklist: a deep call chain must not overflow the native stack.
  std::vector<Function*> work;
  for (const auto& t : dswp.threads)
    if (t.isHW && hw.insert(t.fn).second) work.push_back(t.fn);
  while (!work.empty()) {
    Function* f = work.back();
    work.pop_back();
    for (auto& bb : f->blocks())
      for (auto& inst : *bb)
        if (inst->op() == Opcode::Call && hw.insert(inst->callee()).second)
          work.push_back(inst->callee());
  }
  return hw;
}

/// The simulators' config for a run: the caller's sim knobs under the
/// resource ceilings (see the DriverOptions::limits doc). When the caller
/// did not plumb a sim recorder explicitly, the thread's installed one
/// (twillc --trace, twilld --trace-dir) is inherited, so one flag captures
/// compile and sim in a single file.
SimConfig simConfigFor(const DriverOptions& opts) {
  SimConfig sim = opts.sim;
  sim.memoryBytes = opts.limits.memLimitBytes;
  sim.wallBudgetMs = opts.limits.stageTimeoutMs;
  if (!sim.trace) sim.trace = currentTrace();
  return sim;
}

/// Validates rep.twill against the golden checksum: on a failed simulation
/// or a result mismatch, sets ok=false with the canonical error string and
/// returns false. Shared by runBenchmark and resimulateTwill so both
/// classify a failing configuration identically.
bool acceptTwillOutcome(BenchmarkReport& rep) {
  if (!rep.twill.ok) {
    rep.ok = false;
    rep.twillSimFailure = true;
    rep.failureKind = rep.twill.resourceBreach ? FailureKind::Resource : FailureKind::Sim;
    rep.error = "twill simulation failed: " + rep.twill.message;
    return false;
  }
  if (rep.twill.result != rep.expected) {
    rep.ok = false;
    rep.twillSimFailure = true;
    rep.failureKind = FailureKind::Sim;
    rep.error = "twill result mismatch";
    return false;
  }
  rep.twillSimFailure = false;
  rep.failureKind = FailureKind::None;
  return true;
}

/// Computes the Fig. 6.1 power fields (powerSW/HW/Twill, normalized to pure
/// SW) from the flow outcomes, areas and thread counts on the report.
void computePower(BenchmarkReport& rep) {
  PowerInputs swIn;
  swIn.luts = PrimitiveAreas::kMicroblazeLuts;
  swIn.brams = PrimitiveAreas::kMicroblazeBrams;
  swIn.hasMicroblaze = true;
  swIn.totalCycles = rep.sw.cycles;
  swIn.cpuBusyCycles = rep.sw.cpuBusy;
  double pSW = estimatePower(swIn);

  PowerInputs hwIn;
  hwIn.luts = rep.areas.legup.luts;
  hwIn.dsps = rep.areas.legup.dsps;
  hwIn.brams = rep.areas.legup.brams;
  hwIn.totalCycles = rep.hw.cycles;
  hwIn.hwBusyCycles = rep.hw.hwBusy;
  double pHW = estimatePower(hwIn);

  PowerInputs twIn;
  twIn.luts = rep.areas.twillPlusMicroblaze.luts;
  twIn.dsps = rep.areas.twillPlusMicroblaze.dsps;
  twIn.brams = rep.areas.twillPlusMicroblaze.brams;
  twIn.hasMicroblaze = true;
  twIn.totalCycles = rep.twill.cycles;
  twIn.cpuBusyCycles = rep.twill.cpuBusy;
  twIn.hwBusyCycles = rep.twill.hwBusy;
  twIn.hwThreads = rep.hwThreads ? rep.hwThreads : 1;
  twIn.busMessages = rep.twill.busMessages + rep.twill.memBusMessages;
  double pTwill = estimatePower(twIn);

  rep.powerSW = 1.0;
  rep.powerHW = pSW > 0 ? pHW / pSW : 0;
  rep.powerTwill = pSW > 0 ? pTwill / pSW : 0;
}

AreaEstimate runtimeArea(const DswpResult& dswp, unsigned hwThreadCount) {
  AreaEstimate a;
  a.luts += static_cast<unsigned>(dswp.channels.size()) * PrimitiveAreas::kQueueLuts;
  a.dsps += static_cast<unsigned>(dswp.channels.size()) * PrimitiveAreas::kQueueDsps;
  a.luts += static_cast<unsigned>(dswp.semaphores.size()) * PrimitiveAreas::kSemaphoreLuts;
  a.luts += hwThreadCount * PrimitiveAreas::kHwInterfaceLuts;
  a.luts += PrimitiveAreas::kProcessorIfaceLuts;
  a.luts += PrimitiveAreas::kSchedulerLuts;
  a.dsps += PrimitiveAreas::kSchedulerDsps;
  a.luts += 2 * PrimitiveAreas::kBusArbiterLuts;
  return a;
}

/// Checks a pure flow's outcome ("pure-SW" / "pure-HW") against the golden
/// result: on a failed simulation or a mismatch, sets the report's failure
/// and returns false.
bool acceptPureOutcome(BenchmarkReport& rep, const SimOutcome& o, const char* flow) {
  if (!o.ok) {
    rep.error = std::string(flow) + " simulation failed: " + o.message;
    rep.failureKind = o.resourceBreach ? FailureKind::Resource : FailureKind::Sim;
    return false;
  }
  if (o.result != rep.expected) {
    rep.error = std::string(flow) + " result mismatch";
    rep.failureKind = FailureKind::Sim;
    return false;
  }
  return true;
}

/// Both pure flows, prepared before extraction rewrites the module so their
/// runs read no IR, and the helper thread that may run them. SW runs
/// first; once it fails HW is skipped, since the report stops there anyway.
/// Each flow's state, its simulated memory included, is released as soon
/// as the flow has run.
class PureRuns {
public:
  std::optional<PreparedPureRun> sw, hw;
  SimOutcome swOut, hwOut;

  explicit PureRuns(uint32_t expected) : expected_(expected) {}
  PureRuns(const PureRuns&) = delete;
  PureRuns& operator=(const PureRuns&) = delete;
  ~PureRuns() { join(); }

  /// Runs the prepared flows on a helper thread until join() when `beside`
  /// is set, and right here otherwise or when no thread can be created.
  void start(bool beside) {
    if (beside && (sw || hw)) {
      pthread_attr_t attr;
      pthread_attr_init(&attr);
#if defined(__linux__)
      // Keep the helper off the calling thread's CPU. A new thread can
      // start on its creator's CPU, and a helper that lives a millisecond
      // or two ends before load balancing moves it, so both halves of the
      // report would share one CPU. On a 4-vCPU VM, perfbench `report`
      // read 196 ops/s with this mask, 190 with a plain thread and 181 with
      // no helper (medians of 6 interleaved 40 s runs each; the mask was
      // ahead of the plain thread in 5 of the 6). The mask is set on the
      // attribute, before the thread runs: pthread_setaffinity_np on a
      // helper that has already exited applies to the caller (glibc 2.36).
      cpu_set_t cpus;
      const int here = sched_getcpu();
      if (here >= 0 && sched_getaffinity(0, sizeof cpus, &cpus) == 0 && CPU_ISSET(here, &cpus) &&
          CPU_COUNT(&cpus) > 1) {
        CPU_CLR(here, &cpus);
        pthread_attr_setaffinity_np(&attr, sizeof cpus, &cpus);
      }
#endif
      started_ = pthread_create(&helper_, &attr, &PureRuns::helperMain, this) == 0;
      pthread_attr_destroy(&attr);
      if (started_) return;
    }
    run();
  }

  void join() {
    if (started_) pthread_join(helper_, nullptr);
    started_ = false;
  }

  /// True once a flow is known to have failed: only after the runs ended
  /// here or were joined.
  bool failed() const { return !started_ && failed_; }

private:
  bool passed(const SimOutcome& o) const { return o.ok && o.result == expected_; }

  void run() {
    if (sw) {
      swOut = sw->run();
      sw.reset();
      if (!passed(swOut)) {
        failed_ = true;
        return;
      }
    }
    if (hw) {
      hwOut = hw->run();
      hw.reset();
      failed_ = !passed(hwOut);
    }
  }

  static void* helperMain(void* self) {
    static_cast<PureRuns*>(self)->run();
    return nullptr;
  }

  uint32_t expected_;
  bool failed_ = false;
  pthread_t helper_{};
  bool started_ = false;
};

/// Twill flow, first step: DSWP extraction of the module. False, with the
/// failure set on the report, when extraction breached its wall budget.
bool extractTwill(BenchmarkReport& rep, Module& m, const DriverOptions& opts, DswpResult& dswp) {
  StageSpan dswpSpan("dswp");
  dswp = runDswp(m, opts.dswp);
  rep.stages.pdgMs = dswp.pdgWallMs;
  // The pdg sub-spans are disjoint subintervals of the dswp span on the same
  // clock, so the subtraction cannot go negative.
  rep.stages.dswpMs = dswpSpan.closeMs() - dswp.pdgWallMs;
  return !stageBreach(opts.limits, "dswp", rep.stages.pdgMs + rep.stages.dswpMs, rep.error,
                      rep.failureKind);
}

/// Twill flow, the rest: both verifiers, scheduling, the co-sim and the
/// Twill areas; sets ok when all of it passed. It writes only Twill-side
/// fields and reads only `expected` of the report, so it can run while the
/// pure flows are still simulating.
void finishTwill(BenchmarkReport& rep, std::unique_ptr<Module> tm, DswpResult dswp,
                 const DriverOptions& opts, const SimConfig& sim,
                 const ScheduleMap& baseSchedules) {
  {
    DiagEngine vd;
    if (!verifyModule(*tm, vd)) {
      rep.error = "verification failed after DSWP:\n" + vd.str();
      rep.failureKind = FailureKind::Verify;
      return;
    }
  }
  if (opts.unseedSemaphores)
    for (auto& sem : dswp.semaphores) sem.initialCount = 0;
  if (opts.verifyPartition || opts.verifyOnly) {
    DiagEngine vd;
    if (!verifyPartition(*tm, dswp, vd)) {
      rep.error = "partition verification failed:\n" + vd.str();
      rep.failureKind = FailureKind::Verify;
      for (const auto& d : vd.all()) {
        const char* kind = d.kind == DiagKind::Error     ? "error"
                           : d.kind == DiagKind::Warning ? "warning"
                                                         : "note";
        rep.verifyDiagnostics.push_back(std::string(kind) + ": " + d.message);
      }
      return;
    }
  }
  rep.queues = dswp.totalQueues();
  rep.semaphores = dswp.totalSemaphores();
  rep.hwThreads = dswp.hwThreadCount();
  for (const auto& t : dswp.threads)
    if (!t.isHW) ++rep.swThreads;

  if (opts.verifyOnly) {
    rep.ok = true;  // compile + extraction + verification all clean
    return;
  }

  // Schedule cache: the baseline module was already scheduled, and DSWP
  // only adds master/slave functions and redirects call sites in the
  // survivors — their schedules are reused the way SimProgram shares
  // decodes, so each function is scheduled once per report, not per flow.
  auto art = std::make_shared<TwillArtifacts>();
  art->module = std::move(tm);
  art->dswp = std::move(dswp);
  StageSpan schedSpan("schedule");
  art->schedules = scheduleModule(*art->module, opts.hls, baseSchedules);
  rep.stages.scheduleMs += schedSpan.closeMs();
  // Kept artifacts carry their decode, laid out under this run's memory
  // ceiling; this run decodes through it so re-simulations reuse the work.
  if (opts.keepTwillArtifacts)
    art->program = std::make_unique<SimProgram>(*art->module, art->schedules, sim.memoryBytes);
  rep.twill = simulateTwill(*art->module, art->dswp, sim, art->schedules, art->program.get());
  if (!acceptTwillOutcome(rep)) return;

  // Areas (Table 6.2 columns).
  for (const Function* f : hwFunctions(art->dswp)) {
    auto it = art->schedules.find(f);
    if (it != art->schedules.end()) rep.areas.twillHwThreads += it->second.area;
  }
  rep.areas.twillTotal = rep.areas.twillHwThreads;
  rep.areas.twillTotal += runtimeArea(art->dswp, rep.hwThreads);
  rep.areas.twillPlusMicroblaze = rep.areas.twillTotal;
  rep.areas.twillPlusMicroblaze.luts += PrimitiveAreas::kMicroblazeLuts;
  rep.areas.twillPlusMicroblaze.brams += PrimitiveAreas::kMicroblazeBrams;

  if (opts.keepTwillArtifacts) rep.twillArtifacts = std::move(art);
  rep.ok = true;
}

}  // namespace

BenchmarkReport runBenchmark(const std::string& name, const std::string& source,
                             const DriverOptions& opts) {
  BenchmarkReport rep;
  rep.name = name;
  // --verify-only stops after extraction + verification; no flow runs.
  const bool verifyOnly = opts.verifyOnly;
  rep.ranSW = opts.runPureSW && !verifyOnly;
  rep.ranHW = opts.runPureHW && !verifyOnly;
  rep.ranTwill = opts.runTwill && !verifyOnly;

  const SimConfig sim = simConfigFor(opts);

  // --- Baseline module (pure SW, pure HW, golden reference) -----------------
  std::unique_ptr<Module> base = compileAndOptimize(source, opts.inlineThreshold, opts.limits,
                                                    rep.error, rep.stages, rep.failureKind);
  if (!base) return rep;
  if (!verifyOnly) {
    // Golden reference run under the same ceilings as everything else: a
    // program trap (OOB access, call-depth blowup) is a program error
    // (Sim); a breached step/wall budget or oversized layout is Resource.
    Interp in(*base, opts.limits.memLimitBytes);
    InterpOutcome golden = in.runChecked(base->findFunction("main"), {},
                                         opts.limits.maxInterpSteps, opts.limits.stageTimeoutMs);
    if (!golden.ok) {
      if (golden.resource) {
        rep.error = "golden execution exceeded resource limits: " + golden.message;
        rep.failureKind = FailureKind::Resource;
      } else {
        rep.error = "golden execution trapped: " + golden.message;
        rep.failureKind = FailureKind::Sim;
      }
      return rep;
    }
    rep.expected = golden.result;
  }

  // The base module's schedules drive the pure-HW flow and seed the Twill
  // flow's schedule cache. A breached budget is reported after the pure-SW
  // outcome, in the report's failure order.
  ScheduleMap baseSchedules;
  std::string scheduleError;
  FailureKind scheduleFailure = FailureKind::None;
  if (!verifyOnly) {
    StageSpan schedSpan("schedule");
    baseSchedules = scheduleModule(*base, opts.hls);
    rep.stages.scheduleMs += schedSpan.closeMs();
    stageBreach(opts.limits, "schedule", rep.stages.scheduleMs, scheduleError, scheduleFailure);
  }
  const bool scheduled = scheduleFailure == FailureKind::None;

  // After the golden run the pure flows share no work with the Twill flow.
  // They are prepared here and run on a helper thread while this thread
  // extracts, verifies and co-simulates. With no Twill flow to overlap, or
  // with a sim trace attached (so that one thread records the trace, in a
  // fixed event order), they run right here instead, and a pure failure
  // ends the report before extraction.
  PureRuns pure(rep.expected);
  AreaEstimate legup;
  if (rep.ranSW) pure.sw.emplace(PreparedPureRun::prepare(*base, nullptr, sim));
  if (rep.ranHW && scheduled) {
    for (auto& [fn, sched] : baseSchedules) legup += sched.area;
    legup.brams += bramBlocksForGlobals(*base);
    pure.hw.emplace(PreparedPureRun::prepare(*base, &baseSchedules, sim));
  }
  pure.start(/*beside=*/rep.ranTwill && !sim.trace);

  // --- Twill flow -------------------------------------------------------------
  // It fills its own copy of the report, adopted only once both pure flows
  // passed, so a report whose pure flow failed carries no Twill field. It
  // reuses the baseline module: the pure flows read it only while
  // preparing, so extracting from it is identical to recompiling the same
  // source — at half the compile cost per report.
  const bool runsTwill = opts.runTwill || verifyOnly;
  BenchmarkReport twillSide;
  if (runsTwill && scheduled && !pure.failed()) {
    twillSide = rep;
    std::unique_ptr<Module> tm = std::move(base);
    DswpResult dswp;
    if (extractTwill(twillSide, *tm, opts, dswp))
      finishTwill(twillSide, std::move(tm), std::move(dswp), opts, sim, baseSchedules);
  }
  pure.join();

  // The first failure, in the report's order: pure SW, base scheduling,
  // pure HW, then the Twill flow's own steps.
  if (rep.ranSW) {
    rep.sw = pure.swOut;
    if (!acceptPureOutcome(rep, rep.sw, "pure-SW")) return rep;
  }
  if (!scheduled) {
    rep.error = scheduleError;
    rep.failureKind = scheduleFailure;
    return rep;
  }
  if (rep.ranHW) {
    rep.hw = pure.hwOut;
    if (!acceptPureOutcome(rep, rep.hw, "pure-HW")) return rep;
    rep.areas.legup = legup;
  }
  if (!runsTwill) {
    rep.ok = true;  // SW/HW-only run: nothing failed
    return rep;
  }
  twillSide.sw = rep.sw;
  twillSide.hw = rep.hw;
  twillSide.areas.legup = rep.areas.legup;
  rep = std::move(twillSide);
  // Power (Fig. 6.1): normalized to pure SW.
  if (rep.ok && rep.ranSW && rep.ranHW) computePower(rep);
  return rep;
}

BenchmarkReport resimulateTwill(const BenchmarkReport& anchor, const DriverOptions& opts) {
  BenchmarkReport rep = anchor;
  if (!anchor.twillArtifacts) return rep;
  TwillArtifacts& art = *anchor.twillArtifacts;
  rep.twill =
      simulateTwill(*art.module, art.dswp, simConfigFor(opts), art.schedules, art.program.get());
  if (acceptTwillOutcome(rep) && rep.ranSW && rep.ranHW) computePower(rep);
  return rep;
}

const char* failureKindName(FailureKind k) {
  switch (k) {
    case FailureKind::Compile: return "compile";
    case FailureKind::Verify: return "verify";
    case FailureKind::Sim: return "sim";
    case FailureKind::Resource: return "resource";
    case FailureKind::None: break;
  }
  return "none";
}

namespace {

void emitOutcome(JsonWriter& w, const std::string& key, const SimOutcome& o, bool ran) {
  w.key(key);
  w.beginObject();
  w.field("ran", ran);
  w.field("ok", o.ok);
  w.field("result", static_cast<uint64_t>(o.result));
  w.field("cycles", o.cycles);
  w.field("retired_sw", o.retiredSW);
  w.field("retired_hw", o.retiredHW);
  w.field("bus_messages", o.busMessages);
  w.field("mem_bus_messages", o.memBusMessages);
  w.field("context_switches", o.contextSwitches);
  w.field("queue_ops", o.queueOps);
  w.field("cpu_busy", o.cpuBusy);
  w.field("hw_busy", o.hwBusy);
  w.endObject();
}

void emitArea(JsonWriter& w, const std::string& key, const AreaEstimate& a) {
  w.key(key);
  w.beginObject();
  w.field("luts", a.luts);
  w.field("dsps", a.dsps);
  w.field("brams", a.brams);
  w.endObject();
}

}  // namespace

void emitReport(JsonWriter& w, const BenchmarkReport& rep) {
  w.beginObject();
  // Versioned contract: external clients (twilld consumers, CI diff
  // tooling) dispatch on this before touching any other field. Bump only
  // with a documented migration; additions within v1 must be
  // backward-compatible.
  w.field("schema_version", kReportSchemaVersion);
  w.field("name", rep.name);
  w.field("ok", rep.ok);
  if (!rep.error.empty()) w.field("error", rep.error);
  // Failure classification and verifier findings appear only on failed
  // reports, so passing documents (the bench baseline) are byte-identical
  // to the pre-verifier format.
  if (rep.failureKind != FailureKind::None)
    w.field("failure_kind", failureKindName(rep.failureKind));
  if (!rep.verifyDiagnostics.empty()) {
    w.key("verify_diagnostics");
    w.beginArray();
    for (const auto& line : rep.verifyDiagnostics) w.value(line);
    w.endArray();
  }
  w.field("result", static_cast<uint64_t>(rep.expected));
  w.key("flows");
  w.beginObject();
  emitOutcome(w, "sw", rep.sw, rep.ranSW);
  emitOutcome(w, "hw", rep.hw, rep.ranHW);
  emitOutcome(w, "twill", rep.twill, rep.ranTwill);
  w.endObject();
  w.key("dswp");
  w.beginObject();
  w.field("queues", rep.queues);
  w.field("semaphores", rep.semaphores);
  w.field("hw_threads", rep.hwThreads);
  w.field("sw_threads", rep.swThreads);
  w.endObject();
  w.key("areas");
  w.beginObject();
  emitArea(w, "legup", rep.areas.legup);
  emitArea(w, "twill_hw_threads", rep.areas.twillHwThreads);
  emitArea(w, "twill_total", rep.areas.twillTotal);
  emitArea(w, "twill_plus_microblaze", rep.areas.twillPlusMicroblaze);
  w.endObject();
  w.key("power");
  w.beginObject();
  w.field("sw", rep.powerSW);
  w.field("hw", rep.powerHW);
  w.field("twill", rep.powerTwill);
  w.endObject();
  w.key("speedups");
  w.beginObject();
  w.field("hw_vs_sw", rep.speedupHWvsSW());
  w.field("twill_vs_sw", rep.speedupTwillvsSW());
  w.field("twill_vs_hw", rep.speedupTwillvsHW());
  w.endObject();
  // Compile-pipeline stage costs. The *_wall_ms suffix keeps the bench gate
  // value-agnostic about them (machine-dependent), like report_wall_ms.
  w.key("stages");
  w.beginObject();
  w.field("parse_wall_ms", rep.stages.parseMs);
  w.field("lower_wall_ms", rep.stages.lowerMs);
  w.field("passes_wall_ms", rep.stages.passesMs);
  w.field("pdg_wall_ms", rep.stages.pdgMs);
  w.field("dswp_wall_ms", rep.stages.dswpMs);
  w.field("schedule_wall_ms", rep.stages.scheduleMs);
  w.endObject();
  w.endObject();
}

std::string reportToJson(const BenchmarkReport& rep) {
  JsonWriter w;
  emitReport(w, rep);
  return w.str();
}

}  // namespace twill
