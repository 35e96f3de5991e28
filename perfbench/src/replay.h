// Layer-by-layer replay of one report, for the traced run.
//
// replayReport() calls the same public entry points runBenchmark() calls
// (src/driver/driver.cpp), in the same order and with the same options, and
// wraps each call in a span named after its layer:
//
//   frontend.compile   compileC
//   transforms.passes  runDefaultPipeline
//   ir.verify          verifyModule (after passes and after DSWP)
//   ir.golden          Interp + runChecked (the golden run)
//   sim.sw / sim.hw    simulatePureSW / simulatePureHW
//   hls.schedule       both scheduleModule calls
//   dswp.extract       runDswp (PDG included)
//   verify.partition   verifyPartition
//   exec.decode        SimProgram + DecodedProgram::get over main and the
//                      DSWP thread roots (callees decode with them)
//   sim.twill          simulateTwill on that SimProgram
//
// matchesDriver() then insists the replay computed what the driver did, so
// the replay cannot drift away from runBenchmark unnoticed.
#pragma once

#include <memory>
#include <string>

#include "perfbench/src/spans.h"
#include "src/driver/driver.h"

namespace perfbench {

struct ReplayResult {
  bool ok = false;
  std::string error;
  uint32_t expected = 0;  // golden checksum
  twill::SimOutcome sw, hw, twill;
  unsigned queues = 0, semaphores = 0, hwThreads = 0;
  uint64_t frontendInsts = 0;  // IR instructions after compileC
  uint64_t passesInsts = 0;    // IR instructions after runDefaultPipeline
  // The extracted module and its decode, kept for re-simulation.
  std::unique_ptr<twill::Module> module;
  twill::DswpResult dswp;
  twill::ScheduleMap schedules;
  std::unique_ptr<twill::SimProgram> prog;
};

/// Replays runBenchmark(name, source, opts) layer by layer. Only the
/// default flow set is supported (all three flows, partition verifier on,
/// no verify-only or debug hooks); anything else fails the replay.
ReplayResult replayReport(const std::string& source, const twill::DriverOptions& opts,
                          SpanRecorder& rec, uint64_t op);

/// The SimProgram + decode step alone (the explorer's per-group decode).
std::unique_ptr<twill::SimProgram> decodeForSim(twill::Module& m, const twill::DswpResult& dswp,
                                                const twill::ScheduleMap& schedules);

/// Replay == driver: checksum, per-flow result and cycles, DSWP counts.
bool matchesDriver(const ReplayResult& r, const twill::BenchmarkReport& rep, std::string& why);

/// Same for one re-simulated point against its report's Twill outcome.
bool sameTwillOutcome(const twill::SimOutcome& replayed, const twill::BenchmarkReport& rep,
                      std::string& why);

}  // namespace perfbench
