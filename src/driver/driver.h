// End-to-end driver: the three flows the thesis evaluates, from one C
// source string.
//
//  * Pure SW   — compile, optimize, run on the Microblaze model.
//  * Pure HW   — compile, optimize, LegUp-style HLS of the whole program,
//                run as a single hardware FSM with its own block memories.
//  * Twill     — compile, optimize, DSWP-extract, HW/SW split, HLS the
//                hardware threads, co-simulate on the runtime fabric.
//
// Produces the measurements every table/figure in Ch. 6 needs: cycles,
// LUT/DSP/BRAM areas (LegUp vs Twill HW threads vs Twill total vs Twill +
// Microblaze, as in Table 6.2), queue/semaphore/HW-thread counts (Table
// 6.1) and normalized power (Fig. 6.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/dswp/extract.h"
#include "src/model/power.h"
#include "src/sim/system.h"
#include "src/support/diag.h"
#include "src/support/limits.h"
#include "src/transforms/passes.h"

namespace twill {

struct DriverOptions {
  unsigned inlineThreshold = 100;
  DswpConfig dswp;
  SimConfig sim;
  HlsConstraints hls;
  /// Resource ceilings for untrusted input (see src/support/limits.h). The
  /// defaults are generous enough that no CHStone kernel touches them. The
  /// driver derives the simulators' memory ceiling and wall budget from
  /// here (`limits.memLimitBytes` / `limits.stageTimeoutMs` override
  /// `sim.memoryBytes` / `sim.wallBudgetMs`), so callers set limits in one
  /// place and every stage observes them.
  ResourceLimits limits;
  bool runPureSW = true;
  bool runPureHW = true;
  bool runTwill = true;
  /// Keep the extracted module, DSWP result, schedules and their decode on
  /// the report so callers (bench sweeps, the explorer, twilld's artifact
  /// cache) can re-simulate it with resimulateTwill without re-compiling.
  bool keepTwillArtifacts = false;
  /// Run the static partition verifier (src/verify) over the extracted
  /// module before spending any cycles simulating it. Failures are
  /// classified FailureKind::Verify, like compile failures a property of the
  /// source + compile knobs, never of the sim knobs.
  bool verifyPartition = true;
  /// Stop after extraction + partition verification: no scheduling, no
  /// simulation, no pure flows (twillc --verify-only).
  bool verifyOnly = false;
  /// Debug hook: zero every semaphore's initial count after extraction,
  /// re-introducing the historical unseeded-initial-count bug shape that
  /// seedSemaphores() fixed, so the verification failure path can be
  /// exercised end to end from the CLI and tests.
  bool unseedSemaphores = false;
};

/// Coarse classification of a failed run. Pinned to the twillc/twill-explore
/// exit codes so twilld and CI can dispatch on them: success exits 0,
/// Compile exits 1, Verify (IR or partition protocol) exits 3, Sim exits 4,
/// Resource (a ResourceLimits ceiling was breached — token/AST/IR caps,
/// memory ceiling, step or wall-clock budget) exits 5 (2 is reserved for
/// CLI usage errors).
enum class FailureKind : uint8_t { None, Compile, Verify, Sim, Resource };

/// Stable lower-case name ("compile", "verify", "sim", "resource") for
/// reports.
const char* failureKindName(FailureKind k);

/// The compiled products of the Twill flow, retained on request.
struct TwillArtifacts {
  std::unique_ptr<Module> module;  // extracted module (dswp points into it)
  DswpResult dswp;
  ScheduleMap schedules;
  /// The decode of `module`, laid out under the producing run's memory
  /// ceiling. The run's own Twill simulation went through it, so every
  /// re-simulation reuses that decode. Its lazy decode cache is not
  /// thread-safe: re-simulations of one artifact set must be serialized.
  std::unique_ptr<SimProgram> program;
};

struct FlowAreas {
  AreaEstimate legup;            // pure-HW translation of the whole program
  AreaEstimate twillHwThreads;   // LUTs of the LegUp-translated HW threads only
  AreaEstimate twillTotal;       // + runtime (queues/semaphores/buses/ifaces)
  AreaEstimate twillPlusMicroblaze;
};

/// Wall clock per compile-pipeline stage for one report (ms). parse/lower
/// come from the frontend, passes is runDefaultPipeline, pdg is the PDG
/// construction inside runDswp, dswp is the rest of extraction, schedule is
/// both scheduleModule calls — the six are disjoint, so they sum to the
/// report's compile-side cost (simulation excluded).
struct StageTimes {
  double parseMs = 0;
  double lowerMs = 0;
  double passesMs = 0;
  double pdgMs = 0;
  double dswpMs = 0;
  double scheduleMs = 0;
};

struct BenchmarkReport {
  std::string name;
  bool ok = false;
  std::string error;
  /// Set when the failure came from the Twill co-sim (and so depends on the
  /// sim knobs), as opposed to compile/verification/pure-flow failures,
  /// which depend only on the source and compile knobs.
  /// The explorer uses this to decide whether a failed configuration says
  /// anything about its compile-group neighbours.
  bool twillSimFailure = false;
  /// What class of step failed (None while ok); see the enum for the exit
  /// code contract.
  FailureKind failureKind = FailureKind::None;
  /// Rendered partition-verifier diagnostics ("error: ...", "note: ..."),
  /// filled only when verification fails so passing reports are unchanged.
  std::vector<std::string> verifyDiagnostics;

  uint32_t expected = 0;  // golden interpreter result
  SimOutcome sw;
  SimOutcome hw;
  SimOutcome twill;
  // Which flows actually ran (mirrors DriverOptions.run*): distinguishes a
  // skipped flow from a failed one in machine-readable output.
  bool ranSW = false;
  bool ranHW = false;
  bool ranTwill = false;

  /// Set when DriverOptions::keepTwillArtifacts was requested and the Twill
  /// flow succeeded. shared_ptr keeps the report copyable.
  std::shared_ptr<TwillArtifacts> twillArtifacts;

  // Table 6.1 quantities.
  unsigned queues = 0;
  unsigned semaphores = 0;
  unsigned hwThreads = 0;
  unsigned swThreads = 0;

  FlowAreas areas;

  // Fig. 6.1 quantities (normalized to pure SW).
  double powerSW = 1.0;
  double powerHW = 0.0;
  double powerTwill = 0.0;

  StageTimes stages;

  // Convenience speedups (Fig. 6.2).
  double speedupHWvsSW() const {
    return hw.cycles ? static_cast<double>(sw.cycles) / static_cast<double>(hw.cycles) : 0;
  }
  double speedupTwillvsSW() const {
    return twill.cycles ? static_cast<double>(sw.cycles) / static_cast<double>(twill.cycles) : 0;
  }
  double speedupTwillvsHW() const {
    return twill.cycles ? static_cast<double>(hw.cycles) / static_cast<double>(twill.cycles) : 0;
  }
};

/// Runs the requested flows over one benchmark source. Any compile or
/// simulation failure is reported in `error` with ok=false; a report names
/// its first failure in a fixed order (pure SW, base-schedule budget, pure
/// HW, DSWP budget, IR verify, partition verify, Twill co-sim) and carries
/// only the fields filled before it.
///
/// Threads and memory: when the Twill flow and a pure flow both run and no
/// sim trace is attached, the pure flows run on one helper thread beside
/// the Twill flow, so a report uses two threads for most of its wall time
/// (callers that run N reports at once — `twilld --jobs N`, explorer
/// workers, `bench_main --jobs N` — can reach 2N threads). Up to three
/// simulated memories (`limits.memLimitBytes` each) are live at once: both
/// pure flows' from their preparation until the pure-SW run ends, beside
/// the Twill flow's. With a trace attached, or when no thread can be
/// created, the pure flows run on the calling thread before extraction.
BenchmarkReport runBenchmark(const std::string& name, const std::string& source,
                             const DriverOptions& opts = {});

/// Re-simulates the Twill flow of `anchor`, a report runBenchmark produced
/// with keepTwillArtifacts, under `opts`' sim knobs and resource limits.
/// This is the one re-simulation path (bench sweeps, the explorer's compile
/// groups, twilld's artifact cache). The sim config is derived from `opts`
/// exactly as runBenchmark derives it. Everything but the Twill outcome and
/// power carries over from the anchor: module, schedules, DSWP structure,
/// areas and pure-flow outcomes (those read no Twill-only knob). So `opts`
/// must hold the anchor's compile knobs and limits; only the Twill-only sim
/// knobs (queue capacity/latency, processors, scheduler quantum) may differ.
/// An anchor without artifacts is returned unchanged.
BenchmarkReport resimulateTwill(const BenchmarkReport& anchor, const DriverOptions& opts);

class JsonWriter;

/// Version of the report JSON document (`schema_version`, the first field
/// of every report emitReport writes) and of the CompileRequest document
/// the daemon and `twillc --request` accept (src/driver/request.h). The two
/// form one v1 API: a client that writes requests and reads reports checks
/// one number.
inline constexpr int kReportSchemaVersion = 1;

/// Writes the report as one JSON object into an open writer: golden result,
/// per-flow cycles/activity, DSWP structure counts, areas, normalized power
/// and speedups. Lets the bench harness embed reports inside its own
/// document.
void emitReport(JsonWriter& w, const BenchmarkReport& rep);

/// Serializes a report as a standalone machine-readable JSON document.
/// Shared by `twillc --json` and the bench harness.
std::string reportToJson(const BenchmarkReport& rep);

}  // namespace twill
