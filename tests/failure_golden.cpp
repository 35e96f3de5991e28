// Prints the reports runBenchmark produces when a run fails; the
// `failure_golden` ctest entry compares this stdout byte for byte with
// tests/golden/failure_reports.txt.
//
// A report names the first failure in a fixed order (pure SW, base-schedule
// budget, pure HW, DSWP budget, IR verify, partition verify, Twill) and
// carries exactly the fields filled before that failure. The pure flows may
// run beside the Twill flow, so this pins that neither the failure chosen
// nor any field of a failed report depends on which side finished first.
// Cases, per CHStone kernel at driver defaults otherwise:
//   sw-cycle-limit     sim.maxCycles between the larger of the Twill/HW cycle
//                      counts and the SW count: only the pure-SW flow fails
//   hw-cycle-limit     the pure-SW flow off and sim.maxCycles between the
//                      Twill and HW cycle counts: the pure-HW flow fails
//                      while the Twill flow beside it passes (kernels whose
//                      Twill flow beats pure HW; the SW count is above both,
//                      so no limit fails HW alone with SW on)
//   unseed-semaphores  DriverOptions::unseedSemaphores: partition verify fails
//   twill-deadlock     a short deadlock window under slow queues: only the
//                      Twill co-sim fails, after both baselines passed
// plus one program that traps in the golden run. Stage wall times are
// cleared, as everywhere reports are compared. The base-schedule and DSWP
// budget failures are not here: one wall budget covers every stage, so no
// setting breaches those two stages and passes the ones before them, and
// their messages carry the measured time.
//
//   ./build/failure_golden > tests/golden/failure_reports.txt   # regenerate
#include <algorithm>
#include <cstdio>
#include <string>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"

namespace twill {
namespace {

void print(const std::string& title, BenchmarkReport rep) {
  rep.stages = StageTimes{};
  std::printf("== %s\n%s\n", title.c_str(), reportToJson(rep).c_str());
}

}  // namespace
}  // namespace twill

int main() {
  using namespace twill;
  for (const KernelInfo& k : chstoneKernels()) {
    const BenchmarkReport clean = runBenchmark(k.name, k.source);
    if (!clean.ok) {
      std::fprintf(stderr, "%s: default run failed: %s\n", k.name, clean.error.c_str());
      return 1;
    }
    const uint64_t below = std::max(clean.twill.cycles, clean.hw.cycles);
    if (below + 1 < clean.sw.cycles) {
      DriverOptions opts;
      opts.sim.maxCycles = below + (clean.sw.cycles - below) / 2;
      print(std::string(k.name) + " sw-cycle-limit maxCycles=" + std::to_string(opts.sim.maxCycles),
            runBenchmark(k.name, k.source, opts));
    } else {
      std::printf("== %s sw-cycle-limit: no cycle limit fails SW alone\n", k.name);
    }
    if (clean.twill.cycles + 1 < clean.hw.cycles) {
      DriverOptions opts;
      opts.runPureSW = false;
      opts.sim.maxCycles = clean.twill.cycles + (clean.hw.cycles - clean.twill.cycles) / 2;
      print(std::string(k.name) + " hw-cycle-limit maxCycles=" + std::to_string(opts.sim.maxCycles),
            runBenchmark(k.name, k.source, opts));
    } else {
      std::printf("== %s hw-cycle-limit: no cycle limit fails HW alone\n", k.name);
    }
    DriverOptions unseed;
    unseed.unseedSemaphores = true;
    print(std::string(k.name) + " unseed-semaphores", runBenchmark(k.name, k.source, unseed));
    DriverOptions deadlock;
    deadlock.sim.queueLatency = 64;
    deadlock.sim.deadlockWindow = 16;
    print(std::string(k.name) + " twill-deadlock", runBenchmark(k.name, k.source, deadlock));
  }
  print("golden-trap",
        runBenchmark("golden-trap", "int a[4];"
                                    "int main() { int s = 0;"
                                    "for (int i = 0; i < 8000000; i += 4000) s += a[i];"
                                    "return s; }"));
  return 0;
}
