// Design-space exploration: sweep the knobs an embedded developer actually
// turns — the HW/SW split point, the partition count and the queue sizing —
// for one workload, and print the cycles/area frontier.
//
// This is the hand-rolled miniature; the real subsystem is `src/explore`
// (grid enumeration, parallel evaluation, Pareto pruning) behind the
// `twill-explore` CLI — see README "twill-explore: design-space
// exploration".
//
//   $ ./examples/design_space
#include <cstdio>

#include "bench/bench_common.h"

using namespace twill;
using namespace twill::bench;

int main() {
  // An ADPCM-style codec loop: a realistic "deploy this on a Zynq" workload.
  KernelInfo k = *findKernel("adpcm");

  std::printf("Design-space exploration for '%s'\n", k.name);
  std::printf("%-22s %10s %8s %10s %9s\n", "configuration", "cycles", "queues", "HWthreads",
              "HW LUTs");

  // Baselines.
  {
    DriverOptions opts;
    opts.runTwill = false;
    const BenchmarkReport r = runBenchmark(k.name, k.source, opts);
    std::printf("%-22s %10llu %8s %10s %9s\n", "pure software",
                static_cast<unsigned long long>(r.sw.cycles), "-", "-", "-");
    std::printf("%-22s %10llu %8s %10s %9u\n", "pure hardware",
                static_cast<unsigned long long>(r.hw.cycles), "-", "-", r.areas.legup.luts);
  }

  // One Twill row: cycles and DSWP structure from the report, plus the HW
  // threads' LUTs when asked for.
  auto row = [](const char* label, const BenchmarkReport& r, bool withLuts) {
    std::printf("%-22s %10llu %8u %10u ", label, static_cast<unsigned long long>(twillCycles(r)),
                r.queues, r.hwThreads);
    if (withLuts)
      std::printf("%9u\n", r.areas.twillHwThreads.luts);
    else
      std::printf("%9s\n", "-");
  };

  // Split-point sweep.
  for (double frac : {0.05, 0.25, 0.50}) {
    DriverOptions opts = twillOnly();
    opts.dswp.swFraction = frac;
    char label[64];
    std::snprintf(label, sizeof label, "twill sw-split=%.0f%%", frac * 100);
    row(label, runBenchmark(k.name, k.source, opts), true);
  }

  // Partition-count sweep at the default split.
  for (unsigned kParts : {2u, 4u, 6u}) {
    DriverOptions opts = twillOnly();
    opts.dswp.numPartitions = kParts;
    char label[64];
    std::snprintf(label, sizeof label, "twill K=%u", kParts);
    row(label, runBenchmark(k.name, k.source, opts), false);
  }

  // Queue capacity sweep (Fig 6.6 in miniature): one compile, re-simulated.
  {
    DriverOptions opts = twillOnly();
    opts.keepTwillArtifacts = true;
    const BenchmarkReport anchor = runBenchmark(k.name, k.source, opts);
    for (unsigned cap : {2u, 8u, 32u}) {
      opts.sim.queueCapacity = cap;
      char label[64];
      std::snprintf(label, sizeof label, "twill queue-len=%u", cap);
      row(label, resimulateTwill(anchor, opts), false);
    }
  }

  std::printf("\nReading the frontier: small SW splits keep the processor off the\n"
              "critical path; more partitions add TLP until queue traffic saturates\n"
              "the module bus; queues shorter than ~8 throttle the pipeline.\n");
  return 0;
}
