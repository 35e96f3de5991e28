// Fig. 6.3 — MIPS benchmark performance (and queue count) across targeted
// partition split points.
#include "bench/bench_common.h"

using namespace twill;
using namespace twill::bench;

int main() {
  header("Fig 6.3: MIPS performance vs targeted SW split point",
         "queue count anti-correlates with performance; even splits perform worst");

  const KernelInfo* k = findKernel("mips");
  std::printf("%-10s %12s %10s %12s\n", "SW split", "Twill cycles", "#queues", "vs pure HW");

  // Pure-HW reference once.
  DriverOptions hwOnly;
  hwOnly.runPureSW = false;
  hwOnly.runTwill = false;
  const uint64_t hwCycles = runBenchmark(k->name, k->source, hwOnly).hw.cycles;

  for (double split : {0.05, 0.10, 0.25, 0.40, 0.50, 0.65, 0.80, 0.95}) {
    DriverOptions opts = twillOnly();
    opts.dswp.swFraction = split;
    const BenchmarkReport r = runBenchmark(k->name, k->source, opts);
    const uint64_t cycles = twillCycles(r);
    double vsHW = cycles ? static_cast<double>(hwCycles) / cycles : 0;
    std::printf("%9.0f%% %12llu %10u %11.2fx\n", split * 100,
                static_cast<unsigned long long>(cycles), r.queues, vsHW);
  }
  std::printf("\n(The thesis's Fig 6.3 shows performance degrading toward mid/large splits\n"
              " while the queue count varies with the split point.)\n");
  return 0;
}
