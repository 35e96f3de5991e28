// Fig. 6.6 — Twill performance across queue sizes, normalized to length-8
// queues.
#include "bench/bench_common.h"

using namespace twill;
using namespace twill::bench;

int main() {
  header("Fig 6.6: speedup vs queue size (normalized to length-8 queues)",
         "thesis: ~9.7%% slowdown shrinking queues from 32 to 8; resilient overall");

  const std::vector<unsigned>& sizes = kQueueCapacitySweep;
  std::printf("%-10s", "Benchmark");
  for (unsigned s : sizes) std::printf(" %7s%-3u", "len=", s);
  std::printf("\n");

  double s32Sum = 0;
  int count = 0;
  for (const auto& k : chstoneKernels()) {
    // The anchor runs the default length-8 queues (the normalization base).
    DriverOptions opts = twillOnly();
    opts.keepTwillArtifacts = true;
    const BenchmarkReport anchor = runBenchmark(k.name, k.source, opts);
    const uint64_t baseCycles = twillCycles(anchor);
    std::printf("%-10s", k.name);
    double n32 = 1.0;
    for (unsigned s : sizes) {
      opts.sim.queueCapacity = s;
      uint64_t cycles = twillCycles(resimulateTwill(anchor, opts));
      double norm = (cycles && baseCycles) ? static_cast<double>(baseCycles) / cycles : 0;
      if (s == 32) n32 = norm;
      std::printf(" %9.3f", norm);
    }
    std::printf("\n");
    s32Sum += (n32 - 1.0) * 100.0;
    ++count;
  }
  if (count)
    std::printf("\nAverage speedup from len-8 to len-32 queues: %.1f%% "
                "(thesis: ~9.7%% the other way, i.e. 32->8 costs ~9.7%%)\n",
                s32Sum / count);
  return 0;
}
