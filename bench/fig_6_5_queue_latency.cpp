// Fig. 6.5 — Twill performance across hardware queue latencies, normalized
// to the 2-cycle-latency runtime.
#include "bench/bench_common.h"

using namespace twill;
using namespace twill::bench;

int main() {
  header("Fig 6.5: speedup vs queue latency (normalized to 2-cycle latency)",
         "thesis: ~27%% average slowdown at latency 128 (more than the original DSWP's 10%% "
         "at 100, because Twill flushes the pipeline at function boundaries)");

  const std::vector<unsigned>& latencies = kQueueLatencySweep;
  std::printf("%-10s", "Benchmark");
  for (unsigned l : latencies) std::printf(" %8s%-3u", "lat=", l);
  std::printf("\n");

  double slowdown128Sum = 0;
  int count = 0;
  for (const auto& k : chstoneKernels()) {
    DriverOptions opts = twillOnly();
    opts.keepTwillArtifacts = true;
    const BenchmarkReport anchor = runBenchmark(k.name, k.source, opts);
    uint64_t baseCycles = 0;
    std::printf("%-10s", k.name);
    double last = 1.0;
    for (unsigned l : latencies) {
      opts.sim.queueLatency = l;
      uint64_t cycles = twillCycles(resimulateTwill(anchor, opts));
      if (l == 2) baseCycles = cycles;
      double norm = (cycles && baseCycles) ? static_cast<double>(baseCycles) / cycles : 0;
      std::printf(" %10.3f", norm);
      last = norm;
    }
    std::printf("\n");
    if (last > 0) {
      slowdown128Sum += (1.0 - last) * 100.0;
      ++count;
    }
  }
  if (count)
    std::printf("\nAverage slowdown at latency 128: %.1f%% (thesis: ~27%%)\n",
                slowdown128Sum / count);
  return 0;
}
