// Ablations over the design choices DESIGN.md calls out:
//  * scheduler quantum (hardware scheduler period, §4.4),
//  * partition count K (the "number of initial partitions" input, §5.2),
//  * inline threshold (function-level pipelining vs fully-inlined DSWP).
#include "bench/bench_common.h"

using namespace twill;
using namespace twill::bench;

int main() {
  header("Ablations: scheduler quantum, partition count, inlining",
         "design-choice sensitivity; not a thesis figure");

  // --- Partition count sweep (representative kernels) -----------------------
  std::printf("\n-- Partition count K (Twill cycles) --\n%-10s", "Benchmark");
  const unsigned ks[] = {2, 3, 4, 6};
  for (unsigned kk : ks) std::printf(" %7s%-2u", "K=", kk);
  std::printf(" %9s\n", "auto");
  for (const char* name : {"sha", "jpeg", "adpcm", "gsm"}) {
    const KernelInfo* k = findKernel(name);
    std::printf("%-10s", name);
    for (unsigned kk : ks) {
      DriverOptions opts = twillOnly();
      opts.dswp.numPartitions = kk;
      const uint64_t cycles = twillCycles(runBenchmark(name, k->source, opts));
      std::printf(" %9llu", static_cast<unsigned long long>(cycles));
    }
    const uint64_t autoCycles = twillCycles(runBenchmark(name, k->source, twillOnly()));
    std::printf(" %9llu\n", static_cast<unsigned long long>(autoCycles));
  }

  // --- Scheduler quantum sweep ----------------------------------------------
  std::printf("\n-- Scheduler quantum (Twill cycles, sha) --\n");
  const KernelInfo* sha = findKernel("sha");
  {
    DriverOptions opts = twillOnly();
    opts.keepTwillArtifacts = true;
    const BenchmarkReport anchor = runBenchmark(sha->name, sha->source, opts);
    for (unsigned q : {100u, 500u, 2000u, 10000u}) {
      opts.sim.schedQuantum = q;
      std::printf("  quantum %6u: %llu cycles\n", q,
                  static_cast<unsigned long long>(twillCycles(resimulateTwill(anchor, opts))));
    }
  }

  // --- Processor count (§4.5 supports several Microblazes) -------------------
  std::printf("\n-- Processor count (Twill cycles, sha at sw-split 60%%) --\n");
  {
    DriverOptions opts = twillOnly();
    opts.dswp.swFraction = 0.6;  // force several SW threads so processors matter
    opts.keepTwillArtifacts = true;
    const BenchmarkReport anchor = runBenchmark(sha->name, sha->source, opts);
    for (unsigned procs : {1u, 2u, 4u}) {
      opts.sim.numProcessors = procs;
      std::printf("  %u processor%s: %llu cycles\n", procs, procs == 1 ? " " : "s",
                  static_cast<unsigned long long>(twillCycles(resimulateTwill(anchor, opts))));
    }
  }

  // --- Inline threshold: fully inlined vs function-level pipelining ---------
  std::printf("\n-- Inline threshold (Twill cycles, mpeg2) --\n");
  {
    // mpeg2 has a multi-call-site function (decode_mv), so the threshold
    // actually toggles master/slave function pipelining.
    const KernelInfo* k = findKernel("mpeg2");
    for (unsigned thr : {0u, 40u, 2000u}) {
      DriverOptions opts = twillOnly();
      opts.inlineThreshold = thr;
      const BenchmarkReport r = runBenchmark(k->name, k->source, opts);
      std::printf("  inline<=%-5u: %8llu cycles, %3u queues, %u threads%s\n", thr,
                  static_cast<unsigned long long>(twillCycles(r)), r.queues,
                  r.hwThreads + r.swThreads,
                  thr == 0 ? "  (master/slave function pipelining active)" : "");
    }
  }
  return 0;
}
