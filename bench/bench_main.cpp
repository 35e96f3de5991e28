// bench_main — the repo's perf-trajectory harness.
//
// Runs the measurements behind the fig/table benches (full three-flow
// reports per CHStone kernel, plus the Fig. 6.5/6.6 queue latency/capacity
// sweeps) under one CLI and writes a machine-readable artifact so future
// changes can be compared against a baseline:
//
//   $ bench_main --quick --out BENCH_dswp.json
//   $ bench_main --out BENCH_dswp.json            # full run, all 8 kernels
//   $ bench_main --repeat 5 --out BENCH_dswp.json # median-of-5 wall times
//   $ bench_main --jobs 4 --out BENCH_dswp.json   # kernels on 4 workers
//
// The JSON records, per kernel, the driver report (cycles, areas, power,
// speedups, per-stage compile cost) and the wall-clock cost of each
// pipeline stage — the former tracks fidelity to the thesis, the latter
// tracks the toolchain's own speed. `--repeat N` reruns each stage N times
// and reports the median wall time, so perf deltas across PRs are
// measurable above noise; the top-level `engine` field attributes them to
// the simulator generation.
//
// Kernels are computed first (serially by default; on a worker pool under
// --jobs N) and emitted afterwards in kernel order from the stored results,
// so the artifact is byte-identical for every job count modulo the
// machine-dependent *_wall_ms values the bench gate already ignores.
#include <algorithm>

#include "bench/bench_common.h"
#include "src/explore/pool.h"
#include "src/support/json.h"
#include "src/support/stopwatch.h"

using namespace twill;
using namespace twill::bench;

namespace {

using Clock = StopwatchClock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One sweep over `values`: re-simulates the anchor's kept artifacts at each
/// point, collecting cycles when `out` is given (null = pure timing pass;
/// the `--repeat` reruns must measure exactly the workload the recorded
/// sweep measured).
void runSweep(const BenchmarkReport& anchor, const std::vector<unsigned>& values, bool isLatency,
              std::vector<uint64_t>* out) {
  for (unsigned v : values) {
    DriverOptions opts;
    (isLatency ? opts.sim.queueLatency : opts.sim.queueCapacity) = v;
    uint64_t cycles = twillCycles(resimulateTwill(anchor, opts));
    if (out != nullptr) out->push_back(cycles);
  }
}

/// Everything one kernel contributes to the artifact, computed up front so
/// emission is a pure serialization pass over stored results.
struct KernelRun {
  BenchmarkReport report;
  double reportMs = 0;
  bool hasSweeps = false;
  std::vector<uint64_t> latencyCycles;   // per kQueueLatencySweep point
  std::vector<uint64_t> capacityCycles;  // per kQueueCapacitySweep point
  double sweepMs = 0;
};

KernelRun computeKernel(const KernelInfo& k, const BenchCli& cli) {
  KernelRun kr;
  std::vector<double> reportTimes;
  for (unsigned rep = 0; rep < cli.repeat; ++rep) {
    auto tr = Clock::now();
    DriverOptions dopts;
    dopts.keepTwillArtifacts = !cli.quick;  // the sweeps re-simulate these
    BenchmarkReport ri = runBenchmark(k.name, k.source, dopts);
    reportTimes.push_back(msSince(tr));
    if (rep == 0) kr.report = std::move(ri);
  }
  kr.reportMs = median(reportTimes);

  if (!cli.quick && kr.report.ok && kr.report.twillArtifacts) {
    // Fig. 6.5 / 6.6: re-simulate across queue latencies and capacities,
    // reusing the module (and decode) runBenchmark already produced.
    kr.hasSweeps = true;
    std::vector<double> sweepTimes;
    auto t0 = Clock::now();
    runSweep(kr.report, kQueueLatencySweep, /*isLatency=*/true, &kr.latencyCycles);
    runSweep(kr.report, kQueueCapacitySweep, /*isLatency=*/false, &kr.capacityCycles);
    const double recordingPassMs = msSince(t0);
    if (cli.repeat == 1) {
      sweepTimes.push_back(recordingPassMs);
    } else {
      // Median over N uniform samples: the recording pass above fills the
      // result vectors (a different workload), so it is excluded.
      for (unsigned rep = 0; rep < cli.repeat; ++rep) {
        t0 = Clock::now();
        runSweep(kr.report, kQueueLatencySweep, /*isLatency=*/true, nullptr);
        runSweep(kr.report, kQueueCapacitySweep, /*isLatency=*/false, nullptr);
        sweepTimes.push_back(msSince(t0));
      }
    }
    kr.sweepMs = median(sweepTimes);
  }
  kr.report.twillArtifacts.reset();
  return kr;
}

void emitSweep(JsonWriter& w, const char* key, const std::vector<unsigned>& values,
               bool isLatency, const std::vector<uint64_t>& cycles) {
  w.key(key);
  w.beginArray();
  for (size_t i = 0; i < values.size(); ++i) {
    w.beginObject();
    w.field(isLatency ? "latency" : "capacity", values[i]);
    w.field("cycles", cycles[i]);
    w.endObject();
  }
  w.endArray();
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli = parseBenchCli(argc, argv, "BENCH_dswp.json");
  std::vector<KernelInfo> kernels = selectKernels(cli);

  const auto runStart = Clock::now();

  // Compute every kernel's results. The pool claims kernels from a shared
  // counter; each task writes only its own slot, so any job count produces
  // the same stored results (the ROADMAP's kernel fan-out item).
  std::vector<KernelRun> runs(kernels.size());
  runIndexedTasks(cli.jobs, kernels.size(), [&](size_t i) {
    std::fprintf(stderr, "[bench_main] %s...\n", kernels[i].name);
    runs[i] = computeKernel(kernels[i], cli);
  });

  JsonWriter w;
  w.beginObject();
  w.field("bench", "dswp");
  // Which simulator generation produced the wall times (perf attribution
  // across PRs): the superblock trace runner on the pre-decoded records,
  // under the event-driven scheduler.
  w.field("engine", "superblock-event");
  w.field("quick", cli.quick);
  w.field("repeat", cli.repeat);
  w.key("kernels");
  w.beginArray();

  unsigned okCount = 0;
  double speedupTwillSum = 0, powerTwillSum = 0;
  for (const KernelRun& kr : runs) {
    w.beginObject();
    w.key("report");
    emitReport(w, kr.report);
    w.field("report_wall_ms", kr.reportMs);
    if (kr.report.ok) {
      ++okCount;
      speedupTwillSum += kr.report.speedupTwillvsSW();
      powerTwillSum += kr.report.powerTwill;
    }
    if (kr.hasSweeps) {
      emitSweep(w, "queue_latency_sweep", kQueueLatencySweep, /*isLatency=*/true,
                kr.latencyCycles);
      emitSweep(w, "queue_capacity_sweep", kQueueCapacitySweep, /*isLatency=*/false,
                kr.capacityCycles);
      w.field("sweep_wall_ms", kr.sweepMs);
    }
    w.endObject();
  }
  w.endArray();

  w.key("summary");
  w.beginObject();
  w.field("kernels_run", static_cast<uint64_t>(kernels.size()));
  w.field("kernels_ok", okCount);
  w.field("avg_speedup_twill_vs_sw", okCount ? speedupTwillSum / okCount : 0.0);
  w.field("avg_power_twill", okCount ? powerTwillSum / okCount : 0.0);
  w.field("total_wall_ms", msSince(runStart));
  w.endObject();
  w.endObject();

  if (cli.out.empty() || cli.out == "-") {
    std::printf("%s\n", w.str().c_str());
  } else {
    std::FILE* f = std::fopen(cli.out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_main: cannot write '%s'\n", cli.out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
    std::fprintf(stderr, "[bench_main] wrote %s (%u/%zu kernels ok)\n", cli.out.c_str(),
                 okCount, kernels.size());
  }
  return okCount == kernels.size() ? 0 : 1;
}
