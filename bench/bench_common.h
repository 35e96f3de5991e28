// Shared helpers for the per-table/per-figure bench binaries.
//
// Every binary regenerates one table or figure from Ch. 6 of the thesis and
// prints it in the same rows/series layout. Absolute numbers differ from
// the thesis (see EXPERIMENTS.md) but each bench also prints the thesis's
// headline quantity next to ours for easy comparison.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/chstone/kernels.h"
#include "src/driver/driver.h"

namespace twill {
namespace bench {

/// Canonical sweep points for Fig. 6.5 (queue latency) and Fig. 6.6 (queue
/// capacity); bench_main records the same points in BENCH_dswp.json so the
/// artifact stays comparable with the figure binaries.
inline const std::vector<unsigned> kQueueLatencySweep = {2, 8, 32, 128};
inline const std::vector<unsigned> kQueueCapacitySweep = {2, 4, 8, 16, 32};

/// Shared command line for the bench binaries:
///   --quick        trimmed run (kernel subset, no parameter sweeps)
///   --out FILE     write the machine-readable JSON artifact to FILE
///   --kernel NAME  restrict to one kernel (repeatable)
///   --repeat N     run each stage N times, report the median wall time
///   --jobs N       evaluate kernels on N worker threads (bench_main; the
///                  artifact is byte-identical to the serial run modulo
///                  machine-dependent *_wall_ms values)
struct BenchCli {
  bool quick = false;
  std::string out;
  std::vector<std::string> kernels;
  unsigned repeat = 1;
  unsigned jobs = 1;
};

inline BenchCli parseBenchCli(int argc, char** argv, const char* defaultOut = "") {
  BenchCli cli;
  cli.out = defaultOut;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto needValue = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--out") {
      cli.out = needValue("--out");
    } else if (arg == "--kernel") {
      cli.kernels.push_back(needValue("--kernel"));
    } else if (arg == "--repeat") {
      int n = std::atoi(needValue("--repeat"));
      if (n < 1) {
        std::fprintf(stderr, "%s: --repeat wants a positive count\n", argv[0]);
        std::exit(2);
      }
      cli.repeat = static_cast<unsigned>(n);
    } else if (arg == "--jobs") {
      int n = std::atoi(needValue("--jobs"));
      if (n < 1) {
        std::fprintf(stderr, "%s: --jobs wants a positive count\n", argv[0]);
        std::exit(2);
      }
      cli.jobs = static_cast<unsigned>(n);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--quick] [--out FILE] [--kernel NAME ...] [--repeat N] [--jobs N]\n",
                  argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", argv[0], arg.c_str());
      std::exit(2);
    }
  }
  return cli;
}

/// Kernels selected by the CLI: the explicit `--kernel` list, or the first
/// `quickCount` kernels under `--quick`, or all eight.
inline std::vector<KernelInfo> selectKernels(const BenchCli& cli, size_t quickCount = 3) {
  std::vector<KernelInfo> out;
  if (!cli.kernels.empty()) {
    for (const auto& name : cli.kernels) {
      const KernelInfo* k = findKernel(name);
      if (!k) {
        std::fprintf(stderr, "unknown kernel '%s'\n", name.c_str());
        std::exit(2);
      }
      out.push_back(*k);
    }
    return out;
  }
  const auto& all = chstoneKernels();
  size_t n = cli.quick ? (quickCount < all.size() ? quickCount : all.size()) : all.size();
  out.assign(all.begin(), all.begin() + static_cast<long>(n));
  return out;
}

/// Driver options for a report that runs only the Twill flow (the split and
/// queue sweeps read nothing from the pure flows).
inline DriverOptions twillOnly() {
  DriverOptions opts;
  opts.runPureSW = false;
  opts.runPureHW = false;
  return opts;
}

/// Twill cycles of a report, or 0 (with the reason on stderr) when it
/// failed. The sweeps get their points from runBenchmark and
/// resimulateTwill, so they observe the same verification and resource
/// limits as every other front.
inline uint64_t twillCycles(const BenchmarkReport& rep) {
  if (rep.ok) return rep.twill.cycles;
  std::fprintf(stderr, "%s: %s\n", rep.name.c_str(), rep.error.c_str());
  return 0;
}

inline void header(const char* title, const char* paperNote) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paperNote);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace twill
