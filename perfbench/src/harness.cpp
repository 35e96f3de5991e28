// perfbench_harness — runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload report|explore|serve --seed N --seconds S
//                     --trace 0|1 [--setup-only] [--work-dir DIR]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. With --trace 0 the
// metrics are the end-to-end ones (src/metrics.h); with --trace 1 the run
// replays every operation layer by layer and prints the per-layer ones, and
// writes the spans to DIR/<workload>-<seed>.trace.json. --setup-only runs
// the set-up phase alone and prints {"setup_s": x} (run.py repeats set-up
// in fresh processes and reports the median).
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/http_client.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stream.h"
#include "src/chstone/kernels.h"
#include "src/driver/request.h"
#include "src/explore/explorer.h"
#include "src/serve/service.h"
#include "src/support/json.h"

using namespace perfbench;

namespace {

/// A percentile needs at least ten samples beyond it: 100 operations for p90.
constexpr uint64_t kMinOps = 100;
/// Sleep between report polls: a small fraction of a full hit's latency.
constexpr unsigned kPollSleepUs = 20;

struct Args {
  Workload workload = Workload::Report;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setupOnly = false;
  std::string workDir = ".";
  /// Stop after this many timed operations (0 = whole blocks until
  /// `seconds`). Used for the short samples a traced run takes of the
  /// layers its own workload never runs.
  uint64_t maxOps = 0;
};

double msSince(uint64_t t0) { return static_cast<double>(nowNs() - t0) / 1e6; }

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// VmHWM (peak resident set) of a process in MiB; 0 when unreadable.
double peakRssMiB(const std::string& pid) {
  std::istringstream in(readFile("/proc/" + pid + "/status"));
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, 6, "VmHWM:") == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

/// Collects the result line: correctness, counts and metrics.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  double setupS = 0;
  unsigned reportedFailures = 0;

  void fail(const std::string& why) {
    correct = false;
    if (reportedFailures++ < 10) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  void failOp(const std::string& why) {
    ++failed;
    fail(why);
  }
  void set(const std::string& name, double value) {
    for (auto& m : metrics)
      if (m.first == name) {
        m.second = value;
        return;
      }
    metrics.push_back({name, value});
  }

  void print(const std::vector<MetricDef>& defs) const {
    std::map<std::string, double> byName(metrics.begin(), metrics.end());
    std::string line = std::string("{\"correct\": ") + (correct && failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
      auto it = byName.find(defs[i].name);
      const double v = it == byName.end() || !std::isfinite(it->second) ? 0.0 : it->second;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      line += std::string(i ? ", " : "") + "\"" + defs[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    std::printf("%s}}\n", line.c_str());
  }
};

/// Wall and CPU time spent on output checks inside a timed phase; the
/// phase subtracts them, so checking never counts as the program's work.
struct Untimed {
  double wallS = 0, cpuS = 0;
  template <typename F>
  void run(F&& f) {
    const uint64_t t0 = nowNs();
    const double c0 = processCpuSeconds();
    f();
    wallS += msSince(t0) / 1000;
    cpuS += processCpuSeconds() - c0;
  }
};

/// Wall and CPU seconds of the program's work, cumulative or per operation.
struct WorkTime {
  double wallS = 0, cpuS = 0;
};

/// Runs whole blocks of the stream until `seconds` have passed and at least
/// kMinOps operations (and `minBlocks` blocks) ran, or exactly `a.maxOps`
/// operations when set. `work()` gives the cumulative work time (output
/// checks excluded); the result holds its increase from the start of each
/// operation to the start of the next, the operation's share of the loop.
template <typename WorkFn, typename OpFn>
std::vector<WorkTime> runTimed(const Args& a, const Stream& s, unsigned minBlocks, WorkFn&& work,
                               OpFn&& opFn) {
  const uint64_t t0 = nowNs();
  uint64_t ops = 0;
  std::vector<WorkTime> costs;
  WorkTime last = work();
  for (unsigned b = 0;; ++b) {
    if (a.maxOps ? ops == a.maxOps
                 : b >= minBlocks && ops >= kMinOps && msSince(t0) >= a.seconds * 1000)
      break;
    for (size_t i = 0; i < s.block.size() && !(a.maxOps && ops == a.maxOps); ++i, ++ops) {
      opFn(b, s.block[i], ops);
      const WorkTime now = work();
      costs.push_back({now.wallS - last.wallS, now.cpuS - last.cpuS});
      last = now;
    }
  }
  return costs;
}

/// End-to-end metrics of the timed phase; per-class percentiles over the
/// whole run go to stderr.
///
/// A run repeats one block, so every position of the block is the same
/// operation, run once per block. On a shared host the same operation
/// takes up to twice as long while neighbours load the machine, in phases
/// of seconds to a minute, and how much of a run they cover changes from
/// run to run; a whole-run median moves with that share. So each position
/// costs its fastest repetition in the run (latency, loop wall and CPU, each
/// on its own): what the operation takes on a quiet host. p50 and p90 are
/// taken over the block's positions, whose class counts put them inside
/// class bands (stream.h); throughput is the block's operations over the sum
/// of its positions' wall, and CPU per operation the mean of its positions'
/// CPU.
void setLatencyMetrics(Result& res, const Stream& s, const std::vector<double>& lat,
                       const std::vector<WorkTime>& costs) {
  const size_t per = s.block.size();
  const size_t reps = lat.size() / per;
  std::map<std::string, std::vector<double>> byClass;
  for (size_t i = 0; i < lat.size(); ++i)
    byClass[className(s.workload, s.block[i % per])].push_back(lat[i]);
  for (auto& [name, v] : byClass) {
    std::sort(v.begin(), v.end());
    std::fprintf(stderr, "  %-28s n=%-6zu p10 %9.3f  p50 %9.3f  p90 %9.3f ms\n", name.c_str(),
                 v.size(), percentileSorted(v, 0.1), percentileSorted(v, 0.5),
                 percentileSorted(v, 0.9));
  }
  auto fastest = [&](size_t pos, auto value) {
    double best = value(pos);
    for (size_t b = 1; b < reps; ++b) best = std::min(best, value(b * per + pos));
    return best;
  };
  std::vector<double> fastestLat;
  double wallS = 0, cpuS = 0;
  for (size_t pos = 0; pos < per; ++pos) {
    fastestLat.push_back(fastest(pos, [&](size_t i) { return lat[i]; }));
    wallS += fastest(pos, [&](size_t i) { return costs[i].wallS; });
    cpuS += fastest(pos, [&](size_t i) { return costs[i].cpuS; });
  }
  std::sort(fastestLat.begin(), fastestLat.end());
  const double p90 = percentileSorted(fastestLat, 0.9);
  const size_t beyond = static_cast<size_t>(
      fastestLat.end() - std::upper_bound(fastestLat.begin(), fastestLat.end(), p90));
  std::printf("samples: %zu operations, %zu repetitions of a %zu-operation block; %zu positions "
              "(%zu operations) beyond p90\n",
              lat.size(), reps, per, beyond, beyond * reps);
  res.set("latency_ms_p50", percentileSorted(fastestLat, 0.5));
  res.set("latency_ms_p90", p90);
  res.set("throughput_ops_per_s", static_cast<double>(per) / wallS);
  res.set("cpu_ms_per_op", cpuS * 1000 / static_cast<double>(per));
}

/// Self time per operation of each layer, plus a table on stderr.
void setLayerMetrics(Result& res, const SpanRecorder& rec, double ops) {
  const auto self = rec.selfMs();
  const auto total = rec.totalMs();
  const auto counts = rec.counts();
  double rootMs = 0;
  for (const auto& s : rec.spans())
    if (s.parent < 0) rootMs += static_cast<double>(s.endNs - s.beginNs) / 1e6;
  std::fprintf(stderr, "%-22s %12s %8s\n", "layer (span)", "self ms/op", "share");
  for (const auto& [name, ms] : self)
    std::fprintf(stderr, "%-22s %12.4f %7.2f%%\n", name.c_str(), ms / ops,
                 rootMs > 0 ? 100 * ms / rootMs : 0);
  auto selfPerOp = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / ops;
  };
  auto meanSpan = [&](const char* span) {
    auto it = total.find(span);
    return it == total.end() ? 0.0 : it->second / static_cast<double>(counts.at(span));
  };
  res.set("frontend.compile_ms", selfPerOp("frontend.compile"));
  res.set("transforms.passes_ms", selfPerOp("transforms.passes"));
  res.set("ir.verify_ms", selfPerOp("ir.verify"));
  res.set("ir.golden_ms", selfPerOp("ir.golden"));
  res.set("hls.schedule_ms", selfPerOp("hls.schedule"));
  res.set("dswp.extract_ms", selfPerOp("dswp.extract"));
  res.set("verify.partition_ms", selfPerOp("verify.partition"));
  res.set("exec.decode_ms", selfPerOp("exec.decode"));
  res.set("sim.sw_ms", selfPerOp("sim.sw"));
  res.set("sim.hw_ms", selfPerOp("sim.hw"));
  res.set("sim.twill_ms", selfPerOp("sim.twill"));
  res.set("explore.resim_ms", meanSpan("explore.resim"));
  res.set("serve.submit_ms", meanSpan("serve.submit"));
  res.set("serve.fetch_ms", meanSpan("serve.fetch"));
  res.set("serve.healthz_ms", meanSpan("serve.healthz"));
  auto anchor = total.find("explore.anchor");
  if (anchor != total.end()) res.set("explore.anchor_ms", anchor->second / ops);
}

/// Structure and cycle counters of the replayed reports, averaged.
struct ReplayTotals {
  double replays = 0, frontendInsts = 0, passesInsts = 0, queues = 0, semaphores = 0,
         hwThreads = 0, swCycles = 0, hwCycles = 0, twillCycles = 0;
  double stageMs = 0, driverMs = 0;  // driver.stage_coverage numerator / denominator

  void add(const ReplayResult& r) {
    replays += 1;
    frontendInsts += static_cast<double>(r.frontendInsts);
    passesInsts += static_cast<double>(r.passesInsts);
    queues += r.queues;
    semaphores += r.semaphores;
    hwThreads += r.hwThreads;
    swCycles += static_cast<double>(r.sw.cycles);
    hwCycles += static_cast<double>(r.hw.cycles);
    twillCycles += static_cast<double>(r.twill.cycles);
  }
  void addStages(const twill::BenchmarkReport& rep, double wallMs) {
    const twill::StageTimes& st = rep.stages;
    stageMs += st.parseMs + st.lowerMs + st.passesMs + st.pdgMs + st.dswpMs + st.scheduleMs;
    driverMs += wallMs;
  }
  void set(Result& res, const SpanRecorder& rec) const {
    const double n = replays > 0 ? replays : 1;
    res.set("frontend.ir_insts", frontendInsts / n);
    res.set("transforms.ir_insts", passesInsts / n);
    res.set("dswp.queues", queues / n);
    res.set("dswp.semaphores", semaphores / n);
    res.set("dswp.hw_threads", hwThreads / n);
    res.set("sim.sw_cycles", swCycles / n);
    res.set("sim.hw_cycles", hwCycles / n);
    res.set("sim.twill_cycles", twillCycles / n);
    const auto total = rec.totalMs();
    auto tw = total.find("sim.twill");
    if (tw != total.end() && twillCycles > 0)
      res.set("sim.twill_ns_per_cycle", tw->second * 1e6 / twillCycles);
    if (driverMs > 0) res.set("driver.stage_coverage", stageMs / driverMs);
  }
};

std::vector<unsigned> distinctKernels(const Stream& s) {
  std::vector<unsigned> ks;
  for (const Op& op : s.block)
    if (std::find(ks.begin(), ks.end(), op.kernel) == ks.end()) ks.push_back(op.kernel);
  return ks;
}

const twill::KernelInfo& kernelOf(const Op& op) { return twill::chstoneKernels()[op.kernel]; }

void writeTrace(const Args& a, const SpanRecorder& rec) {
  const std::string path = a.workDir + "/" + workloadName(a.workload) + "-" +
                           std::to_string(a.seed) + ".trace.json";
  std::string error;
  if (rec.writeChromeTrace(path, std::string("perfbench ") + workloadName(a.workload), error))
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  else
    std::fprintf(stderr, "perfbench: could not write %s: %s\n", path.c_str(), error.c_str());
}

// --- report ------------------------------------------------------------------

Result runReport(const Args& a, const Stream& s, const std::map<std::string, BaselineKernel>& base) {
  Result res;
  auto check = [&](const twill::BenchmarkReport& rep, bool countOp) {
    std::string why;
    auto it = base.find(rep.name);
    if (it == base.end() || !checkReport(rep, it->second, why)) {
      const std::string msg = "report " + rep.name + ": " + why;
      countOp ? res.failOp(msg) : res.fail(msg);
    }
  };

  // Set-up: the cold first pass, one report per kernel of the stream.
  Untimed setupChecks;
  const uint64_t setup0 = nowNs();
  for (unsigned k : distinctKernels(s)) {
    const auto& ki = twill::chstoneKernels()[k];
    twill::BenchmarkReport rep = twill::runBenchmark(ki.name, ki.source);
    if (!a.setupOnly) setupChecks.run([&] { check(rep, false); });
  }
  res.setupS = msSince(setup0) / 1000 - setupChecks.wallS;
  if (a.setupOnly) return res;

  std::vector<double> lat;
  if (!a.trace) {
    Untimed checks;
    auto work = [&] {
      return WorkTime{static_cast<double>(nowNs()) / 1e9 - checks.wallS,
                      processCpuSeconds() - checks.cpuS};
    };
    const auto costs = runTimed(a, s, 1, work, [&](unsigned, const Op& op, uint64_t) {
      const auto& ki = kernelOf(op);
      const uint64_t t0 = nowNs();
      const twill::BenchmarkReport rep = twill::runBenchmark(ki.name, ki.source);
      lat.push_back(msSince(t0));
      ++res.attempted;
      checks.run([&] { check(rep, true); });
    });
    setLatencyMetrics(res, s, lat, costs);
    res.set("setup_s", res.setupS);
    res.set("peak_rss_mib", peakRssMiB("self"));
    return res;
  }

  SpanRecorder rec;
  ReplayTotals totals;
  double driverMs = 0, replayMs = 0;
  runTimed(a, s, 1, [] { return WorkTime{}; }, [&](unsigned, const Op& op, uint64_t id) {
    const auto& ki = kernelOf(op);
    const uint64_t t0 = nowNs();
    twill::BenchmarkReport rep = twill::runBenchmark(ki.name, ki.source);
    const double refMs = msSince(t0);
    driverMs += refMs;
    totals.addStages(rep, refMs);
    const uint64_t t1 = nowNs();
    ReplayResult r;
    {
      SpanRecorder::Scope root(&rec, "op", id);
      r = replayReport(ki.source, twill::DriverOptions(), rec, id);
    }
    replayMs += msSince(t1);
    ++res.attempted;
    check(rep, true);
    std::string why;
    if (!matchesDriver(r, rep, why)) res.failOp(std::string("replay ") + ki.name + ": " + why);
    totals.add(r);
  });
  const double ops = static_cast<double>(res.attempted);
  setLayerMetrics(res, rec, ops);
  totals.set(res, rec);
  res.set("obs.trace_overhead_pct", 100 * (replayMs / driverMs - 1));
  if (!a.maxOps) writeTrace(a, rec);
  return res;
}

// --- explore -----------------------------------------------------------------

twill::ExploreRequest exploreRequest(const Op& op) {
  twill::ExploreRequest req;
  req.name = kernelOf(op).name;
  req.source = kernelOf(op).source;
  req.space = exploreGrid();
  return req;
}

Result runExplore(const Args& a, const Stream& s,
                  const std::map<std::string, BaselineKernel>& base) {
  Result res;
  auto check = [&](const twill::ExploreResult& r, bool countOp) {
    std::string why;
    auto it = base.find(r.name);
    if (it == base.end() || !checkExplore(r, it->second, why)) {
      const std::string msg = "explore " + r.name + ": " + why;
      countOp ? res.failOp(msg) : res.fail(msg);
    }
  };

  // Set-up: the cold first pass, one exploration per kernel of the stream.
  Untimed setupChecks;
  const uint64_t setup0 = nowNs();
  for (unsigned k : distinctKernels(s)) {
    Op op;
    op.kernel = k;
    twill::ExploreResult r = twill::explore(exploreRequest(op), 1);
    if (!a.setupOnly) setupChecks.run([&] { check(r, false); });
  }
  res.setupS = msSince(setup0) / 1000 - setupChecks.wallS;
  if (a.setupOnly) return res;

  std::vector<double> lat;
  if (!a.trace) {
    Untimed checks;
    auto work = [&] {
      return WorkTime{static_cast<double>(nowNs()) / 1e9 - checks.wallS,
                      processCpuSeconds() - checks.cpuS};
    };
    const auto costs = runTimed(a, s, 1, work, [&](unsigned, const Op& op, uint64_t) {
      const twill::ExploreRequest req = exploreRequest(op);
      const uint64_t t0 = nowNs();
      const twill::ExploreResult r = twill::explore(req, 1);
      lat.push_back(msSince(t0));
      ++res.attempted;
      checks.run([&] { check(r, true); });
    });
    setLatencyMetrics(res, s, lat, costs);
    res.set("setup_s", res.setupS);
    res.set("peak_rss_mib", peakRssMiB("self"));
    return res;
  }

  SpanRecorder rec;
  ReplayTotals totals;
  double driverMs = 0, replayMs = 0, points = 0;
  runTimed(a, s, 1, [] { return WorkTime{}; }, [&](unsigned, const Op& op, uint64_t id) {
    const twill::ExploreRequest req = exploreRequest(op);
    const uint64_t t0 = nowNs();
    twill::ExploreResult ref = twill::explore(req, 1);
    driverMs += msSince(t0);
    ++res.attempted;
    check(ref, true);
    if (ref.points.size() != req.space.size()) return;
    points += static_cast<double>(ref.points.size());

    // The explorer's order: the anchor (first point) runs the whole driver
    // flow, then one decode for the group and one re-simulation per point.
    const uint64_t t1 = nowNs();
    std::string why;
    {
      SpanRecorder::Scope root(&rec, "op", id);
      twill::DriverOptions opts;
      opts.dswp = ref.points[0].point.dswp;
      opts.sim = ref.points[0].point.sim;
      ReplayResult r;
      const uint64_t ta = nowNs();
      {
        SpanRecorder::Scope anchor(&rec, "explore.anchor", id);
        r = replayReport(req.source, opts, rec, id);
      }
      // Stage coverage of the anchor: its report's stages over the anchor's
      // replayed wall (the explorer does not expose the anchor's own wall).
      totals.addStages(ref.points[0].report, msSince(ta));
      if (!matchesDriver(r, ref.points[0].report, why)) {
        res.failOp("replay anchor " + req.name + ": " + why);
        return;
      }
      totals.add(r);
      std::unique_ptr<twill::SimProgram> prog;
      {
        SpanRecorder::Scope decode(&rec, "exec.decode", id);
        prog = decodeForSim(*r.module, r.dswp, r.schedules);
      }
      for (size_t k = 1; k < ref.points.size(); ++k) {
        twill::SimConfig sim = ref.points[k].point.sim;
        sim.memoryBytes = req.limits.memLimitBytes;
        sim.wallBudgetMs = req.limits.stageTimeoutMs;
        twill::SimOutcome o;
        {
          SpanRecorder::Scope resim(&rec, "explore.resim", id);
          o = twill::simulateTwill(*r.module, r.dswp, sim, r.schedules, prog.get());
        }
        if (!sameTwillOutcome(o, ref.points[k].report, why)) {
          res.failOp("replay point " + std::to_string(k) + " " + req.name + ": " + why);
          return;
        }
      }
    }
    replayMs += msSince(t1);
  });
  const double ops = static_cast<double>(res.attempted);
  setLayerMetrics(res, rec, ops);
  totals.set(res, rec);
  res.set("explore.points_per_s", points / (driverMs / 1000));
  res.set("obs.trace_overhead_pct", 100 * (replayMs / driverMs - 1));
  if (!a.maxOps) writeTrace(a, rec);
  return res;
}

// --- serve -------------------------------------------------------------------

/// A twilld child process on loopback, stopped (and waited for) on scope
/// exit. PR_SET_PDEATHSIG takes it down with the harness if the harness dies.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::string& workDir, std::string& error) {
    portFile_ = workDir + "/twilld-" + std::to_string(getpid()) + ".port";
    std::remove(portFile_.c_str());
    const std::string entries = std::to_string(kServeCacheEntries);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      std::freopen("/dev/null", "w", stdout);
      const char* argv[] = {PERFBENCH_TWILLD, "--port",   "0",
                            "--port-file",    portFile_.c_str(), "--jobs",
                            "1",              "--cache-entries", entries.c_str(),
                            nullptr};
      execv(argv[0], const_cast<char* const*>(argv));
      _exit(127);
    }
    // Port file, then the first 200 from /v1/healthz.
    const uint64_t t0 = nowNs();
    while (msSince(t0) < 20000) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error = "twilld exited during start-up";
        return false;
      }
      if (port_ == 0) {
        const std::string text = readFile(portFile_);
        if (!text.empty() && text.back() == '\n') port_ = static_cast<uint16_t>(std::atoi(text.c_str()));
      }
      if (port_ != 0 && httpRequest(port_, "GET", "/v1/healthz").status == 200) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    error = "twilld did not answer /v1/healthz";
    return false;
  }

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const uint64_t t0 = nowNs();
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (msSince(t0) > 5000) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!portFile_.empty()) std::remove(portFile_.c_str());
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  std::string portFile_;
};

struct ServeReply {
  int status = 0;
  std::string body;
  unsigned polls = 0;
  std::string error;
};

/// One serve operation: submit, then poll the report until it is not 202.
ServeReply serveOp(uint16_t port, const std::string& doc, SpanRecorder* rec, uint64_t id) {
  ServeReply out;
  HttpResult sub;
  {
    SpanRecorder::Scope s(rec, "serve.submit", id);
    sub = httpRequest(port, "POST", "/v1/jobs", doc);
  }
  twill::JsonValue v;
  std::string err;
  const twill::JsonValue* jid = nullptr;
  if (!sub.ok || sub.status != 202 || !twill::parseJson(sub.body, v, err) ||
      !(jid = v.get("job_id")) || !jid->isUnsigned()) {
    out.error = "submit failed: " + std::to_string(sub.status) + " " + sub.error + sub.body;
    return out;
  }
  const std::string target = "/v1/jobs/" + std::to_string(jid->asUnsigned()) + "/report";
  for (;;) {
    HttpResult r;
    {
      SpanRecorder::Scope s(rec, "serve.fetch", id);
      r = httpRequest(port, "GET", target);
    }
    ++out.polls;
    if (!r.ok) {
      out.error = "poll failed: " + r.error;
      return out;
    }
    if (r.status != 202) {
      out.status = r.status;
      out.body = std::move(r.body);
      return out;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kPollSleepUs));
  }
}

/// Value of one Prometheus sample line ("name{labels} value").
double promValue(const std::string& text, const std::string& series) {
  const size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return -1;
  return std::atof(text.c_str() + at + series.size() + 2);
}

Result runServe(const Args& a, const Stream& s) {
  Result res;
  struct Expected {
    int status = 0;
    std::string doc;
    twill::CompileRequest req;
    twill::BenchmarkReport rep;
  };
  std::map<std::string, Expected> oracle;  // document -> expected reply
  CacheCounts perBlock;
  std::string error;
  if (!modelCache(s, kServeCacheEntries, 1, perBlock, error)) {
    res.fail("serve stream: " + error);
    return res;
  }

  // The oracle: an in-process runCompileRequest per distinct document,
  // before (and not part of) set-up.
  SpanRecorder rec;
  ReplayTotals totals;
  if (!a.setupOnly) {
    for (const Op& op : s.block) {
      if (oracle.count(op.document)) continue;
      Expected& e = oracle[op.document];
      if (!twill::parseCompileRequest(op.document, e.req, error)) {
        res.fail("oracle parse: " + error);
        continue;
      }
      const uint64_t t0 = nowNs();
      e.rep = twill::runCompileRequest(e.req);
      if (op.outcome == Outcome::Miss) totals.addStages(e.rep, msSince(t0));
      e.status = e.rep.ok ? 200 : twill::httpStatusForFailure(e.rep.failureKind);
      e.doc = twill::reportToJson(e.rep) + "\n";
    }
  }
  std::set<std::string> verified;  // reply bodies already found equal
  auto check = [&](const Op& op, const ServeReply& r, bool countOp) {
    std::string why;
    const Expected& e = oracle[op.document];
    if (!r.error.empty()) {
      why = r.error;
    } else if (r.status != e.status) {
      why = "status " + std::to_string(r.status) + ", expected " + std::to_string(e.status);
    } else if (!verified.count(r.body) && documentsEqualModuloWall(r.body, e.doc, why)) {
      verified.insert(r.body);
    }
    if (!why.empty()) {
      const std::string msg = std::string("serve ") + outcomeName(op.outcome) + " " +
                              kernelOf(op).name + ": " + why;
      countOp ? res.failOp(msg) : res.fail(msg);
    }
  };

  prctl(PR_SET_TIMERSLACK, 1000UL);  // let the poll sleep be as short as asked
  const uint64_t setup0 = nowNs();
  Daemon d;
  if (!d.start(a.workDir, error)) {
    res.fail(error);
    return res;
  }
  std::vector<ServeReply> warmup;  // one block, which also fills the caches
  for (const Op& op : s.block) warmup.push_back(serveOp(d.port(), op.document, nullptr, 0));
  res.setupS = msSince(setup0) / 1000;
  for (size_t i = 0; i < warmup.size(); ++i) {
    if (!a.setupOnly) check(s.block[i], warmup[i], false);
    else if (warmup[i].status != 200) res.fail("warm-up status " + std::to_string(warmup[i].status));
  }
  if (a.setupOnly) return res;

  std::vector<double> lat;
  std::map<Outcome, std::pair<double, double>> byClass;  // outcome -> (ms sum, count)
  double tracedMs = 0, tracedOps = 0, plainMs = 0, plainOps = 0, polls = 0;
  // outcome -> polls (4 = four or more) -> latencies of the ops that needed them
  std::map<Outcome, std::map<unsigned, std::vector<double>>> byPolls;
  std::vector<std::pair<size_t, ServeReply>> replies;
  clockid_t daemonClock{};
  if (clock_getcpuclockid(d.pid(), &daemonClock) != 0) {
    res.fail("cannot read twilld's CPU clock");
    return res;
  }
  auto daemonCpuSeconds = [&] {
    timespec ts{};
    clock_gettime(daemonClock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  };
  auto work = [&] {
    return WorkTime{static_cast<double>(nowNs()) / 1e9, processCpuSeconds() + daemonCpuSeconds()};
  };
  const double daemonCpu0 = daemonCpuSeconds();
  // Traced runs alternate traced and untraced blocks; the difference is the
  // tracing overhead.
  const auto costs = runTimed(a, s, a.trace ? 2 : 1, work,
                               [&](unsigned b, const Op& op, uint64_t id) {
    const bool traced = a.trace && b % 2 == 0;
    SpanRecorder* r = traced ? &rec : nullptr;
    if (traced) {
      SpanRecorder::Scope probe(&rec, "serve.healthz", id);
      if (httpRequest(d.port(), "GET", "/v1/healthz").status != 200) res.fail("healthz probe");
    }
    const uint64_t t0 = nowNs();
    ServeReply reply;
    {
      SpanRecorder::Scope root(r, "op", id);
      reply = serveOp(d.port(), op.document, r, id);
    }
    const double ms = msSince(t0);
    lat.push_back(ms);
    byClass[op.outcome].first += ms;
    byClass[op.outcome].second += 1;
    (traced ? tracedMs : plainMs) += ms;
    (traced ? tracedOps : plainOps) += 1;
    polls += reply.polls;
    byPolls[op.outcome][std::min(reply.polls, 4u)].push_back(ms);
    replies.push_back({static_cast<size_t>(id % s.block.size()), std::move(reply)});
  });
  const double daemonCpu = daemonCpuSeconds() - daemonCpu0;
  const HttpResult stats = httpRequest(d.port(), "GET", "/v1/stats");
  const HttpResult metrics = httpRequest(d.port(), "GET", "/v1/metrics");
  const double daemonRss = peakRssMiB(std::to_string(d.pid()));

  for (const auto& [idx, reply] : replies) check(s.block[idx], reply, true);
  res.attempted = replies.size();

  // Cache outcomes are known in advance: warm-up block + timed blocks.
  const uint64_t cacheBlocks = 1 + replies.size() / s.block.size();
  CacheCounts want;
  if (!modelCache(s, kServeCacheEntries, cacheBlocks, want, error)) res.fail(error);
  twill::JsonValue sv;
  const twill::JsonValue* cache = nullptr;
  if (!stats.ok || !twill::parseJson(stats.body, sv, error) || !(cache = sv.get("cache")))
    res.fail("cannot read /v1/stats");
  auto counter = [&](const char* key) {
    const twill::JsonValue* v = cache ? cache->get(key) : nullptr;
    return v && v->isUnsigned() ? v->asUnsigned() : UINT64_MAX;
  };
  const uint64_t fullHits = counter("full_hits"), artifactHits = counter("artifact_hits"),
                 misses = counter("misses");
  if (fullHits != want.fullHits || artifactHits != want.artifactHits || misses != want.misses)
    res.fail("/v1/stats full/artifact hits/misses = " + std::to_string(fullHits) + "/" +
             std::to_string(artifactHits) + "/" + std::to_string(misses) + ", stream expects " +
             std::to_string(want.fullHits) + "/" + std::to_string(want.artifactHits) + "/" +
             std::to_string(want.misses));
  const double evResp = promValue(metrics.body, "twilld_cache_evictions_total{cache=\"response\"}");
  const double evArt = promValue(metrics.body, "twilld_cache_evictions_total{cache=\"artifact\"}");
  if (evResp != static_cast<double>(want.responseEvictions) ||
      evArt != static_cast<double>(want.artifactEvictions))
    res.fail("evictions response/artifact = " + std::to_string(evResp) + "/" +
             std::to_string(evArt) + ", stream expects " + std::to_string(want.responseEvictions) +
             "/" + std::to_string(want.artifactEvictions));

  const double ops = static_cast<double>(replies.size());
  // Each outcome's poll modes: share of its operations that needed 1, 2, 3
  // and 4+ polls, and their median latency.
  for (auto& [o, modes] : byPolls) {
    std::fprintf(stderr, "  polls %-13s", outcomeName(o));
    for (auto& [p, v] : modes) {
      std::sort(v.begin(), v.end());
      std::fprintf(stderr, "  %u%s: %5.1f%% p50 %.3f ms", p, p == 4 ? "+" : "",
                   100 * static_cast<double>(v.size()) / byClass[o].second,
                   percentileSorted(v, 0.5));
    }
    std::fprintf(stderr, "\n");
  }
  if (!a.trace) {
    setLatencyMetrics(res, s, lat, costs);
    res.set("setup_s", res.setupS);
    res.set("peak_rss_mib", daemonRss);
    return res;
  }

  // The compile and simulation work of one block, replayed in-process layer
  // by layer (what twilld runs for its misses and artifact hits).
  std::map<std::string, ReplayResult> compiled;  // compile key -> replay
  uint64_t rid = 1u << 30;
  for (const Op& op : s.block) {
    if (op.outcome == Outcome::FullHit) continue;
    const Expected& e = oracle[op.document];
    const std::string key = twill::compileCacheKey(e.req);
    std::string why;
    SpanRecorder::Scope root(&rec, "serve.replay", ++rid);
    if (op.outcome == Outcome::Miss) {
      ReplayResult& r = compiled[key] = replayReport(e.req.source, e.req.options, rec, rid);
      if (!matchesDriver(r, e.rep, why)) res.fail("serve replay " + e.req.name + ": " + why);
      totals.add(r);
    } else if (auto it = compiled.find(key); it != compiled.end() && it->second.prog) {
      ReplayResult& r = it->second;
      twill::SimConfig sim = e.req.options.sim;
      sim.memoryBytes = e.req.options.limits.memLimitBytes;
      sim.wallBudgetMs = e.req.options.limits.stageTimeoutMs;
      twill::SimOutcome o;
      {
        SpanRecorder::Scope span(&rec, "sim.twill", rid);
        o = twill::simulateTwill(*r.module, r.dswp, sim, r.schedules, r.prog.get());
      }
      if (!sameTwillOutcome(o, e.rep, why)) res.fail("serve replay " + e.req.name + ": " + why);
    } else {
      res.fail("serve replay: artifact hit before its miss");
    }
  }
  setLayerMetrics(res, rec, static_cast<double>(s.block.size()));
  totals.set(res, rec);
  res.set("serve.polls_per_op", polls / ops);
  res.set("serve.full_hit_ms", byClass[Outcome::FullHit].first / byClass[Outcome::FullHit].second);
  res.set("serve.artifact_hit_ms",
          byClass[Outcome::ArtifactHit].first / byClass[Outcome::ArtifactHit].second);
  res.set("serve.miss_ms", byClass[Outcome::Miss].first / byClass[Outcome::Miss].second);
  const double lookups = static_cast<double>(fullHits + artifactHits + misses);
  res.set("serve.cache_hit_ratio", static_cast<double>(fullHits + artifactHits) / lookups);
  res.set("serve.cache_lookups", lookups);
  res.set("serve.evictions", evResp + evArt);
  res.set("serve.daemon_cpu_ms_per_op", daemonCpu * 1000 / ops);
  res.set("obs.trace_overhead_pct", 100 * ((tracedMs / tracedOps) / (plainMs / plainOps) - 1));
  if (!a.maxOps) writeTrace(a, rec);
  return res;
}

Result runWorkload(const Args& a, const std::map<std::string, BaselineKernel>& base) {
  const Stream s = makeStream(a.workload, a.seed);
  switch (a.workload) {
    case Workload::Report: return runReport(a, s, base);
    case Workload::Explore: return runExplore(a, s, base);
    case Workload::Serve: break;
  }
  return runServe(a, s);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload report|explore|serve --seed N --seconds S\n"
               "                         --trace 0|1 [--setup-only] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      if (!parseWorkload(value(), a.workload)) usage("unknown workload");
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--setup-only") {
      a.setupOnly = true;
    } else if (arg == "--work-dir") {
      a.workDir = value();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");

  std::map<std::string, BaselineKernel> base;
  std::string error;
  if (!loadBaseline(PERFBENCH_BASELINE, base, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  Result res = runWorkload(a, base);
  if (a.setupOnly) {
    if (!res.correct) return 1;
    std::printf("{\"setup_s\": %.9g}\n", res.setupS);
    return 0;
  }
  if (!a.trace) {
    res.print(endToEndMetrics());
    return 0;
  }
  // Every per-layer metric is reported on every traced run: the explore and
  // serve layers a workload never runs come from a short traced sample,
  // outside this run's timing. The explore sample is two explorations of
  // gsm (the p50 class of report), whatever the seed; the serve sample is
  // the first block of the seed's serve stream, whose class counts every
  // seed shares.
  for (Workload other : {Workload::Explore, Workload::Serve}) {
    if (other == a.workload) continue;
    Args sample = a;
    sample.workload = other;
    Stream s = makeStream(other, a.seed);
    if (other == Workload::Explore) {
      Op gsm;
      gsm.kernel = kernelIndex("gsm");
      s.block = {gsm};
      sample.maxOps = 2;
    } else {
      sample.maxOps = s.block.size();
    }
    std::fprintf(stderr, "perfbench: %s sample (%s layers only):\n", workloadName(other),
                 workloadName(other));
    const Result r = other == Workload::Explore ? runExplore(sample, s, base) : runServe(sample, s);
    if (!r.correct || r.failed) res.fail(std::string(workloadName(other)) + " sample failed");
    const std::string prefix = std::string(workloadName(other)) + ".";
    for (const auto& [name, value] : r.metrics)
      if (name.compare(0, prefix.size(), prefix) == 0) res.set(name, value);
  }
  res.print(perLayerMetrics());
  return 0;
}
