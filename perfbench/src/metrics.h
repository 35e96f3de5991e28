// Metric names and units the harness prints; BENCHMARK.json lists the same
// names (perfbench_test checks the two agree).
#pragma once

#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, per workload.
inline const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"latency_ms_p50", "ms"},      {"latency_ms_p90", "ms"}, {"throughput_ops_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},       {"setup_s", "s"},         {"peak_rss_mib", "MiB"},
  };
  return kDefs;
}

/// Printed with --trace 1. `*_ms` are self times per operation unless the
/// README says otherwise; a layer the workload never runs reads 0.
inline const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"frontend.compile_ms", "ms"},
      {"frontend.ir_insts", "count"},
      {"transforms.passes_ms", "ms"},
      {"transforms.ir_insts", "count"},
      {"ir.verify_ms", "ms"},
      {"ir.golden_ms", "ms"},
      {"hls.schedule_ms", "ms"},
      {"dswp.extract_ms", "ms"},
      {"dswp.queues", "count"},
      {"dswp.semaphores", "count"},
      {"dswp.hw_threads", "count"},
      {"verify.partition_ms", "ms"},
      {"exec.decode_ms", "ms"},
      {"sim.sw_ms", "ms"},
      {"sim.hw_ms", "ms"},
      {"sim.twill_ms", "ms"},
      {"sim.sw_cycles", "count"},
      {"sim.hw_cycles", "count"},
      {"sim.twill_cycles", "count"},
      {"sim.twill_ns_per_cycle", "ns"},
      {"driver.stage_coverage", "ratio"},
      {"explore.anchor_ms", "ms"},
      {"explore.resim_ms", "ms"},
      {"explore.points_per_s", "1/s"},
      {"serve.submit_ms", "ms"},
      {"serve.fetch_ms", "ms"},
      {"serve.polls_per_op", "count"},
      {"serve.full_hit_ms", "ms"},
      {"serve.artifact_hit_ms", "ms"},
      {"serve.miss_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.evictions", "count"},
      {"serve.healthz_ms", "ms"},
      {"serve.daemon_cpu_ms_per_op", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kDefs;
}

}  // namespace perfbench
