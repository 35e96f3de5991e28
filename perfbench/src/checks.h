// Output checks: every operation's result is compared against a reference
// that does not come from the run being measured.
//
//  * report:  the kernel's entry in the committed bench/baseline/BENCH_dswp.json
//             (the bench gate's definition of same behaviour), every field
//             but the machine-dependent *_wall_ms ones.
//  * explore: every point ok; the grid points that coincide with
//             bench_main's Fig. 6.5/6.6 sweeps reproduce the baseline's sweep
//             cycles; the default point reproduces the baseline report.
//  * serve:   status and document equal an in-process runCompileRequest of
//             the same document (checked by the harness).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/explore/explorer.h"
#include "src/support/json.h"

namespace perfbench {

/// Structural JSON equality, ignoring every member whose key ends in
/// "_wall_ms". `why` names the first differing path.
bool equalModuloWall(const twill::JsonValue& a, const twill::JsonValue& b, std::string& why,
                     const std::string& path = "");

/// Parses both documents and compares them modulo *_wall_ms.
bool documentsEqualModuloWall(const std::string& a, const std::string& b, std::string& why);

struct BaselineKernel {
  twill::JsonValue report;
  std::map<unsigned, uint64_t> latencySweep;   // queue_latency -> cycles (capacity 8)
  std::map<unsigned, uint64_t> capacitySweep;  // queue_capacity -> cycles (latency 2)
};

/// Loads bench/baseline/BENCH_dswp.json, keyed by kernel name.
bool loadBaseline(const std::string& path, std::map<std::string, BaselineKernel>& out,
                  std::string& error);

bool checkReport(const twill::BenchmarkReport& rep, const BaselineKernel& base, std::string& why);

/// The explore grid every explore operation sweeps.
twill::ParamSpace exploreGrid();

bool checkExplore(const twill::ExploreResult& res, const BaselineKernel& base, std::string& why);

}  // namespace perfbench
