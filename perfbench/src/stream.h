// Seeded operation streams for the three benchmark workloads.
//
// A stream is one *block* of operations that a run repeats verbatim until
// its time budget is spent, so every run executes whole blocks: the same
// multiset of operations in the same order, whatever the machine's speed.
// The seed only permutes and re-labels (which kernel lands where, which
// sw_fraction a serve miss uses, which sched_quantum an artifact hit uses); the
// per-block class counts are fixed per workload, so percentile ranks land
// at the same place inside the same class band on every run and seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload : uint8_t { Report, Explore, Serve };

bool parseWorkload(const std::string& name, Workload& out);
const char* workloadName(Workload w);

/// The cache outcome a serve operation is built to produce in twilld's
/// two-level cache (src/serve/service.h). None for report/explore.
enum class Outcome : uint8_t { None, FullHit, ArtifactHit, Miss };
const char* outcomeName(Outcome o);

struct Op {
  unsigned kernel = 0;  // index into twill::chstoneKernels()
  Outcome outcome = Outcome::None;
  std::string document;  // serve: the CompileRequest body POSTed to /v1/jobs
};

/// Index of a CHStone kernel in twill::chstoneKernels(); throws when unknown.
unsigned kernelIndex(const char* name);

struct Stream {
  Workload workload = Workload::Report;
  uint64_t seed = 0;
  std::vector<Op> block;  // repeated verbatim
};

Stream makeStream(Workload w, uint64_t seed);

/// Class of an operation for band placement: "report:aes",
/// "serve:miss:gsm", ...
std::string className(Workload w, const Op& op);

/// Two measured cost tables: each class's p10 (the host's quiet end) and its
/// p90 (the loaded end); the cost order of the classes differs between them.
enum class CostTable : uint8_t { Light, Heavy };

/// Latency range of a class in ms: lo == hi for a single-mode class, the
/// two modes for one that has two (serve full hits: one poll or two).
struct CostRange {
  double lo, hi;
};

/// Measured latency of an operation's class (STEADINESS.md, "Class
/// costs"). Used only to check where a percentile rank falls; never to
/// compute a metric.
CostRange costRangeMs(Workload w, const Op& op, CostTable t);

/// True when the operations within +-`window` (a share of the block) of
/// rank `q`, in one block sorted by cost, all have their whole cost range
/// within a factor (1 +- `tol`) of the cost of the operation at rank q —
/// the rank sits inside one single-mode class band, away from any gap
/// between bands. `why` names the offender.
bool rankInsideBand(const Stream& s, CostTable t, double q, double window, double tol,
                    std::string* why);

/// The sched_quantum values serve artifact hits draw from (with two
/// processors).
const std::vector<unsigned>& serveArtifactQuanta();

/// The sw_fraction values serve misses draw from.
const std::vector<double>& serveSwFractions();

/// Nearest-rank percentile of `sorted` (ascending): element ceil(q*n)-1.
double percentileSorted(const std::vector<double>& sorted, double q);

// --- serve cache model -----------------------------------------------------

/// twilld's response-cache and artifact-cache entry cap for the serve
/// workload (`--cache-entries`). Small, so every miss evicts once warm.
inline constexpr size_t kServeCacheEntries = 4;

struct CacheCounts {
  uint64_t fullHits = 0;
  uint64_t artifactHits = 0;
  uint64_t misses = 0;
  uint64_t responseEvictions = 0;
  uint64_t artifactEvictions = 0;
};

/// Runs `blocks` repetitions of the serve block through an LRU model of
/// twilld's two caches (keys from twill::requestCacheKey/compileCacheKey,
/// `entries` slots each, entry-count bound only). Fails, naming the op,
/// when any operation would not get its intended outcome.
bool modelCache(const Stream& s, size_t entries, uint64_t blocks, CacheCounts& out,
                std::string& error);

}  // namespace perfbench
