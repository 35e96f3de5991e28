#include "src/verify/partition_verifier.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/domtree.h"
#include "src/analysis/loopinfo.h"
#include "src/ir/id_lease.h"

namespace twill {
namespace {

struct Site {
  Function* fn = nullptr;
  Instruction* inst = nullptr;
};

/// "[fn] block 'name'" provenance prefix shared by all diagnostics, matching
/// the IR verifier's "[fn]" convention.
std::string at(const Instruction* inst) {
  return "[" + inst->parent()->parent()->name() + "] block '" + inst->parent()->name() + "'";
}

std::string channelDesc(const ChannelInfo* ch, int id) {
  std::string s = "channel " + std::to_string(id);
  if (ch && !ch->note.empty()) s += " (" + ch->note + ")";
  return s;
}

std::string semDesc(const SemaphoreInfo* sem, int id) {
  std::string s = "semaphore " + std::to_string(id);
  if (sem && !sem->note.empty()) s += " (" + sem->note + ")";
  return s;
}

/// Dense slots for the channel (or semaphore) ids of one module: the
/// DswpResult table's ids first, in table order, then ids only sites name.
/// Each slot holds its table entry (null for an unknown id) and its sites,
/// produce/consume or raise/lower, in module order.
template <class Info>
struct IdSlots {
  std::unordered_map<int, unsigned> slotOf;
  std::vector<const Info*> info;
  std::vector<std::vector<Site>> adds, takes;

  size_t size() const { return info.size(); }
  unsigned slot(int key) {
    auto [it, fresh] = slotOf.try_emplace(key, static_cast<unsigned>(info.size()));
    if (fresh) {
      info.push_back(nullptr);
      adds.emplace_back();
      takes.emplace_back();
    }
    return it->second;
  }
  /// Slot of `key`, or -1 when neither the table nor any site names it.
  int find(int key) const {
    auto it = slotOf.find(key);
    return it == slotOf.end() ? -1 : static_cast<int>(it->second);
  }
};

/// Everything the three analyses need, gathered in one scan of the module:
/// channel and semaphore slots with their sites, the thread structure, and
/// dense ids. For the index's lifetime every instruction holds a
/// module-wide leased id and every block one that is dense per function
/// (a function's blocks are contiguous from its entry's id).
struct ModuleIndex {
  IdSlots<ChannelInfo> chans;
  IdSlots<SemaphoreInfo> sems;
  std::unordered_set<Function*> slaveFns;
  std::unordered_map<Function*, std::string> threadName;  // thread root -> origin
  // Function slots: the module's functions in order, then any other
  // function a thread or call names (including a null callee).
  std::unordered_map<Function*, unsigned> fnSlotOf;
  std::vector<char> fnInModule;  // by function slot
  // By leased instruction id: the owning function's slot, and the operand
  // slot of ops the startup game resolves (channel, semaphore, callee).
  std::vector<unsigned> instFn, instSlot;
  IdLease<Instruction> insts;
  IdLease<BasicBlock> blocks;

  ModuleIndex(Module& m, const DswpResult& dswp, DiagEngine& diag);

  unsigned fnSlot(Function* f) {
    auto [it, fresh] = fnSlotOf.try_emplace(f, static_cast<unsigned>(fnInModule.size()));
    if (fresh) fnInModule.push_back(0);
    return it->second;
  }
};

ModuleIndex::ModuleIndex(Module& m, const DswpResult& dswp, DiagEngine& diag) {
  for (const auto& ch : dswp.channels) chans.info[chans.slot(ch.id)] = &ch;
  for (const auto& sem : dswp.semaphores) sems.info[sems.slot(sem.id)] = &sem;
  for (const auto& t : dswp.threads) {
    threadName[t.fn] = t.origin;
    if (t.isSlave) slaveFns.insert(t.fn);
  }
  for (auto& f : m.functions()) fnInModule[fnSlot(f)] = 1;
  for (auto& f : m.functions()) {
    const unsigned fs = fnSlot(f);
    for (auto& bb : f->blocks()) {
      blocks.lease(bb);
      for (auto& inst : *bb) {
        insts.lease(inst);
        instFn.push_back(fs);
        unsigned slot = 0;
        const int id = inst->channel();
        switch (inst->op()) {
          case Opcode::Produce:
          case Opcode::Consume: {
            slot = chans.slot(id);
            auto& sites = inst->op() == Opcode::Produce ? chans.adds : chans.takes;
            sites[slot].push_back({f, inst});
            if (!chans.info[slot])
              diag.error({}, at(inst) + ": " + opcodeName(inst->op()) +
                                 " references unknown channel " + std::to_string(id));
            break;
          }
          case Opcode::SemRaise:
          case Opcode::SemLower: {
            slot = sems.slot(id);
            auto& sites = inst->op() == Opcode::SemRaise ? sems.adds : sems.takes;
            sites[slot].push_back({f, inst});
            if (!sems.info[slot])
              diag.error({}, at(inst) + ": " + opcodeName(inst->op()) +
                                 " references unknown semaphore " + std::to_string(id));
            break;
          }
          case Opcode::Call: slot = fnSlot(inst->callee()); break;
          default: break;
        }
        instSlot.push_back(slot);
      }
    }
  }
  for (const auto& t : dswp.threads) fnSlot(t.fn);
  fnSlot(dswp.mainMaster);
}

// ---------------------------------------------------------------------------
// (a) Endpoint discipline.
//
// Channels are point-to-point queues: exactly one function produces, exactly
// one consumes, and they differ. The check runs at function (not thread)
// granularity because a callee master executes inline in every calling
// thread — its produce sites legitimately run under several threads, but
// always from the same static function.
// ---------------------------------------------------------------------------

/// Distinct functions among `sites`, in module order (sites are gathered in
/// one module-order scan, so first appearance is module order).
std::vector<Function*> siteFns(const std::vector<Site>& sites) {
  std::vector<Function*> fns;
  for (const Site& s : sites)
    if (std::find(fns.begin(), fns.end(), s.fn) == fns.end()) fns.push_back(s.fn);
  return fns;
}

/// The one function all `sites` belong to, or null when there are several.
Function* soleFn(const std::vector<Site>& sites) {
  for (const Site& s : sites)
    if (s.fn != sites.front().fn) return nullptr;
  return sites.front().fn;
}

std::string fnList(const std::vector<Function*>& fns) {
  std::string out;
  for (Function* f : fns) {
    if (!out.empty()) out += ", ";
    out += "[" + f->name() + "]";
  }
  return out;
}

/// A channel that passes the endpoint rules, with its unique (producer,
/// consumer) pair; only these are worth balance-checking.
struct CleanChannel {
  unsigned slot = 0;
  Function* producer = nullptr;
  Function* consumer = nullptr;
};

/// Clean channels keyed (and so balance-checked) by channel id.
std::map<int, CleanChannel> checkEndpoints(const ModuleIndex& idx, const DswpResult& dswp,
                                           DiagEngine& diag) {
  std::map<int, CleanChannel> clean;
  for (const auto& ch : dswp.channels) {
    const unsigned slot = idx.chans.slotOf.at(ch.id);
    const std::vector<Site>& prods = idx.chans.adds[slot];
    const std::vector<Site>& conss = idx.chans.takes[slot];
    if (prods.empty() && conss.empty()) {
      diag.warning({}, channelDesc(&ch, ch.id) + " has no produce or consume sites");
      continue;
    }
    if (prods.empty()) {
      diag.error({}, at(conss.front().inst) + ": consumes " + channelDesc(&ch, ch.id) +
                         " which no function produces; the consume can never unblock");
      continue;
    }
    if (conss.empty()) {
      diag.error({}, at(prods.front().inst) + ": produces " + channelDesc(&ch, ch.id) +
                         " which no function consumes; the queue fills and the produce blocks");
      continue;
    }
    Function* producer = soleFn(prods);
    Function* consumer = soleFn(conss);
    if (!producer) {
      const std::vector<Function*> fns = siteFns(prods);
      diag.error({}, channelDesc(&ch, ch.id) + " is produced by " + std::to_string(fns.size()) +
                         " functions (" + fnList(fns) + "); DSWP queues are point-to-point");
    }
    if (!consumer) {
      const std::vector<Function*> fns = siteFns(conss);
      diag.error({}, channelDesc(&ch, ch.id) + " is consumed by " + std::to_string(fns.size()) +
                         " functions (" + fnList(fns) + "); DSWP queues are point-to-point");
    }
    if (!producer || !consumer) continue;
    if (producer == consumer) {
      diag.error({}, "[" + producer->name() + "] both produces and consumes " +
                         channelDesc(&ch, ch.id) +
                         "; a queue endpoint pair must span two threads");
      continue;
    }
    clean[ch.id] = {slot, producer, consumer};
  }
  return clean;
}

// ---------------------------------------------------------------------------
// Loop context shared by the balance analyses.
//
// A slave runs `for(;;){ consume(start); body; produce(done); }`, so its
// per-invocation region is the dispatch loop's body, not the whole function;
// the dispatch loop itself (found as the outermost loop around the
// start-channel consume) is excluded from every loop chain. Loops are
// matched across partitions by their replicated header names with the
// extractor's ".p<N>" suffix stripped (control replication clones blocks
// under the same base name, and cleanup keeps header names because headers
// retain >= 2 predecessors for as long as the loop exists).
//
// A loop's relative chain is named by the "/"-joined base names of its
// headers, outermost first (the empty name is the region itself). Names are
// interned module-wide, so matching a producer's loop with a consumer's is
// an integer compare; each function's context is computed once.
// ---------------------------------------------------------------------------

constexpr int kRegionKey = 0;  // interned id of the empty chain name

struct FnLoops {
  Function* fn = nullptr;
  DomTree dom;
  LoopInfo loops;
  Loop* dispatch = nullptr;  // slaves only; null when not found
  bool isSlave = false;
  std::vector<BasicBlock*> rets;  // blocks ending in Ret
  unsigned blockBase = 0;         // leased id of the entry block
  // By block (leased id - blockBase):
  //  * its innermost loop (null outside any);
  //  * the chain key of that loop (kRegionKey outside any, or for the
  //    dispatch loop), or -1 when the block has no per-invocation chain (a
  //    slave block outside its dispatch loop);
  //  * whether it runs once per iteration of its region: 1/0 once
  //    unconditional() has been asked, -1 before.
  std::vector<Loop*> blockLoop;
  std::vector<int> blockKey;
  mutable std::vector<signed char> blockUncond;
  /// By interned key: how many distinct relative loops carry it (a
  /// duplicated key cannot be matched unambiguously); absent = 0.
  std::vector<int> keyCount;

  unsigned local(const BasicBlock* bb) const { return bb->id() - blockBase; }
  int keyMultiplicity(int key) const {
    return static_cast<size_t>(key) < keyCount.size() ? keyCount[key] : 0;
  }
  bool unconditional(BasicBlock* bb) const;
};

std::string stripPartitionSuffix(const std::string& name) {
  const size_t pos = name.rfind(".p");
  if (pos == std::string::npos || pos + 2 >= name.size()) return name;
  for (size_t i = pos + 2; i < name.size(); ++i)
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return name;
  return name.substr(0, pos);
}

/// Loops enclosing `l` from outermost to innermost (inclusive), relative to
/// the function's per-invocation region. Returns false when the chain cannot
/// be made relative (a slave loop outside its dispatch loop runs once ever,
/// not once per invocation).
bool loopChain(const FnLoops& fl, Loop* l, std::vector<Loop*>& out) {
  out.clear();
  bool sawDispatch = fl.dispatch == nullptr;
  for (Loop* cur = l; cur; cur = cur->parent) {
    if (cur == fl.dispatch) {
      sawDispatch = true;
      break;
    }
    out.push_back(cur);
  }
  if (fl.isSlave && !sawDispatch) return false;
  std::reverse(out.begin(), out.end());
  return true;
}

std::string chainKey(const std::vector<Loop*>& chain) {
  std::string key;
  for (Loop* l : chain) {
    if (!key.empty()) key += "/";
    key += stripPartitionSuffix(l->header->name().str());
  }
  return key;
}

/// True when `bb` executes exactly once per iteration of its region: inside
/// a loop, it must dominate every latch (each completed iteration passes
/// it); at region level it must dominate every region exit. `bb` must have a
/// chain (blockKey >= 0).
bool FnLoops::unconditional(BasicBlock* bb) const {
  signed char& known = blockUncond[local(bb)];
  if (known >= 0) return known;
  auto dominatesAll = [&](const std::vector<BasicBlock*>& exits) {
    for (BasicBlock* e : exits)
      if (!dom.dominates(bb, e)) return false;
    return true;
  };
  Loop* inner = blockLoop[local(bb)];
  if (inner && inner != dispatch)
    known = dominatesAll(inner->latches());
  else if (isSlave)
    known = dispatch && dominatesAll(dispatch->latches());
  else
    known = !rets.empty() && dominatesAll(rets);
  return known;
}

class LoopContextCache {
public:
  explicit LoopContextCache(const ModuleIndex& idx) : idx_(idx) { intern(""); }

  const FnLoops& get(Function* f) {
    auto it = cache_.find(f);
    if (it != cache_.end()) return *it->second;
    auto fl = std::make_unique<FnLoops>();
    fl->fn = f;
    fl->dom.build(*f, /*postDom=*/false);
    fl->loops.build(*f, fl->dom);
    fl->isSlave = idx_.slaveFns.count(f) != 0;
    for (auto& bb : f->blocks()) {
      Instruction* term = bb->terminator();
      if (term && term->op() == Opcode::Ret) fl->rets.push_back(bb);
      if (!fl->isSlave || fl->dispatch) continue;
      for (auto& inst : *bb) {
        if (inst->op() != Opcode::Consume) continue;
        const int slot = idx_.chans.find(inst->channel());
        const ChannelInfo* ch = slot < 0 ? nullptr : idx_.chans.info[slot];
        if (!ch || ch->purpose != ChannelInfo::Purpose::Start) continue;
        Loop* l = fl->loops.loopFor(bb);
        while (l && l->parent) l = l->parent;
        fl->dispatch = l;
        break;
      }
    }

    // Chain key per loop (kRegionKey for the dispatch loop, whose chain is
    // empty; -1 when not relative), counted for every loop but dispatch.
    std::unordered_map<const Loop*, int> loopKey;
    std::vector<Loop*> chain;
    for (const auto& l : fl->loops.loops()) {
      int key = -1;
      if (loopChain(*fl, l.get(), chain)) key = intern(chainKey(chain));
      loopKey[l.get()] = key;
      if (key < 0 || l.get() == fl->dispatch) continue;
      if (fl->keyCount.size() <= static_cast<size_t>(key)) fl->keyCount.resize(key + 1, 0);
      ++fl->keyCount[key];
    }
    fl->blockBase = f->entry() ? f->entry()->id() : 0;
    for (auto& bb : f->blocks()) {
      Loop* l = fl->loops.loopFor(bb);
      fl->blockLoop.push_back(l);
      fl->blockKey.push_back(l ? loopKey.at(l) : fl->isSlave ? -1 : kRegionKey);
    }
    fl->blockUncond.assign(fl->blockKey.size(), -1);

    const FnLoops& ref = *fl;
    cache_[f] = std::move(fl);
    return ref;
  }

  const std::string& keyName(int key) const { return names_[key]; }

private:
  int intern(const std::string& name) {
    auto [it, fresh] = ids_.try_emplace(name, static_cast<int>(names_.size()));
    if (fresh) names_.push_back(name);
    return it->second;
  }

  const ModuleIndex& idx_;
  std::unordered_map<Function*, std::unique_ptr<FnLoops>> cache_;
  std::unordered_map<std::string, int> ids_;
  std::vector<std::string> names_;
};

// ---------------------------------------------------------------------------
// (b1) Channel token balance.
//
// For one channel with its unique producer P and consumer C: attribute every
// site to the base-name path of its enclosing relative loops, pin each
// attribution to a constant per-iteration count when the site is
// unconditional, and flag matched loops whose constants disagree. A delta
// the analysis cannot pin (conditional site, loop present on only one side
// after per-partition cleanup, ambiguous names) is skipped, never reported
// — incomplete by design so extractor output is never falsely rejected.
// ---------------------------------------------------------------------------

struct Delta {
  long count = 0;
  bool varies = false;
  Instruction* site = nullptr;  // representative, for provenance
};

struct SideDeltas {
  std::vector<std::pair<int, Delta>> byKey;  // few keys per channel
  bool analyzable = true;

  Delta* find(int key) {
    for (auto& [k, d] : byKey)
      if (k == key) return &d;
    return nullptr;
  }
};

SideDeltas collectDeltas(const FnLoops& fl, const std::vector<Site>& sites) {
  SideDeltas side;
  for (const Site& s : sites) {
    if (s.fn != fl.fn) continue;
    BasicBlock* bb = s.inst->parent();
    const int key = fl.blockKey[fl.local(bb)];
    if (key < 0) {
      side.analyzable = false;
      return side;
    }
    Delta* d = side.find(key);
    if (!d) d = &side.byKey.emplace_back(key, Delta{}).second;
    if (!d->site) d->site = s.inst;
    if (fl.unconditional(bb))
      d->count += 1;
    else
      d->varies = true;
  }
  return side;
}

void checkChannelBalance(const std::map<int, CleanChannel>& endpoints, const ModuleIndex& idx,
                         LoopContextCache& ctx, DiagEngine& diag) {
  std::vector<int> keys;
  for (const auto& [id, ep] : endpoints) {
    const ChannelInfo* info = idx.chans.info[ep.slot];
    const FnLoops& flP = ctx.get(ep.producer);
    const FnLoops& flC = ctx.get(ep.consumer);
    SideDeltas dp = collectDeltas(flP, idx.chans.adds[ep.slot]);
    SideDeltas dc = collectDeltas(flC, idx.chans.takes[ep.slot]);
    if (!dp.analyzable || !dc.analyzable) continue;

    // The region-level (straight-line) totals are comparable only when every
    // loop-resident site on both sides lives in a loop the other partition
    // also has: per-partition cleanup can dissolve a statically-trivial loop
    // on one side only, and then the sides' counting frames differ.
    bool regionsComparable = true;
    for (const auto& [key, d] : dp.byKey)
      if (key != kRegionKey && !flC.keyMultiplicity(key)) regionsComparable = false;
    for (const auto& [key, d] : dc.byKey)
      if (key != kRegionKey && !flP.keyMultiplicity(key)) regionsComparable = false;

    // Report in key-name order.
    keys.assign(1, kRegionKey);
    for (const auto& [key, d] : dp.byKey) keys.push_back(key);
    for (const auto& [key, d] : dc.byKey) keys.push_back(key);
    std::sort(keys.begin(), keys.end(),
              [&](int a, int b) { return ctx.keyName(a) < ctx.keyName(b); });
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (int key : keys) {
      if (key == kRegionKey) {
        if (!regionsComparable) continue;
      } else {
        const int kp = flP.keyMultiplicity(key);
        const int kc = flC.keyMultiplicity(key);
        if (!kp || !kc) continue;        // unmatched loop
        if (kp > 1 || kc > 1) continue;  // ambiguous name
      }
      const Delta* pd = dp.find(key);
      const Delta* cd = dc.find(key);
      const Delta dProd = pd ? *pd : Delta{};
      const Delta dCons = cd ? *cd : Delta{};
      if (dProd.varies || dCons.varies) continue;
      if (dProd.count == dCons.count) continue;
      const std::string where = key == kRegionKey
                                    ? "per invocation"
                                    : "per iteration of matched loop '" + ctx.keyName(key) + "'";
      Instruction* site = dProd.site ? dProd.site : dCons.site;
      diag.error({}, at(site) + ": " + channelDesc(info, id) + " is unbalanced: [" +
                         ep.producer->name() + "] produces " + std::to_string(dProd.count) + " " +
                         where + " but [" + ep.consumer->name() + "] consumes " +
                         std::to_string(dCons.count) +
                         "; the queue drifts until it overflows or starves");
    }
  }
}

// ---------------------------------------------------------------------------
// (b2) Semaphore balance.
//
// For a semaphore whose raises all live in the same function as its lowers
// (no other thread can replenish it first), two checks:
//  * a loop whose iteration lowers the count more than it raises it
//    exhausts any finite initial count — reported as unbounded lowering;
//  * a best-case forward dataflow computes the maximum possible count
//    offset at every lower; if even the best path leaves the count below
//    zero, the lower blocks on every execution (the static twin of the
//    unseeded-initial-count bug that seedSemaphores() fixed dynamically).
// ---------------------------------------------------------------------------

bool constCount(const Instruction* inst, long& out) {
  const Constant* c = dyn_cast<Constant>(inst->operand(0));
  if (!c) return false;
  out = static_cast<long>(c->zext());
  return true;
}

/// Per-iteration net (raises - lowers) of semaphore `id` in loop `l`, using
/// only sites pinned to exactly-once-per-iteration blocks; subloops must net
/// to zero. Returns false when the net cannot be pinned to a constant.
bool loopSemNet(const FnLoops& fl, Loop* l, const std::vector<Site>& raises,
                const std::vector<Site>& lowers, std::map<Loop*, std::pair<bool, long>>& memo,
                long& out) {
  auto it = memo.find(l);
  if (it != memo.end()) {
    out = it->second.second;
    return it->second.first;
  }
  bool ok = true;
  long net = 0;
  auto addSites = [&](const std::vector<Site>& sites, long sign) {
    for (const Site& s : sites) {
      BasicBlock* bb = s.inst->parent();
      if (s.fn != fl.fn || !l->contains(bb)) continue;
      if (fl.loops.loopFor(bb) != l) continue;  // subloop sites handled below
      long k = 0;
      if (!constCount(s.inst, k)) {
        ok = false;
        continue;
      }
      bool dominatesLatches = true;
      for (BasicBlock* latch : l->latches())
        if (!fl.dom.dominates(bb, latch)) dominatesLatches = false;
      if (!dominatesLatches) {
        ok = false;
        continue;
      }
      net += sign * k;
    }
  };
  addSites(raises, +1);
  addSites(lowers, -1);
  for (Loop* sub : l->subloops) {
    long subNet = 0;
    if (!loopSemNet(fl, sub, raises, lowers, memo, subNet) || subNet != 0) ok = false;
  }
  memo[l] = {ok, net};
  out = net;
  return ok;
}

void checkSemaphoreBalance(const DswpResult& dswp, const ModuleIndex& idx, LoopContextCache& ctx,
                           DiagEngine& diag) {
  for (const auto& sem : dswp.semaphores) {
    const unsigned slot = idx.sems.slotOf.at(sem.id);
    const std::vector<Site>& lowers = idx.sems.takes[slot];
    const std::vector<Site>& raises = idx.sems.adds[slot];
    if (lowers.empty()) {
      if (raises.empty())
        diag.warning({}, semDesc(&sem, sem.id) + " has no raise or lower sites");
      continue;
    }
    for (Function* f : siteFns(lowers)) {
      // Raises in another function may arrive at any point in the schedule;
      // nothing definite can be concluded, so only self-contained functions
      // are checked.
      bool externalRaisers = false;
      for (const Site& s : raises)
        if (s.fn != f) externalRaisers = true;
      if (externalRaisers) continue;

      const FnLoops& fl = ctx.get(f);

      // Unbounded lowering: any loop with a constant negative iteration net.
      std::map<Loop*, std::pair<bool, long>> memo;
      for (const auto& l : fl.loops.loops()) {
        long net = 0;
        if (!loopSemNet(fl, l.get(), raises, lowers, memo, net)) continue;
        if (net >= 0) continue;
        bool hasLower = false;
        for (const Site& s : lowers)
          if (s.fn == f && l->contains(s.inst->parent())) hasLower = true;
        if (!hasLower) continue;
        diag.error({}, "[" + f->name() + "] loop '" + l->header->name() + "': each iteration " +
                           "lowers " + semDesc(&sem, sem.id) + " " + std::to_string(-net) +
                           " more than it raises it, and no other thread raises it; any " +
                           "initial count is eventually exhausted");
      }

      // Best-case offset dataflow: per-block net + the offset right after
      // each lower, then an iterate-to-fixpoint max over paths (capped;
      // non-convergence means a raising loop, where nothing definite holds).
      // Both tables are indexed by the block's dense id within f.
      std::vector<long> blockNet;
      constexpr long kUnreached = LONG_MIN / 4;
      bool allConst = true;
      for (auto& bb : f->blocks()) {
        long net = 0;
        for (auto& inst : *bb) {
          long k = 0;
          if (inst->op() == Opcode::SemRaise && inst->channel() == sem.id) {
            if (!constCount(inst, k)) allConst = false;
            net += k;
          } else if (inst->op() == Opcode::SemLower && inst->channel() == sem.id) {
            if (!constCount(inst, k)) allConst = false;
            net -= k;
          }
        }
        blockNet.push_back(net);
      }
      if (!allConst) continue;
      std::vector<BasicBlock*> rpo = reversePostOrder(*f);
      std::vector<long> maxOff(blockNet.size(), kUnreached);  // stays so when unreachable
      maxOff[fl.local(f->entry())] = 0;
      bool converged = false;
      for (size_t pass = 0; pass < rpo.size() + 3 && !converged; ++pass) {
        converged = true;
        for (BasicBlock* bb : rpo) {
          if (bb == f->entry()) continue;
          long best = kUnreached;
          for (BasicBlock* p : bb->predecessors()) {
            if (p->parent() != f || maxOff[fl.local(p)] == kUnreached) continue;
            best = std::max(best, maxOff[fl.local(p)] + blockNet[fl.local(p)]);
          }
          if (best != maxOff[fl.local(bb)]) {
            maxOff[fl.local(bb)] = best;
            converged = false;
          }
        }
      }
      if (!converged) continue;
      for (const Site& s : lowers) {
        if (s.fn != f) continue;
        BasicBlock* bb = s.inst->parent();
        if (maxOff[fl.local(bb)] == kUnreached) continue;  // unreachable
        long off = maxOff[fl.local(bb)];
        bool found = false;
        for (auto& inst : *bb) {
          long k = 0;
          if (inst->op() == Opcode::SemRaise && inst->channel() == sem.id) {
            constCount(inst, k);
            off += k;
          } else if (inst->op() == Opcode::SemLower && inst->channel() == sem.id) {
            constCount(inst, k);
            off -= k;
            if (inst == s.inst) {
              found = true;
              break;
            }
          }
        }
        if (!found) continue;
        if (off + static_cast<long>(sem.initialCount) < 0) {
          diag.error({}, at(s.inst) + ": " + semDesc(&sem, sem.id) + " is lowered to " +
                             std::to_string(off + static_cast<long>(sem.initialCount)) +
                             " on every path (initial count " +
                             std::to_string(sem.initialCount) +
                             ", and no other thread raises it first); this lower always " +
                             "blocks");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (c) Startup-progress game (wait-cycle detection).
//
// Abstract execution in which every blocking operation is resolved as
// optimistically as any real schedule ever could: a produce never blocks
// (queues start empty with capacity >= 1), a consume unblocks once its
// channel was ever produced to, a semaphore lower unblocks once the count
// was ever raised or its initial count is positive, and a call completes
// once the callee's return was ever reached. All facts are monotone, so the
// worklist reaches a fixpoint. Because the abstraction over-approximates
// progress, "the main master cannot reach its return at the fixpoint"
// implies no real schedule reaches it either — every reported deadlock is
// genuine, by construction.
// ---------------------------------------------------------------------------

class StartupGame {
public:
  StartupGame(const DswpResult& dswp, const ModuleIndex& idx, DiagEngine& diag)
      : dswp_(dswp),
        idx_(idx),
        diag_(diag),
        insts_(idx.insts.size()),
        channels_(idx.chans.size()),
        sems_(idx.sems.size()),
        returns_(idx.fnInModule.size()),
        started_(idx.fnInModule.size(), 0),
        parkedIn_(idx.fnInModule.size()) {}

  void run() {
    if (!dswp_.mainMaster) return;
    for (const auto& t : dswp_.threads) start(t.fn);
    while (head_ < work_.size()) step(work_[head_++]);
    if (!returns_[fnSlot(dswp_.mainMaster)].open) {
      reportDeadlock();
      return;
    }
    reportStuckSlaves();
  }

private:
  /// One monotone fact the game waits on: a channel was ever produced to, a
  /// semaphore was ever raised, a function ever returned. Instructions that
  /// block on it park in `waiters` until it opens.
  struct Gate {
    bool open = false;
    std::vector<Instruction*> waiters;
  };
  struct InstState {
    bool executed = false;
    bool parked = false;   // blocked at least once and not executed since
    bool waiting = false;  // currently in its gate's `waiters`
  };

  /// Slot of a function the index assigned one (every module function,
  /// thread root and callee), -1 otherwise.
  int fnSlot(Function* f) const {
    auto it = idx_.fnSlotOf.find(f);
    return it == idx_.fnSlotOf.end() ? -1 : static_cast<int>(it->second);
  }

  void start(Function* f) {
    if (!f) return;
    const unsigned fs = idx_.fnSlotOf.at(f);
    if (started_[fs]) return;
    started_[fs] = 1;
    // Only module functions carry leased ids; a function outside the module
    // starts but never steps.
    BasicBlock* entry = idx_.fnInModule[fs] ? f->entry() : nullptr;
    if (entry && !entry->empty()) enqueue(entry->front());
  }

  void enqueue(Instruction* inst) { work_.push_back(inst); }

  void advance(Instruction* inst) {
    BasicBlock* bb = inst->parent();
    auto it = bb->iteratorTo(inst);
    ++it;
    if (it != bb->end()) enqueue(*it);
  }

  void park(Instruction* inst, Gate& gate) {
    InstState& st = insts_[inst->id()];
    if (!st.parked) {
      st.parked = true;
      parkedIn_[idx_.instFn[inst->id()]].push_back(inst);
    }
    if (!st.waiting) {
      st.waiting = true;
      gate.waiters.push_back(inst);
    }
  }

  void open(Gate& gate) {
    if (gate.open) return;
    gate.open = true;
    for (Instruction* inst : gate.waiters) {
      insts_[inst->id()].waiting = false;
      enqueue(inst);
    }
    gate.waiters.clear();
  }

  void step(Instruction* inst) {
    InstState& st = insts_[inst->id()];
    if (st.executed) return;
    const unsigned slot = idx_.instSlot[inst->id()];
    Gate* blockedOn = nullptr;
    switch (inst->op()) {
      case Opcode::Consume: blockedOn = &channels_[slot]; break;
      case Opcode::SemLower: {
        const SemaphoreInfo* sem = idx_.sems.info[slot];
        if (!sem || sem->initialCount == 0) blockedOn = &sems_[slot];
        break;
      }
      case Opcode::Call:
        start(inst->callee());  // the call transfers control into the callee
        blockedOn = &returns_[slot];
        break;
      default: break;
    }
    if (blockedOn && !blockedOn->open) {
      park(inst, *blockedOn);
      return;
    }
    st.executed = true;
    st.parked = false;
    switch (inst->op()) {
      case Opcode::Produce: open(channels_[slot]); break;
      case Opcode::SemRaise: open(sems_[slot]); break;
      case Opcode::Ret:
        open(returns_[idx_.instFn[inst->id()]]);
        return;  // no successor
      default: break;
    }
    if (inst->isTerminator()) {
      for (unsigned i = 0; i < inst->numSuccessors(); ++i) {
        BasicBlock* succ = inst->successor(i);
        if (succ && !succ->empty()) enqueue(succ->front());
      }
      return;
    }
    advance(inst);
  }

  Instruction* firstParkedIn(Function* f) const {
    const int fs = fnSlot(f);
    if (fs < 0) return nullptr;
    for (Instruction* inst : parkedIn_[fs])
      if (insts_[inst->id()].parked) return inst;
    return nullptr;
  }

  std::string threadDesc(Function* f) const {
    auto it = idx_.threadName.find(f);
    if (it != idx_.threadName.end()) return "thread '" + it->second + "' [" + f->name() + "]";
    return "[" + f->name() + "]";
  }

  void reportDeadlock() {
    diag_.error({}, "deadlock: " + threadDesc(dswp_.mainMaster) +
                        " can never reach its return under any schedule");
    std::vector<Function*> visited;
    Function* cur = dswp_.mainMaster;
    for (int depth = 0; depth < 20 && cur; ++depth) {
      if (std::find(visited.begin(), visited.end(), cur) != visited.end()) {
        diag_.note({}, "the wait cycle closes at [" + cur->name() + "]");
        return;
      }
      visited.push_back(cur);
      const int fs = fnSlot(cur);
      if (fs < 0 || !started_[fs]) {
        diag_.note({}, "[" + cur->name() + "] never starts executing");
        return;
      }
      Instruction* stuck = firstParkedIn(cur);
      if (!stuck) {
        diag_.note({}, "[" + cur->name() + "] makes no further progress");
        return;
      }
      Function* next = nullptr;
      std::string why;
      switch (stuck->op()) {
        case Opcode::Consume: {
          const int ch = stuck->channel();
          const unsigned slot = idx_.instSlot[stuck->id()];
          why = at(stuck) + ": blocked consuming " + channelDesc(idx_.chans.info[slot], ch);
          const std::vector<Site>& prods = idx_.chans.adds[slot];
          if (prods.empty()) {
            why += ", which is never produced";
          } else {
            why += ", produced only at " + at(prods.front().inst) + " (never reached)";
            next = prods.front().fn;
          }
          break;
        }
        case Opcode::SemLower: {
          const int id = stuck->channel();
          const unsigned slot = idx_.instSlot[stuck->id()];
          const SemaphoreInfo* info = idx_.sems.info[slot];
          why = at(stuck) + ": blocked lowering " + semDesc(info, id) + " (initial count " +
                std::to_string(info ? info->initialCount : 0) + ")";
          const std::vector<Site>& raises = idx_.sems.adds[slot];
          if (raises.empty()) {
            why += ", which is never raised";
          } else {
            why += ", raised only at " + at(raises.front().inst) + " (never reached)";
            next = raises.front().fn;
          }
          break;
        }
        case Opcode::Call:
          why = at(stuck) + ": blocked calling [" + stuck->callee()->name() +
                "], which never returns";
          next = stuck->callee();
          break;
        default: why = at(stuck) + ": blocked"; break;
      }
      diag_.note({}, why);
      cur = next;
    }
  }

  void reportStuckSlaves() {
    for (const auto& t : dswp_.threads) {
      if (!t.isSlave) continue;
      Instruction* stuck = firstParkedIn(t.fn);
      if (!stuck) continue;
      if (stuck->op() == Opcode::Consume) {
        const ChannelInfo* ch = idx_.chans.info[idx_.instSlot[stuck->id()]];
        if (ch && ch->purpose == ChannelInfo::Purpose::Start)
          continue;  // idle at the dispatch consume: the normal parked state
      }
      diag_.warning({}, at(stuck) + ": " + threadDesc(t.fn) +
                            " can stall here; no schedule unblocks this operation");
    }
  }

  const DswpResult& dswp_;
  const ModuleIndex& idx_;
  DiagEngine& diag_;
  // FIFO work list: every instruction ever enqueued, stepped from head_ on.
  std::vector<Instruction*> work_;
  size_t head_ = 0;
  std::vector<InstState> insts_;  // by leased instruction id
  std::vector<Gate> channels_;    // by channel slot
  std::vector<Gate> sems_;        // by semaphore slot
  std::vector<Gate> returns_;     // by function slot
  std::vector<char> started_;     // by function slot
  // Every instruction ever parked, by its function's slot.
  std::vector<std::vector<Instruction*>> parkedIn_;
};

}  // namespace

bool verifyPartition(Module& m, const DswpResult& dswp, DiagEngine& diag) {
  const size_t errorsBefore = diag.errorCount();
  ModuleIndex idx(m, dswp, diag);
  auto endpoints = checkEndpoints(idx, dswp, diag);
  LoopContextCache ctx(idx);
  checkChannelBalance(endpoints, idx, ctx, diag);
  checkSemaphoreBalance(dswp, idx, ctx, diag);
  StartupGame(dswp, idx, diag).run();
  return diag.errorCount() == errorsBefore;
}

std::string verifyPartitionToString(Module& m, const DswpResult& dswp) {
  DiagEngine diag;
  if (verifyPartition(m, dswp, diag)) return "";
  return diag.str();
}

}  // namespace twill
