// Prints both verifiers' full diagnostics over a fixed mutant corpus; the
// `verify_golden` ctest entry compares this stdout byte for byte with
// tests/golden/verify_mutants.txt.
//
// Every extractor output passes both verifiers, so clean inputs alone pin
// nothing but the verdict. Each input is therefore also broken in fixed,
// deterministic ways that the verifiers must reject with exactly the same
// text, in exactly the same order:
//   drop-produce       erase the module's first produce
//   double-produces    produce twice at every produce site of the first
//                      producing function (unbalances its channels)
//   retarget-consume   point the first consume at the next channel id
//   unseed-semaphores  zero every initial count (DriverOptions::unseedSemaphores)
//   use-above-def      move the first same-block use above its definition
//   sink-use           move the first cross-block use into a block its
//                      definition does not dominate, below the entry's
//                      immediate children when there is one
//   drop-phi-entry     remove the first phi's first incoming entry
// Inputs: the 8 CHStone kernels at driver defaults and progen seeds 1-16 at
// K = 2 and 4 partitions, all after extraction.
//
//   ./build/verify_golden > tests/golden/verify_mutants.txt   # regenerate
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/domtree.h"
#include "src/chstone/kernels.h"
#include "src/driver/driver.h"
#include "src/dswp/extract.h"
#include "src/frontend/lower.h"
#include "src/fuzz/progen.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/transforms/passes.h"
#include "src/verify/partition_verifier.h"

namespace twill {
namespace {

struct Input {
  std::string name;
  std::string source;
  DswpConfig cfg;
};

struct Extracted {
  std::unique_ptr<Module> m = std::make_unique<Module>();
  DswpResult dswp;
};

Extracted extract(const Input& in) {
  Extracted e;
  DiagEngine diag;
  if (!compileC(in.source, *e.m, diag)) {
    std::fprintf(stderr, "%s: compile failed:\n%s", in.name.c_str(), diag.str().c_str());
    std::exit(1);
  }
  runDefaultPipeline(*e.m);
  e.dswp = runDswp(*e.m, in.cfg);
  return e;
}

/// First instruction of the module, in layout order, that `pred` accepts.
template <class Pred>
Instruction* firstInst(Module& m, Pred pred) {
  for (auto& f : m.functions())
    for (auto& bb : f->blocks())
      for (auto& inst : *bb)
        if (pred(inst)) return inst;
  return nullptr;
}

std::string where(const Instruction* inst) {
  return "[" + inst->parent()->parent()->name() + "] block '" + inst->parent()->name() + "'";
}

/// Applies one mutation; returns a one-line description of the site, or ""
/// when the input has no such site.
std::string dropProduce(Extracted& e) {
  Instruction* p = firstInst(*e.m, [](Instruction* i) { return i->op() == Opcode::Produce; });
  if (!p) return "";
  const std::string site = where(p) + " ch" + std::to_string(p->channel());
  p->parent()->erase(p);
  return site;
}

std::string doubleProduces(Extracted& e) {
  Instruction* first =
      firstInst(*e.m, [](Instruction* i) { return i->op() == Opcode::Produce; });
  if (!first) return "";
  Function* f = first->parent()->parent();
  std::vector<Instruction*> sites;
  for (auto& bb : f->blocks())
    for (auto& inst : *bb)
      if (inst->op() == Opcode::Produce) sites.push_back(inst);
  IRBuilder b(*e.m);
  for (Instruction* p : sites) {
    b.setInsertPoint(p->parent(), p->parent()->iteratorTo(p));
    b.produce(p->channel(), p->operand(0));
  }
  return "[" + f->name() + "] " + std::to_string(sites.size()) + " sites";
}

std::string retargetConsume(Extracted& e) {
  Instruction* c = firstInst(*e.m, [](Instruction* i) { return i->op() == Opcode::Consume; });
  if (!c) return "";
  const auto& chans = e.dswp.channels;
  int to = c->channel() + 1;
  for (size_t k = 0; k < chans.size(); ++k)
    if (chans[k].id == c->channel()) to = chans[(k + 1) % chans.size()].id;
  const std::string site =
      where(c) + " ch" + std::to_string(c->channel()) + " -> ch" + std::to_string(to);
  c->setChannel(to);
  return site;
}

std::string useAboveDef(Extracted& e) {
  Instruction* def = nullptr;
  Instruction* use = firstInst(*e.m, [&](Instruction* i) {
    if (i->isPhi() || i->isTerminator()) return false;
    for (unsigned k = 0; k < i->numOperands(); ++k) {
      auto* d = dyn_cast<Instruction>(i->operand(k));
      if (d && !d->isPhi() && d->parent() == i->parent()) {
        def = d;
        return true;
      }
    }
    return false;
  });
  if (!use) return "";
  BasicBlock* bb = use->parent();
  bb->detach(use);
  bb->insert(bb->iteratorTo(def), use);
  return where(use);
}

std::string sinkUse(Extracted& e) {
  for (auto& f : e.m->functions()) {
    DomTree dom;
    dom.build(*f, /*postDom=*/false);
    for (auto& bb : f->blocks()) {
      for (auto& use : *bb) {
        if (use->isPhi() || use->isTerminator()) continue;
        for (unsigned k = 0; k < use->numOperands(); ++k) {
          auto* def = dyn_cast<Instruction>(use->operand(k));
          if (!def || def->parent() == bb) continue;
          BasicBlock* target = nullptr;
          for (auto& t : f->blocks()) {
            if (t == f->entry() || t == def->parent() || !dom.isReachable(t) ||
                dom.dominates(def->parent(), t))
              continue;
            if (!target) target = t;
            if (dom.idom(t) != f->entry()) {
              target = t;
              break;
            }
          }
          if (!target) continue;
          const std::string site = where(use) + " -> block '" + target->name() + "'";
          bb->detach(use);
          target->insert(target->iteratorTo(target->back()), use);
          return site;
        }
      }
    }
  }
  return "";
}

std::string dropPhiEntry(Extracted& e) {
  Instruction* phi =
      firstInst(*e.m, [](Instruction* i) { return i->isPhi() && i->numIncoming() > 0; });
  if (!phi) return "";
  const std::string site = where(phi) + " from '" + phi->incomingBlock(0)->name() + "'";
  phi->removeIncoming(0);
  return site;
}

void printVerdicts(Extracted& e) {
  std::printf("-- verifyToString\n%s", verifyToString(*e.m).c_str());
  DiagEngine diag;
  const bool ok = verifyPartition(*e.m, e.dswp, diag);
  std::printf("-- verifyPartition: %s\n%s", ok ? "clean" : "rejected", diag.str().c_str());
}

void run(const Input& in) {
  {
    Extracted e = extract(in);
    std::printf("== %s / clean (%zu channels, %zu semaphores)\n", in.name.c_str(),
                e.dswp.channels.size(), e.dswp.semaphores.size());
    printVerdicts(e);
  }
  using Mutation = std::string (*)(Extracted&);
  const std::pair<const char*, Mutation> mutations[] = {
      {"drop-produce", dropProduce},
      {"double-produces", doubleProduces},
      {"retarget-consume", retargetConsume},
      {"use-above-def", useAboveDef},
      {"sink-use", sinkUse},
      {"drop-phi-entry", dropPhiEntry},
  };
  for (const auto& [name, mutate] : mutations) {
    Extracted e = extract(in);
    const std::string site = mutate(e);
    std::printf("== %s / %s: %s\n", in.name.c_str(), name, site.empty() ? "no site" : site.c_str());
    if (!site.empty()) printVerdicts(e);
  }
  // The driver's own hook, end to end through the verify-only report.
  DriverOptions opts;
  opts.dswp = in.cfg;
  opts.verifyOnly = true;
  opts.unseedSemaphores = true;
  const BenchmarkReport rep = runBenchmark(in.name, in.source, opts);
  std::printf("== %s / unseed-semaphores: %s\n%s%s", in.name.c_str(),
              rep.ok ? "ok" : failureKindName(rep.failureKind), rep.error.c_str(),
              rep.error.empty() || rep.error.back() == '\n' ? "" : "\n");
}

}  // namespace
}  // namespace twill

int main() {
  using namespace twill;
  std::vector<Input> inputs;
  for (const KernelInfo& k : chstoneKernels()) inputs.push_back({k.name, k.source, DswpConfig{}});
  for (uint32_t seed = 1; seed <= 16; ++seed) {
    for (unsigned parts : {2u, 4u}) {
      DswpConfig cfg;
      cfg.numPartitions = parts;
      inputs.push_back({"progen" + std::to_string(seed) + "/K" + std::to_string(parts),
                        generateProgram(seed), cfg});
    }
  }
  for (const Input& in : inputs) run(in);
  return 0;
}
