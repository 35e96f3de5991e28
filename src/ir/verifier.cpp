#include "src/ir/verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/ir/id_lease.h"
#include "src/ir/printer.h"

namespace twill {
namespace {

// Small self-contained dominance computation (iterative bitvector dataflow
// over reverse-postorder). The verifier deliberately does not depend on the
// analysis library it is used to validate.
//
// Blocks are addressed by leased ids (their position in the function); the
// relation is a word-packed bit matrix over RPO indices, row b holding the
// dominators of b, with each block's reachable predecessors resolved to RPO
// indices once.
class SimpleDominance {
public:
  /// `blocks` leases every block of `f` in layout order.
  SimpleDominance(Function& f, const IdLease<BasicBlock>& blocks)
      : blocks_(blocks), rpoIndex_(blocks.size(), -1) {
    const std::vector<unsigned> rpo = reversePostOrder(f);
    const size_t n = rpo.size();
    for (size_t i = 0; i < n; ++i) rpoIndex_[rpo[i]] = static_cast<int>(i);
    std::vector<unsigned> predStart{0}, preds;
    for (unsigned id : rpo) {
      for (BasicBlock* p : blocks.node(id)->predecessors()) {
        const int pi = rpoIndex(p);
        if (pi >= 0) preds.push_back(static_cast<unsigned>(pi));  // skip unreachable
      }
      predStart.push_back(static_cast<unsigned>(preds.size()));
    }

    words_ = (n + 63) / 64;
    bits_.assign(n * words_, ~uint64_t{0});
    if (n == 0) return;
    std::fill(row(0), row(0) + words_, 0);
    row(0)[0] = 1;
    std::vector<uint64_t> in(words_);
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 1; i < n; ++i) {
        std::fill(in.begin(), in.end(), predStart[i] == predStart[i + 1] ? 0 : ~uint64_t{0});
        for (unsigned k = predStart[i]; k < predStart[i + 1]; ++k) {
          const uint64_t* p = row(preds[k]);
          for (size_t w = 0; w < words_; ++w) in[w] &= p[w];
        }
        in[i / 64] |= uint64_t{1} << (i % 64);
        if (!std::equal(in.begin(), in.end(), row(i))) {
          std::copy(in.begin(), in.end(), row(i));
          changed = true;
        }
      }
    }
  }

  bool reachable(BasicBlock* bb) const { return rpoIndex(bb) >= 0; }

  /// True if `a` dominates `b` (both must be reachable).
  bool dominates(BasicBlock* a, BasicBlock* b) const {
    const int ia = rpoIndex(a);
    const int ib = rpoIndex(b);
    if (ia < 0 || ib < 0) return false;
    return (row(static_cast<size_t>(ib))[ia / 64] >> (ia % 64)) & 1;
  }

private:
  /// Leased ids of the blocks reachable from the entry, in reverse postorder.
  std::vector<unsigned> reversePostOrder(Function& f) const {
    std::vector<unsigned> post;
    std::vector<char> seen(blocks_.size(), 0);
    if (!f.entry()) return post;
    // Iterative DFS.
    std::vector<std::pair<BasicBlock*, unsigned>> stack{{f.entry(), 0}};
    seen[f.entry()->id()] = 1;
    while (!stack.empty()) {
      auto& [bb, i] = stack.back();
      Instruction* term = bb->terminator();
      if (term && i < term->numSuccessors()) {
        BasicBlock* s = term->successor(i++);
        if (!seen[s->id()]) {
          seen[s->id()] = 1;
          stack.push_back({s, 0});
        }
      } else {
        post.push_back(bb->id());
        stack.pop_back();
      }
    }
    std::reverse(post.begin(), post.end());
    return post;
  }

  /// RPO index of `bb`, or -1 when it is unreachable or not in the function.
  int rpoIndex(BasicBlock* bb) const { return blocks_.holds(bb) ? rpoIndex_[bb->id()] : -1; }

  uint64_t* row(size_t i) { return bits_.data() + i * words_; }
  const uint64_t* row(size_t i) const { return bits_.data() + i * words_; }

  const IdLease<BasicBlock>& blocks_;
  std::vector<int> rpoIndex_;  // leased block id -> RPO index, -1 if unreachable
  size_t words_ = 0;
  std::vector<uint64_t> bits_;  // row-major, one row of `words_` per RPO index
};

class FunctionVerifier {
public:
  FunctionVerifier(Function& f, DiagEngine& diag) : f_(f), diag_(diag) {}

  bool run() {
    if (!f_.entry()) {
      error("function @" + f_.name() + " has no blocks");
      return ok_;
    }
    checkStructure();
    if (!ok_) return false;  // dominance checks assume structural sanity
    IdLease<BasicBlock> blocks;
    for (auto& bb : f_.blocks()) blocks.lease(bb);
    SimpleDominance dom(f_, blocks);
    checkSSA(dom);
    checkPhis(dom);
    return ok_;
  }

private:
  void error(const std::string& msg) {
    diag_.error({}, "[" + f_.name() + "] " + msg);
    ok_ = false;
  }

  void checkStructure() {
    if (!f_.entry()->predecessors().empty())
      error("entry block has predecessors");
    for (auto& bb : f_.blocks()) {
      if (bb->empty()) {
        error("block %" + bb->name() + " is empty");
        continue;
      }
      if (!bb->terminator()) error("block %" + bb->name() + " lacks a terminator");
      bool seenNonPhi = false;
      for (auto it = bb->begin(); it != bb->end(); ++it) {
        Instruction* inst = *it;
        if (inst->isTerminator() && inst != bb->back())
          error("terminator in the middle of block %" + bb->name());
        if (inst->isPhi()) {
          if (seenNonPhi) error("phi after non-phi in block %" + bb->name());
        } else {
          seenNonPhi = true;
        }
        if (inst->parent() != bb) error("instruction parent link broken in %" + bb->name());
        for (unsigned i = 0; i < inst->numOperands(); ++i) {
          Value* op = inst->operand(i);
          if (!op) {
            error("null operand in " + printInstruction(inst));
            continue;
          }
          if (auto* tb = dyn_cast<BasicBlock>(op)) {
            if (tb->parent() != &f_)  // erased blocks lose their parent
              error("branch to block of another function in %" + bb->name());
            if (!inst->isTerminator())
              error("non-terminator references a block in %" + bb->name());
          }
          if (auto* oi = dyn_cast<Instruction>(op)) {
            if (!oi->parent() || oi->parent()->parent() != &f_)
              error("operand from another function in " + printInstruction(inst));
          }
          if (auto* oa = dyn_cast<Argument>(op)) {
            if (oa->parent() != &f_)
              error("argument of another function used in " + printInstruction(inst));
          }
        }
        checkTypes(inst);
      }
    }
  }

  void checkTypes(Instruction* inst) {
    auto intOp = [&](unsigned i) {
      if (!inst->operand(i)->type()->isInt())
        error("operand " + std::to_string(i) + " of " + printInstruction(inst) + " not an int");
    };
    Opcode op = inst->op();
    if (isBinaryOp(op) || isCompareOp(op)) {
      if (inst->numOperands() != 2) error("binary op arity");
      else if (inst->operand(0)->type() != inst->operand(1)->type())
        error("operand type mismatch in " + printInstruction(inst));
    } else if (op == Opcode::Load) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isPtr())
        error("load needs a pointer operand: " + printInstruction(inst));
      else if (inst->type()->bits() != inst->operand(0)->type()->pointeeBits())
        error("load width mismatch: " + printInstruction(inst));
    } else if (op == Opcode::Store) {
      if (inst->numOperands() != 2 || !inst->operand(1)->type()->isPtr())
        error("store needs (value, pointer): " + printInstruction(inst));
      else if (!inst->operand(0)->type()->isInt() ||
               inst->operand(0)->type()->bits() != inst->operand(1)->type()->pointeeBits())
        error("store width mismatch: " + printInstruction(inst));
    } else if (op == Opcode::Gep) {
      if (inst->numOperands() != 2 || !inst->operand(0)->type()->isPtr())
        error("gep needs (pointer, index): " + printInstruction(inst));
      else intOp(1);
    } else if (op == Opcode::CondBr) {
      if (inst->operand(0)->type()->isInt() == false || inst->operand(0)->type()->bits() != 1)
        error("condbr condition must be i1: " + printInstruction(inst));
    } else if (op == Opcode::Ret) {
      bool wantsValue = !f_.retType()->isVoid();
      if (wantsValue != (inst->numOperands() == 1))
        error("ret arity does not match function return type in @" + f_.name());
      else if (wantsValue && inst->operand(0)->type() != f_.retType())
        error("ret value type mismatch in @" + f_.name());
    } else if (op == Opcode::Call) {
      Function* callee = inst->callee();
      if (!callee) {
        error("call without callee");
      } else if (inst->numOperands() != callee->numArgs()) {
        error("call arity mismatch to @" + callee->name());
      } else {
        for (unsigned i = 0; i < inst->numOperands(); ++i)
          if (inst->operand(i)->type() != callee->arg(i)->type())
            error("call argument " + std::to_string(i) + " type mismatch to @" + callee->name());
      }
    } else if (isCastOp(op)) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isInt() || !inst->type()->isInt())
        error("cast wants int operand and result: " + printInstruction(inst));
      else {
        unsigned from = inst->operand(0)->type()->bits();
        unsigned to = inst->type()->bits();
        if ((op == Opcode::Trunc && to >= from) || (op != Opcode::Trunc && to <= from))
          error("cast direction invalid: " + printInstruction(inst));
      }
    } else if (op == Opcode::PtrToInt) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isPtr() ||
          !inst->type()->isInt() || inst->type()->bits() != 32)
        error("ptrtoint wants (pointer) -> i32: " + printInstruction(inst));
    } else if (op == Opcode::IntToPtr) {
      if (inst->numOperands() != 1 || !inst->operand(0)->type()->isInt() ||
          inst->operand(0)->type()->bits() != 32 || !inst->type()->isPtr())
        error("inttoptr wants (i32) -> pointer: " + printInstruction(inst));
    } else if (op == Opcode::Select) {
      if (inst->numOperands() != 3) error("select arity");
      else if (inst->operand(1)->type() != inst->operand(2)->type())
        error("select arm type mismatch: " + printInstruction(inst));
    }
  }

  void checkSSA(const SimpleDominance& dom) {
    // Instruction ids double as layout positions for the same-block order
    // test, but unnamed values print by id: collect the violations under the
    // lease and report them once the caller's ids are back.
    std::vector<std::pair<Instruction*, Instruction*>> bad;  // (def, use)
    {
      IdLease<Instruction> positions;
      for (auto& bb : f_.blocks())
        for (auto& inst : *bb) positions.lease(inst);
      for (auto& bb : f_.blocks()) {
        if (!dom.reachable(bb)) continue;
        for (auto& instPtr : *bb) {
          Instruction* inst = instPtr;
          if (inst->isPhi()) continue;  // phi uses checked on edges
          for (unsigned i = 0; i < inst->numOperands(); ++i) {
            auto* def = dyn_cast<Instruction>(inst->operand(i));
            if (def && !dominatesUse(def, inst, dom)) bad.push_back({def, inst});
          }
        }
      }
    }
    for (const auto& [def, inst] : bad)
      error("use of " + printValueRef(def) + " in " + printInstruction(inst) +
            " is not dominated by its definition");
  }

  /// Needs the instruction ids leased as layout positions (see checkSSA).
  static bool dominatesUse(Instruction* def, Instruction* use, const SimpleDominance& dom) {
    BasicBlock* db = def->parent();
    BasicBlock* ub = use->parent();
    if (db != ub) return dom.dominates(db, ub);
    return def->id() <= use->id();  // same block: def must come first
  }

  void checkPhis(const SimpleDominance& dom) {
    for (auto& bb : f_.blocks()) {
      if (!dom.reachable(bb)) continue;
      if (!bb->front()->isPhi()) continue;
      auto preds = bb->predecessors();
      for (auto& instPtr : *bb) {
        Instruction* inst = instPtr;
        if (!inst->isPhi()) break;
        if (inst->numIncoming() != preds.size()) {
          error("phi in %" + bb->name() + " has " + std::to_string(inst->numIncoming()) +
                " entries for " + std::to_string(preds.size()) + " predecessors");
          continue;
        }
        for (unsigned i = 0; i < inst->numIncoming(); ++i) {
          BasicBlock* in = inst->incomingBlock(i);
          if (std::find(preds.begin(), preds.end(), in) == preds.end()) {
            error("phi in %" + bb->name() + " names non-predecessor %" + in->name());
            continue;
          }
          if (auto* def = dyn_cast<Instruction>(inst->incomingValue(i))) {
            // The incoming value must dominate the edge, i.e. the pred block.
            if (dom.reachable(in) &&
                !(def->parent() == in ? true : dom.dominates(def->parent(), in)))
              error("phi incoming value " + printValueRef(def) + " does not dominate edge from %" +
                    in->name());
          }
          if (inst->incomingValue(i)->type() != inst->type() &&
              !isa<Constant>(inst->incomingValue(i)))
            error("phi incoming type mismatch in %" + bb->name());
        }
      }
    }
  }

  Function& f_;
  DiagEngine& diag_;
  bool ok_ = true;
};

}  // namespace

bool verifyFunction(Function& f, DiagEngine& diag) { return FunctionVerifier(f, diag).run(); }

bool verifyModule(Module& m, DiagEngine& diag) {
  bool ok = true;
  for (auto& f : m.functions()) ok &= verifyFunction(*f, diag);
  return ok;
}

std::string verifyToString(Module& m) {
  DiagEngine diag;
  verifyModule(m, diag);
  return diag.str();
}

namespace {

/// -1 = follow the environment, 0/1 = forced. Relaxed atomics suffice: the
/// explorer's workers only ever read a value set before the pool started.
std::atomic<int> gVerifyAfterPasses{-1};

bool envEnablesVerify() {
  static const bool enabled = [] {
    const char* v = std::getenv("TWILL_VERIFY_IR");
    return v && *v && std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

}  // namespace

bool verifyAfterPassesEnabled() {
  const int forced = gVerifyAfterPasses.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return envEnablesVerify();
}

void setVerifyAfterPasses(int enabled) {
  gVerifyAfterPasses.store(enabled < 0 ? -1 : (enabled ? 1 : 0), std::memory_order_relaxed);
}

void verifyAfterPass(Module& m, const char* passName) {
  if (!verifyAfterPassesEnabled()) return;
  DiagEngine diag;
  if (verifyModule(m, diag)) return;
  std::fprintf(stderr, "TWILL_VERIFY_IR: IR broken after pass '%s':\n%s", passName,
               diag.str().c_str());
  std::abort();
}

void verifyAfterPass(Function& f, const char* passName) {
  if (!verifyAfterPassesEnabled()) return;
  DiagEngine diag;
  if (verifyFunction(f, diag)) return;
  std::fprintf(stderr, "TWILL_VERIFY_IR: IR broken in [%s] after pass '%s':\n%s",
               f.name().c_str(), passName, diag.str().c_str());
  std::abort();
}

}  // namespace twill
