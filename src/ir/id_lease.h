// Borrowing the dense `id` fields of blocks and instructions.
//
// Block and instruction ids belong to whoever last renumbered the function
// (the PDG, the interpreter, the HLS scheduler, the printer), and unnamed
// values print as %t<id>, so a read-only pass must not leave them changed.
// IdLease lets such a pass (the verifiers) index side tables by id instead
// of hashing pointers: it numbers the nodes it is given 0, 1, 2, ... and
// puts every previous id back when released or destroyed.
#pragma once

#include <utility>
#include <vector>

namespace twill {

template <class Node>
class IdLease {
public:
  IdLease() = default;
  IdLease(const IdLease&) = delete;
  IdLease& operator=(const IdLease&) = delete;
  ~IdLease() { release(); }

  /// Gives `n` the next dense id and returns it.
  unsigned lease(Node* n) {
    const auto id = static_cast<unsigned>(saved_.size());
    saved_.push_back({n, n->id()});
    n->setId(id);
    return id;
  }

  /// True when `n` currently holds an id from this lease.
  bool holds(const Node* n) const {
    const unsigned id = n->id();
    return id < saved_.size() && saved_[id].first == n;
  }

  size_t size() const { return saved_.size(); }
  Node* node(unsigned id) const { return saved_[id].first; }

  /// Restores every leased node's previous id; the lease is empty after.
  void release() {
    for (auto& [n, id] : saved_) n->setId(id);
    saved_.clear();
  }

private:
  std::vector<std::pair<Node*, unsigned>> saved_;
};

}  // namespace twill
