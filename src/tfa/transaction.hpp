// Closed-nested transaction tree.
//
// A root transaction and its active chain of nested descendants form a
// stack (one thread executes one tree; there is no intra-transaction
// parallelism, matching the paper's model). Each level owns an AccessSet:
//
//   * child commit  -> merge_into_parent(): the child's fetched objects and
//     buffered writes become the parent's. Nothing is sent anywhere — this
//     is precisely why an *enqueued* parent preserves its children's work.
//   * child abort   -> the child object is destroyed; the parent's set is
//     untouched.
//   * parent abort  -> the whole tree unwinds; every committed child is
//     rolled back (counted as a parent-caused nested abort, Table I).
//
// TFA state (start clock, ETS timestamps, myCL) lives on the root: nested
// transactions are closed, so the cluster only ever sees the root commit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tfa/rwset.hpp"
#include "util/time.hpp"

namespace hyflow::tfa {

class Transaction {
 public:
  // Root transaction.
  Transaction(TxnId id, std::uint32_t profile, std::uint64_t start_clock,
              SimTime wall_start, SimTime expected_commit)
      : id_(id),
        profile_(profile),
        start_clock_(start_clock),
        wall_start_(wall_start),
        expected_commit_(expected_commit) {}

  // Closed-nested child. Registers itself as the parent's active child so
  // protocol code can walk the live chain root -> leaf (there is at most
  // one: a transaction tree executes on a single thread).
  explicit Transaction(Transaction& parent)
      : id_(parent.id_), profile_(parent.profile_), parent_(&parent),
        depth_(parent.depth_ + 1) {
    parent.active_child_ = this;
  }

  ~Transaction() {
    if (parent_) parent_->active_child_ = nullptr;
  }

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  Transaction* active_child() { return active_child_; }

  TxnId id() const { return id_; }
  std::uint32_t profile() const { return profile_; }
  bool is_root() const { return parent_ == nullptr; }
  int depth() const { return depth_; }
  Transaction* parent() { return parent_; }

  Transaction& root() {
    Transaction* t = this;
    while (t->parent_) t = t->parent_;
    return *t;
  }
  const Transaction& root() const { return const_cast<Transaction*>(this)->root(); }

  AccessSet& set() { return set_; }
  const AccessSet& set() const { return set_; }

  struct Found {
    AccessEntry* entry = nullptr;
    int depth = 0;  // level where the entry resides
  };

  // Nearest entry for `oid` at this level or any ancestor.
  Found find_up(ObjectId oid);

  // Child commit: fold this level's entries into the parent.
  void merge_into_parent();

  // Sum of owner-piggybacked CLs over the chain's fetched objects — the
  // transaction's myCL (remote contention level, §III-A).
  std::uint32_t collect_my_cl() const;

  // ---- root-only TFA state (valid on root()) ----
  std::uint64_t start_clock() const { return root().start_clock_; }
  void forward_to(std::uint64_t clock) { root().start_clock_ = clock; }
  SimTime wall_start() const { return root().wall_start_; }
  SimTime expected_commit() const { return root().expected_commit_; }
  // Tree-wide fetch ordinal: how many objects the tree has been granted so
  // far, at any level (AccessEntry::confirmed counts in these units).
  std::uint64_t last_fetch() const { return root().fetches_; }
  std::uint64_t note_fetch() { return ++root().fetches_; }

  // Children committed in the current attempt (rolled back — and counted —
  // if the root aborts).
  std::uint32_t nested_committed = 0;

  // Open nesting (root-only): compensating actions registered by committed
  // open-nested children. An open-nested child's effects are globally
  // visible the moment it commits; if the enclosing root aborts, these run
  // (in reverse registration order) to undo the children *abstractly*.
  std::vector<std::function<void(class Txn&)>> compensations;

 private:
  TxnId id_;
  std::uint32_t profile_ = 0;
  Transaction* parent_ = nullptr;
  Transaction* active_child_ = nullptr;
  int depth_ = 0;
  AccessSet set_;

  // Root-only fields.
  std::uint64_t start_clock_ = 0;
  SimTime wall_start_ = 0;
  SimTime expected_commit_ = 0;
  std::uint64_t fetches_ = 0;
};

}  // namespace hyflow::tfa
