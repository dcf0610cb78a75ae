// WriteBatch: a multi-key, multi-tree atomic write (§3 made ergonomic).
//
// Buffer any number of Put/Insert/Remove operations — across different
// trees of the same cluster — and commit them with Proxy::Apply, which
// runs ONE dynamic transaction: every touched leaf validates together and
// the whole batch installs in a single commit minitransaction, or nothing
// does. A memnode crash mid-commit therefore never exposes a partial
// batch.
//
// Apply resolves every op's target leaf with the level-synchronized
// batched descent (BTree::ApplyWritesInTxn): on a cold proxy cache the
// whole batch descends in O(depth) coordinator rounds instead of one
// serial descent per key, all distinct leaves join the read set in one
// batched round, and ops that land on the same leaf collapse into one
// traversal + one leaf mutation — the commit carries one compare per
// leaf, not per key.
//
// Semantics per op:
//   Put     — upsert
//   Insert  — strict; a key present BEFORE the batch — or Inserted twice
//             WITHIN it — fails the WHOLE batch (AlreadyExists). Existence
//             is otherwise judged against pre-batch state, so a Put and an
//             Insert of the same key in one batch both apply.
//   Remove  — blind delete (absent keys are tolerated)
//
// Branch-tip writes: BranchPut/BranchRemove target one writable branch of
// a BRANCHING tree (§5) and commit atomically with the rest of the batch —
// the branch's writability is validated inside the same transaction, so a
// concurrent fork aborts the whole batch with ReadOnly. Linear-tip
// Put/Insert/Remove still reject branching trees (their version-0 tip is
// only reachable through branch views).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "btree/tip.h"
#include "minuet/tree_handle.h"

namespace minuet {

class Proxy;

class WriteBatch {
 public:
  void Put(const TreeHandle& tree, std::string key, std::string value);
  void Insert(const TreeHandle& tree, std::string key, std::string value);
  void Remove(const TreeHandle& tree, std::string key);

  // Branch-tip writes (branching trees; blind remove, like Remove).
  void BranchPut(const TreeHandle& tree, uint64_t branch_sid, std::string key,
                 std::string value);
  void BranchRemove(const TreeHandle& tree, uint64_t branch_sid,
                    std::string key);

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  void Clear() { ops_.clear(); }

 private:
  friend class Proxy;

  enum class Kind : uint8_t { kPut, kInsert, kRemove };
  struct Op {
    TreeHandle tree;  // full handle, so Apply can reject foreign clusters
    Kind kind;
    btree::Tip tip;
    std::string key;
    std::string value;
  };

  std::vector<Op> ops_;
};

}  // namespace minuet
