#include "minuet/write_batch.h"

#include <map>
#include <set>
#include <tuple>

#include "minuet/cluster.h"

namespace minuet {

void WriteBatch::Put(const TreeHandle& tree, std::string key,
                     std::string value) {
  ops_.push_back(Op{tree, Kind::kPut, btree::Tip::Linear(), std::move(key),
                    std::move(value)});
}

void WriteBatch::Insert(const TreeHandle& tree, std::string key,
                        std::string value) {
  ops_.push_back(Op{tree, Kind::kInsert, btree::Tip::Linear(), std::move(key),
                    std::move(value)});
}

void WriteBatch::Remove(const TreeHandle& tree, std::string key) {
  ops_.push_back(
      Op{tree, Kind::kRemove, btree::Tip::Linear(), std::move(key), {}});
}

void WriteBatch::BranchPut(const TreeHandle& tree, uint64_t branch_sid,
                           std::string key, std::string value) {
  ops_.push_back(Op{tree, Kind::kPut, btree::Tip::Branch(branch_sid),
                    std::move(key), std::move(value)});
}

void WriteBatch::BranchRemove(const TreeHandle& tree, uint64_t branch_sid,
                              std::string key) {
  ops_.push_back(Op{tree, Kind::kRemove, btree::Tip::Branch(branch_sid),
                    std::move(key), {}});
}

// Batch execution lives here with the batch's own definition; Proxy
// supplies the transaction machinery and the per-tree view stacks.
Status Proxy::Apply(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  std::set<std::pair<uint32_t, std::string>> inserted;
  for (const WriteBatch::Op& op : batch.ops_) {
    MINUET_RETURN_NOT_OK(CheckHandle(op.tree));
    if (!op.tip.branch) {
      MINUET_RETURN_NOT_OK(CheckLinearAccess(op.tree));
    } else if (!op.tree.branching()) {
      return Status::InvalidArgument(
          "branch writes target branching trees; use Put/Remove on linear "
          "tips");
    }
    if (op.kind == WriteBatch::Kind::kInsert &&
        !inserted.emplace(op.tree.slot(), op.key).second) {
      return Status::AlreadyExists("duplicate insert within the batch");
    }
  }
  // Group the batch per (tree, branch) tip, preserving batch order within
  // each group (order only matters between ops on the same key, which land
  // in the same group). Strict-insert keys are collected separately:
  // existence is settled with one batched read per tree BEFORE any write
  // is buffered. Each group resolves its tree instance up front (the
  // handles validated above, so the lazy attach cannot fail); the
  // instances are immortal, so a concurrent RemoveProxy of this proxy
  // can never invalidate them mid-transaction.
  struct PerTip {
    btree::BTree* bt = nullptr;
    btree::Tip tip;
    std::vector<std::string> insert_keys;
    std::vector<btree::BTree::WriteOp> ops;
  };
  std::map<std::tuple<uint32_t, bool, uint64_t>, PerTip> per_tip;
  for (const WriteBatch::Op& op : batch.ops_) {
    PerTip& pt = per_tip[{op.tree.slot(), op.tip.branch, op.tip.sid}];
    pt.tip = op.tip;
    if (pt.bt == nullptr) pt.bt = tree(op.tree.slot());
    btree::BTree::WriteOp wop;
    wop.key = op.key;
    switch (op.kind) {
      case WriteBatch::Kind::kInsert:
        pt.insert_keys.push_back(op.key);
        [[fallthrough]];  // existence settled in phase 1; then an upsert
      case WriteBatch::Kind::kPut:
        wop.kind = btree::BTree::WriteOp::Kind::kPut;
        wop.value = op.value;
        break;
      case WriteBatch::Kind::kRemove:
        wop.kind = btree::BTree::WriteOp::Kind::kRemove;
        break;
    }
    pt.ops.push_back(std::move(wop));
  }
  return Transaction([&](txn::DynamicTxn& txn) -> Status {
    // Phase 1 — strict-insert existence checks, BEFORE any write is
    // buffered: an AlreadyExists return then commits a read-only
    // transaction (validating the conclusion, see RunTransaction) without
    // installing a partial batch. Existence is therefore judged against
    // the pre-batch state — and resolved with ONE batched MultiGet per
    // tree (shared level-synchronized descents, one grouped leaf round)
    // instead of one serial descent per insert. (Inserts are linear-tip
    // only; WriteBatch exposes no branch insert.)
    for (auto& [key, pt] : per_tip) {
      if (pt.insert_keys.empty()) continue;
      std::vector<std::optional<std::string>> values;
      MINUET_RETURN_NOT_OK(
          pt.bt->MultiGetInTxn(txn, pt.insert_keys, &values));
      for (const auto& v : values) {
        if (v.has_value()) {
          return Status::AlreadyExists("insert of a present key");
        }
      }
    }
    // Phase 2 — apply every write, per tip, through the batched descent:
    // all target leaves resolve in O(depth) cold rounds and join the read
    // set in one round, and ops targeting the same leaf collapse into one
    // traversal + one leaf mutation (one commit compare per leaf). Branch
    // groups resolve (and validate) their catalog tip inside this same
    // transaction, so a concurrent fork aborts the whole batch.
    for (auto& [key, pt] : per_tip) {
      MINUET_RETURN_NOT_OK(pt.bt->ApplyWritesInTxn(txn, pt.ops, pt.tip));
    }
    return Status::OK();
  });
}

}  // namespace minuet
