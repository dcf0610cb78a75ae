#include "version/version_manager.h"

namespace minuet::version {

using btree::DecodeCatalogEntry;
using btree::DecodeTipId;
using btree::EncodeCatalogEntry;
using btree::EncodeTipId;
using txn::ReadMode;

// ---------------------------------------------------------------------------
// BranchOracle

uint64_t BranchOracle::ParentOf(uint64_t sid) const {
  if (sid == 0) return CatalogEntry::kNoParent;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = parent_.find(sid);
    if (it != parent_.end()) return it->second;
  }
  // Parent pointers are immutable once written, so a dirty read of the
  // catalog entry is safe and cacheable forever.
  txn::DynamicTxn txn(tree_->coordinator(), tree_->cache());
  auto raw =
      txn.Read(tree_->layout().CatalogRef(tree_->tree_slot(), sid),
               ReadMode::kDirty);
  if (!raw.ok()) return CatalogEntry::kNoParent;
  const CatalogEntry entry = DecodeCatalogEntry(raw->data);
  if (entry.root == sinfonia::kNullAddr) return CatalogEntry::kNoParent;
  std::lock_guard<std::mutex> g(mu_);
  parent_.emplace(sid, entry.parent);
  return entry.parent;
}

void BranchOracle::RegisterParent(uint64_t sid, uint64_t parent) const {
  std::lock_guard<std::mutex> g(mu_);
  parent_[sid] = parent;
}

bool BranchOracle::IsAncestorOrEqual(uint64_t a, uint64_t b) const {
  // Parents always have smaller ids, so walk b upward until at or below a.
  while (b > a) {
    const uint64_t p = ParentOf(b);
    if (p == CatalogEntry::kNoParent || p >= b) return false;
    b = p;
  }
  return a == b;
}

uint64_t BranchOracle::Lca(uint64_t a, uint64_t b) const {
  while (a != b) {
    if (a > b) {
      const uint64_t p = ParentOf(a);
      if (p == CatalogEntry::kNoParent || p >= a) return 0;
      a = p;
    } else {
      const uint64_t p = ParentOf(b);
      if (p == CatalogEntry::kNoParent || p >= b) return 0;
      b = p;
    }
  }
  return a;
}

uint64_t BranchOracle::Depth(uint64_t sid) const {
  uint64_t depth = 0;
  while (sid != 0) {
    const uint64_t p = ParentOf(sid);
    if (p == CatalogEntry::kNoParent || p >= sid) break;
    sid = p;
    depth++;
  }
  return depth;
}

// ---------------------------------------------------------------------------
// VersionManager

VersionManager::VersionManager(BTree* tree) : tree_(tree), oracle_(tree) {
  tree_->set_oracle(&oracle_);
}

Result<uint64_t> VersionManager::CreateBranch(uint64_t from_sid) {
  const auto& layout = tree_->layout();
  const uint32_t slot = tree_->tree_slot();
  uint64_t new_sid = 0;

  txn::DynamicTxn::Options topts;
  topts.blocking_commit = true;  // bumps the replicated next-sid (§4.1)
  Status st = txn::RunTransaction(
      tree_->coordinator(), tree_->cache(), topts,
      tree_->options().max_attempts, [&](txn::DynamicTxn& txn) -> Status {
        // Allocate the next snapshot id (totally ordered, §5.1).
        auto next_raw = txn.Read(layout.NextSidRef(slot), ReadMode::kValidated);
        if (!next_raw.ok()) return next_raw.status();
        new_sid = DecodeTipId(next_raw->data);
        if (new_sid >= layout.max_catalog_entries()) {
          return Status::NoSpace("catalog full");
        }
        MINUET_RETURN_NOT_OK(
            txn.Write(layout.NextSidRef(slot), EncodeTipId(new_sid + 1)));

        // Source snapshot: bounded branching factor keeps the §5.2
        // invariant maintainable.
        auto from_raw = txn.Read(layout.CatalogRef(slot, from_sid),
                                 ReadMode::kValidated);
        if (!from_raw.ok()) return from_raw.status();
        CatalogEntry from = DecodeCatalogEntry(from_raw->data);
        if (from.root == sinfonia::kNullAddr) {
          return Status::NotFound("no such snapshot");
        }
        if (from.branch_count + 1 > tree_->options().beta) {
          return Status::NoSpace("version-tree branching factor exceeds beta");
        }

        // Teach the oracle the new lineage before any copy-on-write
        // bookkeeping below needs it.
        oracle_.RegisterParent(new_sid, from_sid);

        // Copy the source's root so the new branch anchors its own tree.
        auto new_root = tree_->CopyNodeInTxn(txn, from.root, new_sid,
                                             /*record_copy=*/true);
        if (!new_root.ok()) return new_root.status();

        CatalogEntry entry;
        entry.root = *new_root;
        entry.branch_id = 0;
        entry.parent = from_sid;
        entry.branch_count = 0;
        MINUET_RETURN_NOT_OK(txn.WriteNew(layout.CatalogRef(slot, new_sid),
                                          EncodeCatalogEntry(entry)));

        if (from.branch_id == 0) from.branch_id = new_sid;
        from.branch_count++;
        return txn.Write(layout.CatalogRef(slot, from_sid),
                         EncodeCatalogEntry(from));
      });
  MINUET_RETURN_NOT_OK(st);
  branches_created_.fetch_add(1, std::memory_order_relaxed);
  oracle_.RegisterParent(new_sid, from_sid);
  return new_sid;
}

Result<BranchInfo> VersionManager::Info(uint64_t sid) {
  txn::DynamicTxn txn(tree_->coordinator(), tree_->cache());
  auto raw = txn.Read(tree_->layout().CatalogRef(tree_->tree_slot(), sid),
                      ReadMode::kValidated);
  if (!raw.ok()) return raw.status();
  const CatalogEntry entry = DecodeCatalogEntry(raw->data);
  if (entry.root == sinfonia::kNullAddr) {
    return Status::NotFound("no such snapshot");
  }
  BranchInfo info;
  info.sid = sid;
  info.parent = entry.parent;
  info.branch_id = entry.branch_id;
  info.branch_count = entry.branch_count;
  info.writable = entry.branch_id == 0;
  info.root = entry.root;
  return info;
}

Result<uint64_t> VersionManager::MainlineTip() {
  uint64_t sid = 0;
  for (int hops = 0; hops < 1 << 20; hops++) {
    auto info = Info(sid);
    if (!info.ok()) return info.status();
    if (info->branch_id == 0) return sid;
    sid = info->branch_id;
  }
  return Status::Corruption("mainline cycle");
}

}  // namespace minuet::version
