#include "btree/tree.h"

#include <cassert>

#include "common/byteio.h"

namespace minuet::btree {

// ---------------------------------------------------------------------------
// Small payload codecs

std::string EncodeTipId(uint64_t sid) {
  std::string out;
  PutFixed64(&out, sid);
  return out;
}

uint64_t DecodeTipId(Slice payload) {
  return payload.size() >= 8 ? DecodeFixed64(payload.data()) : 0;
}

std::string EncodeRootLoc(Addr root) {
  std::string out;
  PutFixed32(&out, root.memnode);
  PutFixed64(&out, root.offset);
  return out;
}

Addr DecodeRootLoc(Slice payload) {
  if (payload.size() < 12) return sinfonia::kNullAddr;
  Addr a;
  a.memnode = DecodeFixed32(payload.data());
  a.offset = DecodeFixed64(payload.data() + 4);
  return a;
}

std::string EncodeCatalogEntry(const CatalogEntry& e) {
  std::string out;
  PutFixed32(&out, e.root.memnode);
  PutFixed64(&out, e.root.offset);
  PutFixed64(&out, e.branch_id);
  PutFixed64(&out, e.parent);
  PutFixed32(&out, e.branch_count);
  return out;
}

CatalogEntry DecodeCatalogEntry(Slice payload) {
  CatalogEntry e;
  if (payload.size() < 32) return e;
  e.root.memnode = DecodeFixed32(payload.data());
  e.root.offset = DecodeFixed64(payload.data() + 4);
  e.branch_id = DecodeFixed64(payload.data() + 12);
  e.parent = DecodeFixed64(payload.data() + 20);
  e.branch_count = DecodeFixed32(payload.data() + 28);
  return e;
}

// ---------------------------------------------------------------------------
// Construction & bootstrap

BTree::BTree(sinfonia::Coordinator* coord, NodeAllocator* allocator,
             ObjectCache* cache, const VersionOracle* oracle,
             uint32_t tree_slot, TreeOptions options, Stats* shared_stats)
    : coord_(coord),
      allocator_(allocator),
      cache_(cache),
      oracle_(oracle),
      tree_slot_(tree_slot),
      options_(options),
      stats_(shared_stats != nullptr ? shared_stats : &own_stats_) {
  assert(options_.beta >= 1 && options_.beta <= kMaxDescendants);
}

ObjectRef BTree::NodeRef(Addr addr, bool internal) const {
  ObjectRef ref = layout().SlabRef(addr);
  if (internal && !options_.dirty_traversals) {
    ref.rep_seq_offset = layout().SeqSlotFor(addr);
  }
  return ref;
}

Status BTree::CheckKeyValue(const std::string& key,
                            const std::string& value) const {
  if (key.empty()) return Status::InvalidArgument("empty key");
  const size_t max_entry = MaxEntryBytes(capacity());
  if (key.size() + value.size() > max_entry) {
    return Status::InvalidArgument("entry exceeds node capacity");
  }
  return Status::OK();
}

Status BTree::CreateTree() {
  return txn::RunTransaction(
      coord_, cache_, {}, options_.max_attempts,
      [&](DynamicTxn& txn) -> Status {
        Node root;
        root.height = 0;
        root.created_sid = 0;
        auto root_addr = WriteFreshNode(txn, root);
        if (!root_addr.ok()) return root_addr.status();
        MINUET_RETURN_NOT_OK(
            txn.WriteNew(layout().TipIdRef(tree_slot_), EncodeTipId(0)));
        MINUET_RETURN_NOT_OK(txn.WriteNew(layout().TipRootRef(tree_slot_),
                                          EncodeRootLoc(*root_addr)));
        MINUET_RETURN_NOT_OK(
            txn.WriteNew(layout().NextSidRef(tree_slot_), EncodeTipId(1)));
        MINUET_RETURN_NOT_OK(
            txn.WriteNew(layout().LowestSidRef(tree_slot_), EncodeTipId(0)));
        CatalogEntry entry;
        entry.root = *root_addr;
        return txn.WriteNew(layout().CatalogRef(tree_slot_, 0),
                            EncodeCatalogEntry(entry));
      });
}

// ---------------------------------------------------------------------------
// Tip plumbing

Result<TipContext> BTree::ReadTipInTxn(DynamicTxn& txn, Tip tip,
                                       bool for_write) {
  TipContext ctx;
  if (tip.branch) {
    auto raw = txn.Read(layout().CatalogRef(tree_slot_, tip.sid),
                        ReadMode::kCachedValidated);
    if (!raw.ok()) return raw.status();
    const CatalogEntry entry = DecodeCatalogEntry(raw->data);
    if (entry.root == sinfonia::kNullAddr) {
      return Status::NotFound("no such snapshot");
    }
    if (for_write && entry.branch_id != 0) {
      // A branch has been created from this snapshot: it is read-only now.
      // (The cached entry may be stale the other way — claiming writable
      // when it is not — but then the commit-time validation of this
      // catalog read aborts the transaction, which is exactly the paper's
      // §5.1 rule.)
      return Status::ReadOnly("snapshot has branches");
    }
    ctx.sid = tip.sid;
    ctx.root = entry.root;
    ctx.branch = true;
    return ctx;
  }
  // The proxy validates its CACHED tip copy (paper §4.1): no fetch in the
  // common case, and commit/leaf-fetch validation catches staleness. On a
  // cold cache the pair is fetched in ONE batched round, not two; when
  // this transaction already read (or wrote) the pair — every re-read
  // after the first, e.g. ApplyWritesInTxn's flush loop — it is served
  // straight from the read/write set with no batch machinery.
  const ObjectRef id_ref = layout().TipIdRef(tree_slot_);
  const ObjectRef root_ref = layout().TipRootRef(tree_slot_);
  const std::optional<Slice> id_raw = txn.Peek(id_ref);
  const std::optional<Slice> root_raw = txn.Peek(root_ref);
  if (id_raw && root_raw) {
    ctx.sid = DecodeTipId(*id_raw);
    ctx.root = DecodeRootLoc(*root_raw);
  } else {
    auto raw = txn.Read({id_ref, root_ref}, ReadMode::kCachedValidated);
    if (!raw.ok()) return raw.status();
    ctx.sid = DecodeTipId((*raw)[0].data);
    ctx.root = DecodeRootLoc((*raw)[1].data);
  }
  if (ctx.root == sinfonia::kNullAddr) {
    return Status::InvalidArgument("tree not created");
  }
  return ctx;
}

Status BTree::PublishRoot(DynamicTxn& txn, const TipContext& tip,
                          Addr new_root) {
  if (!tip.branch) {
    return txn.Write(layout().TipRootRef(tree_slot_),
                     EncodeRootLoc(new_root));
  }
  const ObjectRef ref = layout().CatalogRef(tree_slot_, tip.sid);
  // A read-set hit: already validated.
  auto raw = txn.Read(ref, ReadMode::kValidated);
  if (!raw.ok()) return raw.status();
  CatalogEntry entry = DecodeCatalogEntry(raw->data);
  entry.root = new_root;
  return txn.Write(ref, EncodeCatalogEntry(entry));
}

// ---------------------------------------------------------------------------
// Copy-on-write bookkeeping

Result<Addr> BTree::WriteFreshNode(DynamicTxn& txn, const Node& node) {
  return WriteFreshNodeAt(txn, node, allocator_->NextPlacement());
}

Result<Addr> BTree::WriteFreshNodeAt(DynamicTxn& txn, const Node& node,
                                     sinfonia::MemnodeId memnode) {
  auto slab = allocator_->Allocate(txn, memnode);
  if (!slab.ok()) return slab.status();
  if (node.EncodedSize() > capacity()) return Status::NoSpace("node overflow");
  // Encode straight into the transaction arena: the image lives until
  // commit, so the write set can reference it without another copy.
  const Slice image = node.EncodeToArena(txn.arena());
  ObjectRef ref = slab->ref;
  if (node.height > 0 && !options_.dirty_traversals) {
    ref.rep_seq_offset = layout().SeqSlotFor(ref.addr);
  }
  Status st = slab->known_seqnum
                  ? txn.WriteNew(ref, image, *slab->known_seqnum)
                  : txn.Write(ref, image);
  if (!st.ok()) return st;
  return ref.addr;
}

Status BTree::RecordCopy(DynamicTxn& txn, Addr old_addr, Node old_node,
                         uint64_t sid, Addr copy_addr) {
  old_node.descendants.push_back(DescendantEntry{sid, copy_addr, false});

  // Enforce the §5.2 invariant: keep at most β descendant entries by
  // folding subsets of copies under their LCA via a discretionary copy.
  const size_t beta = options_.beta;
  while (old_node.descendants.size() > beta) {
    auto& ds = old_node.descendants;
    size_t best_i = 0, best_j = 0;
    uint64_t best_lca = 0, best_depth = 0;
    bool found = false;
    for (size_t i = 0; i < ds.size(); i++) {
      for (size_t j = i + 1; j < ds.size(); j++) {
        const uint64_t lca = oracle_->Lca(ds[i].sid, ds[j].sid);
        if (lca == old_node.created_sid) continue;  // cannot fold above x
        const uint64_t depth = oracle_->Depth(lca);
        if (!found || depth > best_depth) {
          found = true;
          best_i = i;
          best_j = j;
          best_lca = lca;
          best_depth = depth;
        }
      }
    }
    if (!found) {
      // All entries branch directly off the creation snapshot; the version
      // tree's branching factor must stay within β to prevent this.
      return Status::NoSpace("descendant set cannot be folded within beta");
    }
    (void)best_i;
    (void)best_j;

    // The discretionary copy carries the node's (identical) content,
    // created at the LCA, and inherits the entries that fold under it.
    Node disc;
    disc.height = old_node.height;
    disc.created_sid = best_lca;
    disc.low_fence = old_node.low_fence;
    disc.high_fence = old_node.high_fence;
    disc.entries = old_node.entries;
    std::vector<DescendantEntry> keep;
    for (const DescendantEntry& d : ds) {
      if (d.sid != best_lca && oracle_->IsAncestorOrEqual(best_lca, d.sid)) {
        disc.descendants.push_back(d);
      } else {
        keep.push_back(d);
      }
    }
    auto disc_addr = WriteFreshNode(txn, disc);
    if (!disc_addr.ok()) return disc_addr.status();
    keep.push_back(DescendantEntry{best_lca, *disc_addr, true});
    old_node.descendants = std::move(keep);
    stats_->discretionary_copies.Increment();
  }

  return txn.Write(NodeRef(old_addr, old_node.height > 0),
                   old_node.EncodeToArena(txn.arena()));
}

Result<Addr> BTree::CopyNodeInTxn(DynamicTxn& txn, Addr node_addr,
                                  uint64_t sid, bool record_copy) {
  // Transactional read: the copied content is validated through commit.
  // This is a mutation path, so the full decode is intentional.
  auto raw =
      txn.Read(NodeRef(node_addr, /*internal=*/true), ReadMode::kValidated);
  if (!raw.ok()) return raw.status();
  auto decoded = Node::Decode(raw->data);
  if (!decoded.ok()) return decoded.status();
  Node copy = std::move(decoded).value();
  Node original = copy;

  copy.created_sid = sid;
  copy.descendants.clear();
  auto copy_addr = WriteFreshNode(txn, copy);
  if (!copy_addr.ok()) return copy_addr.status();
  stats_->cow_copies.Increment();
  if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->nodes_copied++;

  if (record_copy) {
    MINUET_RETURN_NOT_OK(
        RecordCopy(txn, node_addr, std::move(original), sid, *copy_addr));
  }
  return copy_addr;
}

// ---------------------------------------------------------------------------
// Leaf mutation with CoW, splits, and upward propagation

Status BTree::ApplyLeafMutation(DynamicTxn& txn, const TipContext& tip,
                                std::vector<PathEntry>& path, Node leaf) {
  // Carry from level i to its parent at level i-1.
  bool child_changed = false;
  Addr old_child, new_child;
  bool have_split = false;
  std::string split_sep;
  Addr split_right;

  for (int i = static_cast<int>(path.size()) - 1; i >= 0; i--) {
    const Addr addr = path[i].addr;
    const bool is_last = i == static_cast<int>(path.size()) - 1;

    Node pristine;
    Node modified;
    if (is_last) {
      // The leaf was read transactionally during traversal: validated.
      // Materialize it from the view — the mutation boundary's one decode.
      auto pr = path[i].view.ToNode();
      if (!pr.ok()) {
        txn.MarkAborted(AbortReason::kStaleCachePointer);
        return Status::Aborted(AbortReason::kStaleCachePointer,
                               "leaf no longer decodable");
      }
      pristine = std::move(pr).value();
      modified = std::move(leaf);
    } else {
      // Internal nodes were (possibly) dirty-read; mutating one requires a
      // transactional re-read so the edit bases on validated content.
      auto raw =
          txn.Read(NodeRef(addr, /*internal=*/true), ReadMode::kValidated);
      if (!raw.ok()) return raw.status();
      auto decoded = Node::Decode(raw->data);
      if (!decoded.ok()) {
        txn.MarkAborted(AbortReason::kStaleCachePointer);
        return Status::Aborted(AbortReason::kStaleCachePointer,
                               "parent no longer decodable");
      }
      pristine = std::move(decoded).value();
      modified = pristine;

      // The fresh parent must still be the node the traversal used: same
      // height and it must actually point at the child we came from.
      size_t idx = modified.entries.size();
      for (size_t e = 0; e < modified.entries.size(); e++) {
        if (modified.entries[e].child == old_child) {
          idx = e;
          break;
        }
      }
      if (modified.height != path[i].view.height() ||
          idx == modified.entries.size()) {
        if (cache_ != nullptr) cache_->Invalidate(addr);
        txn.MarkAborted(AbortReason::kStaleCachePointer);
        return Status::Aborted(AbortReason::kStaleCachePointer,
                               "parent changed during operation");
      }
      if (child_changed) modified.entries[idx].child = new_child;
      if (have_split) modified.Upsert(split_sep, "", split_right);
      if (!child_changed && !have_split) return Status::OK();
    }

    child_changed = false;
    have_split = false;

    // -- Copy-on-write ------------------------------------------------------
    Addr target = addr;
    bool cowed = false;
    if (modified.created_sid != tip.sid) {
      modified.created_sid = tip.sid;
      modified.descendants.clear();
      cowed = true;
    }

    // -- Split --------------------------------------------------------------
    // Reserve slack for descendant entries the copy-on-write bookkeeping
    // may add to this node later (RecordCopy writes in place and must
    // never overflow the slab).
    const size_t desc_reserve =
        (kMaxDescendants - modified.descendants.size()) * kDescEntryBytes;
    Node right;
    if (modified.EncodedSize() + desc_reserve > capacity()) {
      if (modified.entries.size() < 4) {
        return Status::NoSpace("node cannot be split further");
      }
      split_sep = modified.SplitInto(&right);
      auto right_addr = WriteFreshNode(txn, right);
      if (!right_addr.ok()) return right_addr.status();
      split_right = *right_addr;
      have_split = true;
      stats_->splits.Increment();
    }

    // -- Write this level -----------------------------------------------------
    if (cowed) {
      auto copy_addr = WriteFreshNode(txn, modified);
      if (!copy_addr.ok()) return copy_addr.status();
      target = *copy_addr;
      stats_->cow_copies.Increment();
      if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->nodes_copied++;
      MINUET_RETURN_NOT_OK(
          RecordCopy(txn, addr, std::move(pristine), tip.sid, target));
      child_changed = true;
      // The parent's entry holds the chain ENTRY address (link_addr), not
      // the discretionary copy the traversal may have hopped to.
      old_child = path[i].link_addr;
      new_child = target;
    } else {
      MINUET_RETURN_NOT_OK(
          txn.Write(NodeRef(addr, modified.height > 0),
                    modified.EncodeToArena(txn.arena())));
      old_child = path[i].link_addr;
      new_child = path[i].link_addr;
    }

    if (!child_changed && !have_split) return Status::OK();
  }

  // The carry survived past the root: the root was copied and/or split.
  Addr root_addr = child_changed ? new_child : path[0].link_addr;
  if (have_split) {
    Node new_root;
    new_root.height = path[0].view.height() + 1;
    new_root.created_sid = tip.sid;
    new_root.entries.push_back(NodeEntry{path[0].view.low_fence().ToString(),
                                         "", root_addr});
    new_root.entries.push_back(NodeEntry{split_sep, "", split_right});
    auto nr = WriteFreshNode(txn, new_root);
    if (!nr.ok()) return nr.status();
    root_addr = *nr;
  }
  return PublishRoot(txn, tip, root_addr);
}

// ---------------------------------------------------------------------------
// Public operations

Status BTree::GetInTxn(DynamicTxn& txn, const std::string& key,
                       std::string* value, Tip tip) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  auto ctx = ReadTipInTxn(txn, tip, /*for_write=*/false);
  if (!ctx.ok()) return ctx.status();
  return GetAt(txn, ctx->sid, ctx->root, TraverseMode::kUpToDate, key, value);
}

Status BTree::GetAt(DynamicTxn& txn, uint64_t sid, Addr root,
                    TraverseMode mode, const std::string& key,
                    std::string* value) {
  std::vector<std::optional<std::string>> values;
  MINUET_RETURN_NOT_OK(MultiGetAt(txn, sid, root, mode, {key}, &values));
  if (!values[0]) return Status::NotFound("key absent");
  if (value != nullptr) *value = std::move(*values[0]);
  return Status::OK();
}

Status BTree::MultiGetAt(DynamicTxn& txn, uint64_t sid, Addr root,
                         TraverseMode mode,
                         const std::vector<std::string>& keys,
                         std::vector<std::optional<std::string>>* values) {
  values->assign(keys.size(), std::nullopt);
  // Warm internal levels come from the proxy cache (K keys sharing a path
  // prefix pay for it once); on a cold cache every level is a single
  // batched round across ALL keys, so resolution costs ~depth rounds
  // instead of ~K × depth. All distinct leaves then share one round.
  std::vector<Addr> visited;
  std::vector<LeafGroup> groups;
  std::vector<FetchedNode> leaves;
  MINUET_RETURN_NOT_OK(
      ResolveLeafGroups(txn, sid, root, mode, keys, &groups, &visited));
  MINUET_RETURN_NOT_OK(
      FetchLeaves(txn, sid, mode, keys, &groups, &leaves, &visited));
  for (size_t g = 0; g < groups.size(); g++) {
    const NodeView& leaf = leaves[g].view;
    for (size_t i : groups[g].key_idx) {
      const size_t e = leaf.FindKey(keys[i]);
      if (e != leaf.num_entries()) {
        (*values)[i] = leaf.EntryValue(e).ToString();
      }
    }
  }
  return Status::OK();
}

Status BTree::MultiGetInTxn(DynamicTxn& txn,
                            const std::vector<std::string>& keys,
                            std::vector<std::optional<std::string>>* values) {
  for (const std::string& key : keys) {
    MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  }
  auto tip = ReadTipInTxn(txn, Tip::Linear(), /*for_write=*/false);
  if (!tip.ok()) return tip.status();
  return MultiGetAt(txn, tip->sid, tip->root, TraverseMode::kUpToDate, keys,
                    values);
}

Status BTree::UpsertInTxn(DynamicTxn& txn, const std::string& key,
                          const std::string& value, Tip tip, bool strict) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, value));
  auto ctx = ReadTipInTxn(txn, tip, /*for_write=*/true);
  if (!ctx.ok()) return ctx.status();
  auto path = Traverse(txn, ctx->sid, ctx->root, key, TraverseMode::kUpToDate);
  if (!path.ok()) return path.status();
  const NodeView& leaf_view = path->back().view;
  if (strict && leaf_view.FindKey(key) != leaf_view.num_entries()) {
    return Status::AlreadyExists("insert of a present key");
  }
  auto leaf = leaf_view.ToNode();  // mutation boundary: materialize
  if (!leaf.ok()) return leaf.status();
  leaf->Upsert(key, value, sinfonia::kNullAddr);
  return ApplyLeafMutation(txn, *ctx, *path, std::move(*leaf));
}

Status BTree::PutInTxn(DynamicTxn& txn, const std::string& key,
                       const std::string& value, Tip tip) {
  return UpsertInTxn(txn, key, value, tip, /*strict=*/false);
}

Status BTree::InsertInTxn(DynamicTxn& txn, const std::string& key,
                          const std::string& value, Tip tip) {
  return UpsertInTxn(txn, key, value, tip, /*strict=*/true);
}

Status BTree::RemoveInTxn(DynamicTxn& txn, const std::string& key, Tip tip) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  auto ctx = ReadTipInTxn(txn, tip, /*for_write=*/true);
  if (!ctx.ok()) return ctx.status();
  auto path = Traverse(txn, ctx->sid, ctx->root, key,
                       TraverseMode::kUpToDate);
  if (!path.ok()) return path.status();
  if (path->back().view.FindKey(key) == path->back().view.num_entries()) {
    return Status::NotFound("key absent");
  }
  auto leaf = path->back().view.ToNode();  // mutation boundary
  if (!leaf.ok()) return leaf.status();
  leaf->Erase(key);
  // Empty leaves are retained: they still own their fence range. (The
  // paper does not merge nodes either; compaction would be a GC concern.)
  return ApplyLeafMutation(txn, *ctx, *path, std::move(*leaf));
}

Status BTree::Get(const std::string& key, std::string* value, Tip tip) {
  return Transact(
      [&](DynamicTxn& txn) { return GetInTxn(txn, key, value, tip); });
}

Status BTree::Put(const std::string& key, const std::string& value,
                  Tip tip) {
  return Transact(
      [&](DynamicTxn& txn) { return PutInTxn(txn, key, value, tip); });
}

Status BTree::Insert(const std::string& key, const std::string& value,
                     Tip tip) {
  return Transact(
      [&](DynamicTxn& txn) { return InsertInTxn(txn, key, value, tip); });
}

Status BTree::Remove(const std::string& key, Tip tip) {
  return Transact([&](DynamicTxn& txn) { return RemoveInTxn(txn, key, tip); });
}

// ---------------------------------------------------------------------------
// Snapshot reads

// Reading below the garbage-collection horizon is unsupported (§4.4: the
// lowest retained snapshot id bounds queryable history). Persistent aborts
// on a snapshot read are the symptom; confirm against the published
// horizon and fail fast with a clear status.
Status BTree::CheckGcHorizon(uint64_t sid) {
  DynamicTxn txn(coord_, /*cache=*/nullptr);
  auto raw = txn.Read(layout().LowestSidRef(tree_slot_), ReadMode::kFresh);
  if (raw.ok() && DecodeTipId(raw->data) > sid) {
    // Non-retryable (the snapshot is gone for good), but worth a taxonomy
    // bucket: persistent retries that die here are a GC-pacing signal.
    coord_->metrics()
        .txn_aborts[static_cast<unsigned>(AbortReason::kGcHorizon)]
        .Increment();
    return Status::InvalidArgument("snapshot below the GC horizon");
  }
  return Status::OK();
}

Status BTree::SnapshotGet(const SnapshotRef& snap, const std::string& key,
                          std::string* value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  return TransactSnapshotRead(snap.sid, [&](DynamicTxn& txn) -> Status {
    return GetAt(txn, snap.sid, snap.root, TraverseMode::kSnapshotRead, key,
                 value);
  });
}

Status BTree::SnapshotMultiGet(
    const SnapshotRef& snap, const std::vector<std::string>& keys,
    std::vector<std::optional<std::string>>* values) {
  for (const std::string& key : keys) {
    MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  }
  return TransactSnapshotRead(snap.sid, [&](DynamicTxn& txn) -> Status {
    return MultiGetAt(txn, snap.sid, snap.root, TraverseMode::kSnapshotRead,
                      keys, values);
  });
}

Status BTree::SnapshotScanChunk(
    const SnapshotRef& snap, const std::string& start_key,
    const std::string& end_key, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    std::string* resume_key) {
  // A scan start is a position, not a key: any byte string is valid ("" =
  // the beginning; cursor resume keys may exceed the max entry size).
  return TransactSnapshotRead(snap.sid, [&](DynamicTxn& txn) -> Status {
    return WalkRange(txn, snap.sid, snap.root, TraverseMode::kSnapshotRead,
                     start_key, end_key, limit, out, resume_key);
  });
}

Status BTree::SnapshotScan(
    const SnapshotRef& snap, const std::string& start_key, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::string from = start_key;
  std::string resume;
  while (out->size() < limit) {
    MINUET_RETURN_NOT_OK(
        SnapshotScanChunk(snap, from, /*end_key=*/"", limit, out, &resume));
    if (resume.empty()) break;  // rightmost leaf reached
    from = std::move(resume);
  }
  return Status::OK();
}

Status BTree::TipScan(const std::string& start_key, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out,
                      const std::string& end_key) {
  return Transact([&](DynamicTxn& txn) -> Status {
    out->clear();
    auto tip = ReadTipInTxn(txn, Tip::Linear(), /*for_write=*/false);
    if (!tip.ok()) return tip.status();
    // Every batch's leaves join this one transaction's read set.
    std::string from = start_key;
    std::string resume;
    while (out->size() < limit) {
      MINUET_RETURN_NOT_OK(WalkRange(txn, tip->sid, tip->root,
                                     TraverseMode::kUpToDate, from, end_key,
                                     limit, out, &resume));
      if (resume.empty()) break;
      from = std::move(resume);
    }
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Snapshot creation (Fig. 6)

Result<SnapshotRef> BTree::CreateSnapshotInTxn(DynamicTxn& txn) {
  auto sid_raw =
      txn.Read(layout().TipIdRef(tree_slot_), ReadMode::kValidated);
  if (!sid_raw.ok()) return sid_raw.status();
  auto root_raw =
      txn.Read(layout().TipRootRef(tree_slot_), ReadMode::kValidated);
  if (!root_raw.ok()) return root_raw.status();
  const uint64_t sid = DecodeTipId(sid_raw->data);
  const Addr loc = DecodeRootLoc(root_raw->data);

  const uint64_t new_sid = sid + 1;
  // Copy the root eagerly so the tip root location stays valid regardless
  // of where the first post-snapshot write lands (§4.1).
  auto new_root = CopyNodeInTxn(txn, loc, new_sid, /*record_copy=*/true);
  if (!new_root.ok()) return new_root.status();

  MINUET_RETURN_NOT_OK(
      txn.Write(layout().TipIdRef(tree_slot_), EncodeTipId(new_sid)));
  MINUET_RETURN_NOT_OK(
      txn.Write(layout().TipRootRef(tree_slot_), EncodeRootLoc(*new_root)));
  return SnapshotRef{sid, loc};
}

}  // namespace minuet::btree
