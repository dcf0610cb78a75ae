// The level-synchronized batched descent engine: the shared cold path of
// MultiGet, WriteBatch application and recursive scan partitioning.
//
// A serial B-tree descent pays one minitransaction per node whenever the
// proxy cache cannot serve it, so K keys on a cold (or freshly invalidated)
// cache cost ~K × depth coordinator rounds. The engine instead advances a
// whole FRONTIER of keys one level at a time: every node the frontier needs
// at a level — across ALL keys — is fetched in ONE batched minitransaction
// (DynamicTxn::DirtyReadBatch, which also fills the cache per entry), each
// distinct node is decoded once, and every key steps through it under the
// same safety checks a serial traversal runs (fence keys, height
// monotonicity, version lineage, copied-snapshot redirects, §4.2/§5.2).
// Cold cost becomes ~depth rounds for ANY K; warm keys ride the cache for
// free exactly as before.
//
// Consumers:
//   - BTree::MultiGetAt        tip/snapshot/branch MultiGet (tree.cc),
//   - BTree::ApplyWritesInTxn  WriteBatch leaf resolution + per-leaf
//                              dedupe (Proxy::Apply),
//   - BTree::PartitionRange    recursive, depth-bounded scan partitioning
//                              for Cursor::Options::fanout.
#include <algorithm>
#include <unordered_map>

#include "btree/tree.h"

namespace minuet::btree {

Status BTree::AbortDescent(DynamicTxn& txn, Addr at,
                           const std::vector<Addr>& visited,
                           const char* reason, AbortReason why) {
  if (cache_ != nullptr) {
    cache_->Invalidate(at);
    for (const Addr& a : visited) cache_->Invalidate(a);
  }
  stats_->traversal_aborts.Increment();
  txn.MarkAborted(why);
  return Status::Aborted(why, reason);
}

Status BTree::SettleNodeForSid(DynamicTxn& txn, uint64_t sid,
                               TraverseMode mode, const NodeView** node,
                               FetchedNode* hop, Addr* at,
                               std::vector<Addr>* visited) {
  for (int hops = 0; hops < 256; hops++) {
    if (!oracle_->IsAncestorOrEqual((*node)->created_sid(), sid)) {
      return AbortDescent(txn, *at, *visited,
                          "node from a different version lineage");
    }
    DescendantEntry applicable;
    bool has_applicable = false;
    for (size_t di = 0; di < (*node)->descendant_count(); di++) {
      const DescendantEntry d = (*node)->descendant(di);
      if (oracle_->IsAncestorOrEqual(d.sid, sid)) {
        applicable = d;
        has_applicable = true;
        break;
      }
    }
    if (!has_applicable) return Status::OK();
    if (!applicable.discretionary) {
      return AbortDescent(txn, *at, *visited,
                          "node copied for this or an earlier snapshot");
    }
    // Rare: follow the discretionary chain with (cached) point hops — the
    // level batch could not have known about the hop target up front.
    stats_->redirects.Increment();
    *at = applicable.copy_addr;
    auto fetched = FetchView(txn, *at, /*as_leaf=*/false, mode);
    if (!fetched.ok()) {
      if (fetched.status().IsCorruption()) {
        return AbortDescent(txn, *at, *visited,
                            "undecodable node (stale pointer)",
                            coord_->retired(at->memnode)
                                ? AbortReason::kRetiredMemnode
                                : AbortReason::kStaleCachePointer);
      }
      return fetched.status();
    }
    *hop = std::move(fetched).value();
    *node = &hop->view;
    visited->push_back(*at);
  }
  return AbortDescent(txn, *at, *visited, "redirect chain did not terminate");
}

Status BTree::MaybeRetiredAbort(DynamicTxn& txn, Status st,
                                const std::vector<ObjectRef>& refs,
                                const std::vector<Addr>& visited) {
  if (st.IsUnavailable()) {
    for (const ObjectRef& r : refs) {
      if (coord_->retired(r.addr.memnode)) {
        return AbortDescent(txn, r.addr, visited,
                            "pointer to a retired memnode",
                            AbortReason::kRetiredMemnode);
      }
    }
  }
  return st;
}

Status BTree::VisitFrontier(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                            bool validated_path,
                            std::vector<FrontierItem> level,
                            const FrontierCallbacks& cb,
                            std::vector<Addr>* visited) {
  auto abort = [&](Addr at, const char* reason) -> Status {
    return AbortDescent(txn, at, *visited, reason);
  };

  // Bound the walk defensively, like Traverse (a cyclic corruption would
  // otherwise hang the proxy).
  for (int depth = 0; depth < 256 && !level.empty(); depth++) {
    // Items whose parent said "the child is a leaf" resolve without a
    // fetch: the frontier never reads leaves (consumers batch-fetch them
    // with the read discipline their mode requires, and leaves must never
    // linger in the proxy cache).
    std::vector<FrontierItem> fetchable;
    fetchable.reserve(level.size());
    for (FrontierItem& it : level) {
      if (it.expected_height == 0) {
        MINUET_RETURN_NOT_OK(cb.on_leaf(it, nullptr, it.addr));
      } else {
        fetchable.push_back(std::move(it));
      }
    }
    if (fetchable.empty()) return Status::OK();

    // ONE batched round fetches every distinct node this level needs.
    std::vector<ObjectRef> refs;
    std::unordered_map<Addr, size_t, sinfonia::AddrHash> slot;
    for (const FrontierItem& it : fetchable) {
      // A pointer into a retired memnode can only come from a stale parent
      // (drains complete before retirement): abort-and-invalidate NOW. A
      // fetch would be caught by MaybeRetiredAbort below, but a validated
      // walk may serve this item from the proxy cache without fetching and
      // only discover the retired home at commit — as a NON-retryable
      // Unavailable that skips the cache-scrubbing retry discipline.
      if (coord_->retired(it.addr.memnode)) {
        return AbortDescent(txn, it.addr, *visited,
                            "pointer to a retired memnode");
      }
      if (slot.emplace(it.addr, refs.size()).second) {
        refs.push_back(validated_path ? layout().SlabRef(it.addr)
                                      : NodeRef(it.addr, /*internal=*/true));
      }
    }
    auto payloads = validated_path ? txn.ReadCachedBatchViews(refs)
                                   : txn.DirtyReadBatchViews(refs);
    if (!payloads.ok()) {
      return MaybeRetiredAbort(txn, payloads.status(), refs, *visited);
    }

    // Each distinct node gets ONE zero-copy view; the payloads vector keeps
    // every image pinned for the remainder of the level.
    std::vector<NodeView> views(refs.size());
    for (size_t k = 0; k < refs.size(); k++) {
      const Addr at = refs[k].addr;
      if (!views[k].Init((*payloads)[k].data).ok()) {
        return abort(at, "undecodable node (stale pointer)");
      }
      visited->push_back(at);
      if (validated_path && !views[k].is_leaf() &&
          options_.replicate_internal_seqnums) {
        txn.SetReadValidationMirror(at, layout().SeqSlotFor(at));
      }
    }

    // Advance every item through its (shared) node view.
    std::vector<FrontierItem> next;
    for (FrontierItem& it : fetchable) {
      const NodeView* node = &views[slot.at(it.addr)];
      Addr at = it.addr;
      FetchedNode hop;  // content of a followed discretionary copy
      MINUET_RETURN_NOT_OK(
          SettleNodeForSid(txn, sid, mode, &node, &hop, &at, visited));
      if (it.expected_height >= 0 &&
          node->height() != static_cast<uint8_t>(it.expected_height)) {
        return abort(at, "height mismatch");
      }
      if (node->is_leaf()) {
        // Reached through the internal-read path (root == leaf, or a
        // redirect): it may now sit in the proxy cache, and leaves must
        // never be served from there — drop both the batch-fetched entry
        // address and the settled hop target.
        if (cache_ != nullptr) {
          cache_->Invalidate(it.addr);
          cache_->Invalidate(at);
        }
        MINUET_RETURN_NOT_OK(cb.on_leaf(it, node, at));
        continue;
      }
      if (node->num_entries() == 0) {
        return abort(at, "internal node without children");
      }
      MINUET_RETURN_NOT_OK(cb.on_internal(
          it, *node, at, static_cast<uint32_t>(depth), &next));
    }
    level = std::move(next);
  }
  if (!level.empty()) {
    return abort(level[0].addr, "descent did not terminate");
  }
  return Status::OK();
}

Status BTree::ResolveLeafGroups(DynamicTxn& txn, uint64_t sid, Addr root,
                                TraverseMode mode,
                                const std::vector<std::string>& keys,
                                std::vector<LeafGroup>* groups,
                                std::vector<Addr>* visited_out) {
  groups->clear();

  // Abort discipline shared with Traverse: invalidate every dirty-read
  // address this descent leaned on so the retry refetches fresh state.
  std::vector<Addr> local_visited;
  std::vector<Addr>& visited =
      visited_out != nullptr ? *visited_out : local_visited;

  std::unordered_map<Addr, size_t, sinfonia::AddrHash> group_of;
  auto join_group = [&](Addr addr, size_t key) {
    auto [it, fresh] = group_of.emplace(addr, groups->size());
    if (fresh) groups->push_back(LeafGroup{addr, {}});
    (*groups)[it->second].key_idx.push_back(key);
  };

  // In the Aguilera baseline the whole path joins the read set and
  // validates against the replicated seqnum table at commit; level fetches
  // then go through ReadCachedBatch so the batched descent keeps those
  // semantics (still one round per level).
  const bool validated_path =
      mode == TraverseMode::kUpToDate && !options_.dirty_traversals;

  // One frontier item per key, tagged with the key's index.
  std::vector<FrontierItem> roots(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    roots[i] = FrontierItem{root, -1, i};
  }
  FrontierCallbacks cb;
  cb.on_leaf = [&](const FrontierItem& it, const NodeView* node,
                   Addr at) -> Status {
    if (node != nullptr && !node->InFenceRange(keys[it.tag])) {
      return AbortDescent(txn, at, visited, "key outside fence range");
    }
    join_group(at, it.tag);
    return Status::OK();
  };
  cb.on_internal = [&](const FrontierItem& it, const NodeView& node, Addr at,
                       uint32_t, std::vector<FrontierItem>* next) -> Status {
    const Slice key(keys[it.tag]);
    if (!node.InFenceRange(key)) {
      return AbortDescent(txn, at, visited, "key outside fence range");
    }
    const size_t idx = node.ChildIndexFor(key);
    next->push_back(
        FrontierItem{node.EntryChild(idx), node.height() - 1, it.tag});
    return Status::OK();
  };
  return VisitFrontier(txn, sid, mode, validated_path, std::move(roots), cb,
                       &visited);
}

Status BTree::ApplyWritesInTxn(DynamicTxn& txn,
                               const std::vector<WriteOp>& ops, Tip tip) {
  if (ops.empty()) return Status::OK();
  std::vector<std::string> keys;
  keys.reserve(ops.size());
  for (const WriteOp& op : ops) {
    MINUET_RETURN_NOT_OK(CheckKeyValue(op.key, op.value));
    keys.push_back(op.key);
  }
  // A branch tip resolves (and validates) its catalog entry instead of the
  // linear tip; writability is enforced there, inside this very
  // transaction.
  auto tip0 = ReadTipInTxn(txn, tip, /*for_write=*/true);
  if (!tip0.ok()) return tip0.status();

  // Cold-path collapse + per-leaf dedupe: one level-synchronized descent
  // resolves EVERY op's leaf (O(depth) rounds cold, free warm), then all
  // distinct leaves join the read set in ONE round — the commit
  // minitransaction will carry one compare per leaf, not per key.
  std::vector<LeafGroup> groups;
  std::vector<Addr> visited;
  MINUET_RETURN_NOT_OK(ResolveLeafGroups(txn, tip0->sid, tip0->root,
                                         TraverseMode::kUpToDate, keys,
                                         &groups, &visited));
  {
    std::vector<ObjectRef> refs;
    refs.reserve(groups.size());
    for (const LeafGroup& g : groups) {
      refs.push_back(NodeRef(g.addr, /*internal=*/false));
    }
    auto payloads = txn.ReadBatchViews(refs);
    if (!payloads.ok()) {
      // `visited` lets a retired-pointer abort invalidate the cached
      // inner path that produced the stale leaf address, like MultiGetAt.
      return MaybeRetiredAbort(txn, payloads.status(), refs, visited);
    }
  }

  // Apply the ops grouped per leaf: ONE traversal and ONE leaf mutation
  // per flush instead of one per key. The traversal costs no extra rounds
  // — inner nodes come from the write set or proxy cache, the leaf from
  // the read set — and re-running it per flush keeps the mutation path on
  // the battle-tested Traverse/ApplyLeafMutation invariants even as
  // earlier flushes copy-on-write ancestors or re-publish the root.
  for (LeafGroup& g : groups) {
    // Frontier resolution order is per level, so same-key ops are already
    // in batch order; sort as cheap insurance (order only matters there).
    std::sort(g.key_idx.begin(), g.key_idx.end());
    size_t next = 0;
    while (next < g.key_idx.size()) {
      // An earlier flush may have moved the root.
      auto ctx = ReadTipInTxn(txn, tip, /*for_write=*/true);
      if (!ctx.ok()) return ctx.status();
      auto path = Traverse(txn, ctx->sid, ctx->root, ops[g.key_idx[next]].key,
                           TraverseMode::kUpToDate);
      if (!path.ok()) return path.status();
      auto decoded = path->back().view.ToNode();  // mutation boundary
      if (!decoded.ok()) return decoded.status();
      Node leaf = std::move(decoded).value();
      bool dirty = false;
      size_t applied = 0;
      while (next < g.key_idx.size()) {
        const WriteOp& op = ops[g.key_idx[next]];
        // A flush's split may have moved later keys of this group to a
        // right sibling: re-traverse for them.
        if (!leaf.InFenceRange(op.key)) break;
        if (applied > 0) {
          // Never grow the leaf further once it already needs a split:
          // flush now so ApplyLeafMutation's single split always yields
          // halves that fit (the same one-entry-over-capacity invariant a
          // serial upsert maintains).
          const size_t reserve =
              (kMaxDescendants - leaf.descendants.size()) * kDescEntryBytes;
          if (leaf.EncodedSize() + reserve > capacity()) break;
        }
        if (op.kind == WriteOp::Kind::kPut) {
          leaf.Upsert(op.key, op.value, sinfonia::kNullAddr);
          dirty = true;
        } else if (leaf.Erase(op.key)) {
          dirty = true;
        }  // blind remove: an absent key is a tolerated no-op
        next++;
        applied++;
      }
      if (dirty) {
        MINUET_RETURN_NOT_OK(
            ApplyLeafMutation(txn, *ctx, *path, std::move(leaf)));
      }
      // `applied >= 1` always (Traverse guarantees the first key is in the
      // leaf's fence range), so the loop makes progress every iteration.
    }
  }
  return Status::OK();
}

Result<std::vector<BTree::ScanPartition>> BTree::PartitionRange(
    const SnapshotRef& snap, const std::string& start, const std::string& end,
    uint32_t max_levels) {
  if (max_levels == 0) max_levels = 1;
  std::vector<ScanPartition> parts;
  Status st = TransactSnapshotRead(snap.sid, [&](DynamicTxn& txn) -> Status {
    parts.clear();
    std::vector<Addr> visited;

    // The clipped key range each pending subtree is responsible for within
    // [start, end), indexed by the frontier items' tags (hi exclusive;
    // "" = unbounded).
    std::vector<std::pair<std::string, std::string>> ranges;
    ranges.emplace_back(start, end);

    FrontierCallbacks cb;
    cb.on_leaf = [&](const FrontierItem& it, const NodeView*,
                     Addr at) -> Status {
      // A single-leaf tree (the root only — heights are uniform, so deeper
      // levels are cut at height 1 below).
      const auto& [lo, hi] = ranges[it.tag];
      parts.push_back(ScanPartition{lo, hi, at.memnode});
      return Status::OK();
    };
    cb.on_internal = [&](const FrontierItem& it, const NodeView& node, Addr,
                         uint32_t level,
                         std::vector<FrontierItem>* next) -> Status {
      // Expand the children intersecting the subtree's clipped range.
      // Children of height-1 nodes are leaves — emit partitions instead of
      // descending further (the frontier never fetches leaves); same when
      // the level budget is spent.
      const bool cut = level + 1 >= max_levels || node.height() == 1;
      const size_t n = node.num_entries();
      const std::pair<std::string, std::string> range = ranges[it.tag];
      for (size_t i = 0; i < n; i++) {
        // Child i covers [key_i, key_{i+1}); clip to the subtree's range.
        std::string lo = node.EntryKey(i).ToString();
        if (lo < range.first) lo = range.first;
        std::string hi =
            i + 1 < n ? node.EntryKey(i + 1).ToString() : range.second;
        if (!range.second.empty() && (hi.empty() || hi > range.second)) {
          hi = range.second;
        }
        if (!hi.empty() && lo >= hi) continue;
        if (cut) {
          parts.push_back(ScanPartition{lo, hi, node.EntryChild(i).memnode});
        } else {
          next->push_back(FrontierItem{node.EntryChild(i), node.height() - 1,
                                       ranges.size()});
          ranges.emplace_back(std::move(lo), std::move(hi));
        }
      }
      return Status::OK();
    };
    MINUET_RETURN_NOT_OK(
        VisitFrontier(txn, snap.sid, TraverseMode::kSnapshotRead,
                      /*validated_path=*/false,
                      {FrontierItem{snap.root, -1, 0}}, cb, &visited));
    if (parts.empty()) {
      parts.push_back(ScanPartition{start, end, snap.root.memnode});
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  return parts;
}

Status BTree::PrewarmSnapshotPaths(const SnapshotRef& snap,
                                   const std::vector<std::string>& keys) {
  if (keys.empty() || cache_ == nullptr) return Status::OK();
  // A handful of attempts only: this is an optimization pass, and callers
  // proceed cold if the tree is churning too hard to settle. The descent
  // only dirty-reads, so each attempt's commit is free.
  return txn::RunTransaction(
      coord_, cache_, {}, /*max_attempts=*/3, [&](DynamicTxn& txn) {
        std::vector<LeafGroup> groups;
        return ResolveLeafGroups(txn, snap.sid, snap.root,
                                 TraverseMode::kSnapshotRead, keys, &groups,
                                 nullptr);
      });
}

Result<uint32_t> BTree::Depth() {
  uint32_t depth = 0;
  Status st = Transact([&](DynamicTxn& txn) -> Status {
    auto tip = ReadTipInTxn(txn, Tip::Linear(), /*for_write=*/false);
    if (!tip.ok()) return tip.status();
    auto node = FetchView(txn, tip->root, /*as_leaf=*/false,
                          TraverseMode::kSnapshotRead);
    if (!node.ok()) return node.status();
    if (node->view.is_leaf() && cache_ != nullptr) {
      cache_->Invalidate(tip->root);
    }
    depth = node->view.height() + 1u;
    return Status::OK();
  });
  if (!st.ok()) return st;
  return depth;
}

}  // namespace minuet::btree
