// The descent engine: the one tree walker (VisitFrontier), the one copy of
// the §4.2/§5.2 node checks (SettleNodeForSid), and the one leaf step
// (FetchLeaves), behind every read and write path of the tree.
//
// A serial B-tree descent pays one minitransaction per node whenever the
// proxy cache cannot serve it, so K keys on a cold (or freshly invalidated)
// cache cost ~K × depth coordinator rounds. The engine instead advances a
// whole FRONTIER of keys one level at a time: every node the frontier needs
// at a level — across ALL keys — is fetched in ONE batched minitransaction
// (ReadNodes: a kDirty DynamicTxn::Read that also fills the cache), each
// distinct node is decoded once, and every key steps through it under the
// Fig. 5 safety checks (fence keys, height monotonicity) and the version
// checks (lineage, copied-snapshot redirects, §4.2/§5.2). Cold cost becomes
// ~depth rounds for ANY K; warm keys ride the cache for free. A single-key
// operation is the one-item case of the same walk.
//
// Consumers:
//   - BTree::Traverse          the recorded root-to-leaf path of Put,
//                              Insert, Remove, WriteBatch flushes, scan
//                              chunks and live migration,
//   - BTree::MultiGetAt        tip/snapshot/branch Get and MultiGet
//                              (tree.cc),
//   - BTree::ApplyWritesInTxn  WriteBatch leaf resolution + per-leaf
//                              dedupe (Proxy::Apply),
//   - BTree::WalkRange         the range walk under every scan: snapshot
//                              chunks, SnapshotScan and TipScan (one
//                              batched leaf round per chunk),
//   - BTree::CollectTipPlacement  the rebalancer's placement walk
//                              (migrate.cc).
#include <algorithm>
#include <functional>

#include "btree/tree.h"
#include "common/key_compare.h"

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
                               TraverseMode mode, bool as_leaf,
                               const FetchedNode** node, FetchedNode* hop,
                               Addr* at, std::vector<Addr>* visited) {
  for (int hops = 0; hops < 256; hops++) {
    const NodeView& view = (*node)->view;
    if (!oracle_->IsAncestorOrEqual(view.created_sid(), sid)) {
      return AbortDescent(txn, *at, *visited,
                          "node from a different version lineage");
    }
    DescendantEntry applicable;
    bool has_applicable = false;
    for (size_t di = 0; di < view.descendant_count(); di++) {
      const DescendantEntry d = view.descendant(di);
      if (oracle_->IsAncestorOrEqual(d.sid, sid)) {
        applicable = d;
        has_applicable = true;
        break;
      }
    }
    if (!has_applicable) return Status::OK();
    if (!applicable.discretionary) {
      // A real copy applies: the descent came through stale pointers; a
      // fresh retry reaches the copy through current parents (every copy
      // updates its whole ancestor chain atomically). Following the copy
      // pointer directly is NOT safe: intermediate links of a copy chain
      // may already be garbage-collected even when this snapshot itself is
      // still retained.
      return AbortDescent(txn, *at, *visited,
                          "node copied for this or an earlier snapshot");
    }
    // Discretionary copies (§5.2) exist only to bound descendant sets; they
    // are content-identical but carry the folded-away real-copy records,
    // so EVERY descent must consult them: follow the copy (parents keep
    // pointing at the chain's entry, because nothing ever links to a
    // discretionary copy). Safe with respect to GC: discretionary copies
    // belong to branching histories, which the collector does not reclaim.
    // Rare, so a point hop: the level batch could not have known the
    // target up front.
    stats_->redirects.Increment();
    *at = applicable.copy_addr;
    MINUET_RETURN_NOT_OK(ReadNodes(txn, at, 1, as_leaf, mode, *visited, hop));
    *node = hop;
    visited->push_back(*at);
  }
  return AbortDescent(txn, *at, *visited, "redirect chain did not terminate");
}

ReadMode BTree::ReadModeFor(bool as_leaf, TraverseMode mode) const {
  if (as_leaf) {
    return mode == TraverseMode::kSnapshotRead ? ReadMode::kFresh
                                               : ReadMode::kValidated;
  }
  if (mode == TraverseMode::kSnapshotRead ||
      (mode == TraverseMode::kUpToDate && options_.dirty_traversals)) {
    return ReadMode::kDirty;
  }
  return ReadMode::kCachedValidated;
}

Status BTree::ReadNodes(DynamicTxn& txn, const Addr* addrs, size_t n,
                        bool as_leaf, TraverseMode mode,
                        const std::vector<Addr>& visited, FetchedNode* out) {
  const ReadMode read_mode = ReadModeFor(as_leaf, mode);
  Status st;
  if (n == 1) {
    auto one = txn.Read(layout().SlabRef(addrs[0]), read_mode);
    if (one.ok() && out != nullptr) out[0].raw = std::move(one).value();
    st = one.status();
  } else {
    std::vector<ObjectRef> refs;
    refs.reserve(n);
    for (size_t k = 0; k < n; k++) refs.push_back(layout().SlabRef(addrs[k]));
    auto all = txn.Read(refs, read_mode);
    if (all.ok() && out != nullptr) {
      for (size_t k = 0; k < n; k++) out[k].raw = std::move((*all)[k]);
    }
    st = all.status();
  }
  if (st.IsUnavailable()) {
    for (size_t k = 0; k < n; k++) {
      if (coord_->retired(addrs[k].memnode)) {
        return AbortDescent(txn, addrs[k], visited,
                            "pointer to a retired memnode",
                            AbortReason::kRetiredMemnode);
      }
    }
  }
  MINUET_RETURN_NOT_OK(st);
  if (out == nullptr) return Status::OK();
  for (size_t k = 0; k < n; k++) {
    // The abort invalidates the WHOLE cached path, so the retry cannot
    // walk the same dead pointer again.
    if (!out[k].view.Init(out[k].raw.data).ok()) {
      return AbortDescent(txn, addrs[k], visited,
                          "undecodable node (stale pointer)");
    }
    // A cached-validated read learns the node's kind only now: an internal
    // node validates against its replicated seqnum-table mirror at commit.
    if (read_mode == ReadMode::kCachedValidated &&
        !options_.dirty_traversals && !out[k].view.is_leaf()) {
      txn.SetReadValidationMirror(addrs[k], layout().SeqSlotFor(addrs[k]));
    }
  }
  return Status::OK();
}

Status BTree::VisitFrontier(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                            std::vector<FrontierItem> level,
                            const FrontierCallbacks& cb,
                            std::vector<Addr>* visited) {
  auto abort = [&](Addr at, const char* reason) -> Status {
    return AbortDescent(txn, at, *visited, reason);
  };

  // Per-level scratch, reused across levels so a point operation's
  // one-item levels allocate once per walk rather than once per level.
  std::vector<FrontierItem> next;
  std::vector<Addr> addrs;  // the level's distinct nodes, ascending
  std::vector<FetchedNode> nodes;  // parallel to addrs

  // Bound the walk defensively (a cyclic corruption would otherwise hang
  // the proxy).
  for (int depth = 0; depth < 256 && !level.empty(); depth++) {
    // Items whose parent said "the child is a leaf" resolve without a
    // fetch: the frontier never reads leaves (FetchLeaves reads them with
    // the read discipline their mode requires, and leaves must never
    // linger in the proxy cache). The rest stay in `level`, in order.
    size_t kept = 0;
    for (size_t i = 0; i < level.size(); i++) {
      if (level[i].expected_height == 0) {
        MINUET_RETURN_NOT_OK(cb.on_leaf(level[i], nullptr, level[i].addr));
      } else {
        level[kept++] = level[i];
      }
    }
    level.resize(kept);
    if (level.empty()) return Status::OK();

    // ONE batched round fetches every distinct node this level needs.
    // Items sharing a node are grouped by sorting the addresses (no hash
    // index: most levels hold a single item); an item finds its node by
    // binary search.
    addrs.clear();
    for (const FrontierItem& it : level) addrs.push_back(it.addr);
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    for (const Addr& addr : addrs) {
      // A pointer into a retired memnode can only come from a stale parent
      // (drains complete before retirement): abort-and-invalidate NOW. A
      // fetch would be caught by ReadNodes, but a validated walk may serve
      // this item from the proxy cache without fetching and only discover
      // the retired home at commit — as a NON-retryable Unavailable that
      // skips the cache-scrubbing retry discipline.
      if (coord_->retired(addr.memnode)) {
        return AbortDescent(txn, addr, *visited,
                            "pointer to a retired memnode",
                            AbortReason::kRetiredMemnode);
      }
    }
    // Each distinct node gets ONE zero-copy view over its pinned image.
    nodes.resize(addrs.size());
    MINUET_RETURN_NOT_OK(ReadNodes(txn, addrs.data(), addrs.size(),
                                   /*as_leaf=*/false, mode, *visited,
                                   nodes.data()));
    visited->insert(visited->end(), addrs.begin(), addrs.end());

    // Advance every item through its (shared) node.
    next.clear();
    for (const FrontierItem& it : level) {
      const auto found = std::lower_bound(addrs.begin(), addrs.end(), it.addr);
      const FetchedNode* node = &nodes[found - addrs.begin()];
      Addr at = it.addr;
      FetchedNode hop;  // content of a followed discretionary copy
      MINUET_RETURN_NOT_OK(SettleNodeForSid(txn, sid, mode, /*as_leaf=*/false,
                                            &node, &hop, &at, visited));
      const NodeView& view = node->view;
      if (it.expected_height >= 0 &&
          view.height() != static_cast<uint8_t>(it.expected_height)) {
        return abort(at, "height mismatch");
      }
      if (view.is_leaf()) {
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
      if (view.num_entries() == 0) {
        return abort(at, "internal node without children");
      }
      MINUET_RETURN_NOT_OK(cb.on_internal(
          it, *node, at, static_cast<uint32_t>(depth), &next));
    }
    level.swap(next);
  }
  if (!level.empty()) {
    return abort(level[0].addr, "descent did not terminate");
  }
  return Status::OK();
}

Result<std::vector<BTree::PathEntry>> BTree::Traverse(DynamicTxn& txn,
                                                      uint64_t sid, Addr root,
                                                      const Slice& key,
                                                      TraverseMode mode) {
  const std::vector<std::string> keys{key.ToString()};
  std::vector<PathEntry> path;
  std::vector<LeafGroup> groups;
  std::vector<Addr> visited;
  std::vector<FetchedNode> leaves;
  MINUET_RETURN_NOT_OK(
      ResolveLeafGroups(txn, sid, root, mode, keys, &groups, &visited, &path));
  MINUET_RETURN_NOT_OK(
      FetchLeaves(txn, sid, mode, keys, &groups, &leaves, &visited));
  PathEntry& leaf = path.back();
  leaf.addr = groups[0].addr;
  leaf.raw = std::move(leaves[0].raw);
  leaf.view = std::move(leaves[0].view);
  return path;
}

Status BTree::ResolveLeafGroups(DynamicTxn& txn, uint64_t sid, Addr root,
                                TraverseMode mode,
                                const std::vector<std::string>& keys,
                                std::vector<LeafGroup>* groups,
                                std::vector<Addr>* visited,
                                std::vector<PathEntry>* path) {
  // (leaf address, key index) per key, grouped once the walk is done.
  std::vector<std::pair<Addr, size_t>> leaf_of;
  leaf_of.reserve(keys.size());

  // One frontier item per key, tagged with the key's index.
  std::vector<FrontierItem> roots(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    roots[i] = FrontierItem{root, -1, i};
  }
  auto on_leaf = [&](const FrontierItem& it, const FetchedNode* node,
                     Addr at) -> Status {
    if (node != nullptr && !node->view.InFenceRange(keys[it.tag])) {
      return AbortDescent(txn, at, *visited, "key outside fence range");
    }
    if (path != nullptr) path->push_back(PathEntry{at, it.addr, {}, {}});
    leaf_of.emplace_back(at, it.tag);
    return Status::OK();
  };
  auto on_internal = [&](const FrontierItem& it, const FetchedNode& node,
                         Addr at, uint32_t,
                         std::vector<FrontierItem>* next) -> Status {
    const Slice key(keys[it.tag]);
    if (!node.view.InFenceRange(key)) {
      return AbortDescent(txn, at, *visited, "key outside fence range");
    }
    if (path != nullptr) {
      path->push_back(PathEntry{at, it.addr, node.raw, node.view});
    }
    const size_t idx = node.view.ChildIndexFor(key);
    next->push_back(FrontierItem{node.view.EntryChild(idx),
                                 node.view.height() - 1, it.tag});
    return Status::OK();
  };
  // By reference: this descent runs on every single-key operation, and a
  // std::function holding the capture-heavy lambdas would allocate.
  MINUET_RETURN_NOT_OK(VisitFrontier(
      txn, sid, mode, std::move(roots),
      FrontierCallbacks{std::ref(on_leaf), std::ref(on_internal)}, visited));

  // Group by leaf address; within a group the key indices ascend, so ops
  // on one key keep their batch order.
  std::sort(leaf_of.begin(), leaf_of.end());
  groups->clear();
  for (const auto& [addr, key] : leaf_of) {
    if (groups->empty() || groups->back().addr != addr) {
      groups->push_back(LeafGroup{addr, {}});
    }
    groups->back().key_idx.push_back(key);
  }
  return Status::OK();
}

Status BTree::FetchLeaves(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                          const std::vector<std::string>& keys,
                          std::vector<LeafGroup>* groups,
                          std::vector<FetchedNode>* leaves,
                          std::vector<Addr>* visited) {
  std::vector<Addr> addrs;
  addrs.reserve(groups->size());
  for (const LeafGroup& g : *groups) addrs.push_back(g.addr);
  leaves->resize(addrs.size());
  MINUET_RETURN_NOT_OK(ReadNodes(txn, addrs.data(), addrs.size(),
                                 /*as_leaf=*/true, mode, *visited,
                                 leaves->data()));
  for (size_t g = 0; g < groups->size(); g++) {
    LeafGroup& group = (*groups)[g];
    FetchedNode& leaf = (*leaves)[g];
    const FetchedNode* node = &leaf;
    FetchedNode hop;
    MINUET_RETURN_NOT_OK(SettleNodeForSid(txn, sid, mode, /*as_leaf=*/true,
                                          &node, &hop, &group.addr, visited));
    if (node != &leaf) leaf = std::move(hop);
    if (!leaf.view.is_leaf()) {
      return AbortDescent(txn, group.addr, *visited, "height mismatch");
    }
    for (size_t i : group.key_idx) {
      if (!leaf.view.InFenceRange(keys[i])) {
        return AbortDescent(txn, group.addr, *visited,
                            "key outside fence range");
      }
    }
  }
  return Status::OK();
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
    // Fetch only, with no views: each flush's Traverse below settles its
    // leaf from the read set. `visited` lets a retired-pointer abort
    // invalidate the cached inner path that produced a stale leaf address.
    std::vector<Addr> addrs;
    addrs.reserve(groups.size());
    for (const LeafGroup& g : groups) addrs.push_back(g.addr);
    MINUET_RETURN_NOT_OK(ReadNodes(txn, addrs.data(), addrs.size(),
                                   /*as_leaf=*/true, TraverseMode::kUpToDate,
                                   visited, /*out=*/nullptr));
  }

  // Apply the ops grouped per leaf: ONE traversal and ONE leaf mutation
  // per flush instead of one per key. The traversal costs no extra rounds
  // — inner nodes come from the write set or proxy cache, the leaf from
  // the read set — and re-running it per flush keeps the mutation path on
  // the same Traverse/ApplyLeafMutation invariants as a single Put even as
  // earlier flushes copy-on-write ancestors or re-publish the root.
  for (const LeafGroup& g : groups) {
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

Status BTree::WalkRange(DynamicTxn& txn, uint64_t sid, Addr root,
                        TraverseMode mode, const std::string& start,
                        const std::string& end, size_t limit,
                        std::vector<std::pair<std::string, std::string>>* out,
                        std::string* resume) {
  resume->clear();
  const Slice stop(end);  // "" = unbounded
  if (!end.empty() && CompareKeys(Slice(start), stop) >= 0) {
    return Status::OK();
  }
  if (out->size() >= limit) {
    *resume = start;
    return Status::OK();
  }
  // The leaf budget: the most leaves whose expected yield at the last
  // batch's mean fill stays within the wanted pairs — the first leaf is
  // entered mid-way, so it yields half a leaf on average — at least one
  // (one before any batch has been read), capped per round. Staying
  // within ends most batches on a leaf boundary, so the next batch reads
  // no leaf twice.
  constexpr size_t kMaxLeavesPerBatch = 64;
  const size_t wanted = limit - out->size();
  const size_t fill = scan_leaf_fill_.load();
  const size_t budget =
      fill == 0 ? 1
                : std::clamp<size_t>((wanted + fill / 2) / fill, 1,
                                     kMaxLeavesPerBatch);

  // Descend left to right. Tag 0 marks the node on `start`'s path; every
  // other node is entered at its first child. A level keeps at most
  // `budget` items: each subtree holds at least one leaf, so the leaf level
  // still gets every leaf the budget allows.
  std::vector<Addr> visited;
  std::vector<Addr> addrs;  // the batch's leaves, in key order
  auto on_leaf = [&](const FrontierItem&, const FetchedNode*,
                     Addr at) -> Status {
    addrs.push_back(at);
    return Status::OK();
  };
  auto on_internal = [&](const FrontierItem& it, const FetchedNode& node,
                         Addr, uint32_t,
                         std::vector<FrontierItem>* next) -> Status {
    const NodeView& view = node.view;
    const size_t first = it.tag == 0 ? view.ChildIndexFor(start) : 0;
    for (size_t i = first; i < view.num_entries() && next->size() < budget;
         i++) {
      if (i > first && !end.empty() &&
          CompareKeys(view.EntryKey(i), stop) >= 0) {
        break;
      }
      next->push_back(FrontierItem{view.EntryChild(i), view.height() - 1,
                                   i == first ? it.tag : 1});
    }
    return Status::OK();
  };
  MINUET_RETURN_NOT_OK(VisitFrontier(
      txn, sid, mode, {FrontierItem{root, -1, 0}},
      FrontierCallbacks{std::ref(on_leaf), std::ref(on_internal)}, &visited));

  // ONE round reads the whole batch. Every leaf is checked before any pair
  // is taken, so an aborted attempt leaves `out` as it found it.
  std::vector<FetchedNode> leaves(addrs.size());
  MINUET_RETURN_NOT_OK(ReadNodes(txn, addrs.data(), addrs.size(),
                                 /*as_leaf=*/true, mode, visited,
                                 leaves.data()));
  size_t entries = 0;
  for (size_t k = 0; k < leaves.size(); k++) {
    const FetchedNode* node = &leaves[k];
    FetchedNode hop;
    MINUET_RETURN_NOT_OK(SettleNodeForSid(txn, sid, mode, /*as_leaf=*/true,
                                          &node, &hop, &addrs[k], &visited));
    if (node != &leaves[k]) leaves[k] = std::move(hop);
    const NodeView& leaf = leaves[k].view;
    if (!leaf.is_leaf()) {
      return AbortDescent(txn, addrs[k], visited, "height mismatch");
    }
    const Slice prev_high =
        k == 0 ? Slice() : leaves[k - 1].view.high_fence();
    const bool chained =
        k == 0 ? leaf.InFenceRange(start)
               : !prev_high.empty() && leaf.low_fence() == prev_high;
    if (!chained) {
      return AbortDescent(txn, addrs[k], visited,
                          "leaf breaks the range's fence chain");
    }
    entries += leaf.num_entries();
  }
  scan_leaf_fill_.store(
      static_cast<uint32_t>(std::max<size_t>(1, entries / leaves.size())));

  for (size_t k = 0; k < leaves.size(); k++) {
    const NodeView& leaf = leaves[k].view;
    for (size_t i = k == 0 ? leaf.LowerBound(start) : 0;
         i < leaf.num_entries(); i++) {
      const Slice key = leaf.EntryKey(i);
      if (!end.empty() && CompareKeys(key, stop) >= 0) return Status::OK();
      if (out->size() >= limit) {
        *resume = key.ToString();
        return Status::OK();
      }
      out->emplace_back(key.ToString(), leaf.EntryValue(i).ToString());
    }
  }
  const Slice next = leaves.back().view.high_fence();
  if (!next.empty() && (end.empty() || CompareKeys(next, stop) < 0)) {
    *resume = next.ToString();
  }
  return Status::OK();
}

Result<uint32_t> BTree::Depth() {
  uint32_t depth = 0;
  Status st = Transact([&](DynamicTxn& txn) -> Status {
    auto tip = ReadTipInTxn(txn, Tip::Linear(), /*for_write=*/false);
    if (!tip.ok()) return tip.status();
    FetchedNode node;
    MINUET_RETURN_NOT_OK(ReadNodes(txn, &tip->root, 1, /*as_leaf=*/false,
                                   TraverseMode::kSnapshotRead, {}, &node));
    if (node.view.is_leaf() && cache_ != nullptr) {
      cache_->Invalidate(tip->root);
    }
    depth = node.view.height() + 1u;
    return Status::OK();
  });
  if (!st.ok()) return st;
  return depth;
}

}  // namespace minuet::btree
