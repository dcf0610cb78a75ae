// Live slab migration: relocate one tip-reachable B-tree node to a chosen
// memnode while readers and writers keep running.
//
// A migration is an ordinary copy-on-write dressed as a move: the node's
// content is copied into a fresh slab at the DESTINATION memnode as a copy
// belonging to the current tip snapshot, the copy is recorded in the source
// node's descendant set, and the parent's child pointer swings to the copy
// through the same CoW-aware write-back every leaf mutation uses. Every
// consistency property then comes for free:
//   - tip descents that raced through a stale cached parent land on the
//     source, see an applicable real copy, and abort-retry onto the copy
//     (the §4.2 rule in SettleNodeForSid, descent.cc);
//   - snapshot readers below the migration sid keep reading the source,
//     whose content is untouched (only its descendant record grew);
//   - the source slab is reclaimed by the MVCC garbage collector once the
//     snapshot horizon passes the migration sid — never before, so no
//     in-flight snapshot or stale proxy pointer can observe a recycled slab
//     outside the existing seqnum safety net.
//
// CollectTipPlacement feeds the rebalancer (both its balance and drain
// modes): a walk of the tip with the one descent engine (VisitFrontier)
// that lists every node with a routing key to re-locate it by;
// MigrateNodeInTxn re-locates the node through that key's Traverse path.
#include "btree/tree.h"

namespace minuet::btree {

Status BTree::CollectTipPlacement(std::vector<NodePlacement>* out) {
  return Transact([&](DynamicTxn& txn) -> Status {
    out->clear();
    auto tip = ReadTipInTxn(txn, Tip::Linear(), /*for_write=*/false);
    if (!tip.ok()) return tip.status();

    std::vector<Addr> visited;
    // A key routing to each pending node (so a later migration can
    // re-locate it through the parent), indexed by the items' tags.
    std::vector<std::string> routing;
    routing.emplace_back("");

    FrontierCallbacks cb;
    cb.on_leaf = [&](const FrontierItem& it, const FetchedNode*,
                     Addr) -> Status {
      // Leaves are recorded straight from their parent's entry (`it.addr`,
      // the address the parent holds) — the walk needs no leaf content.
      out->push_back(
          NodePlacement{it.addr, std::move(routing[it.tag]), 0});
      return Status::OK();
    };
    cb.on_internal = [&](const FrontierItem& it, const FetchedNode& fetched,
                         Addr, uint32_t,
                         std::vector<FrontierItem>* next) -> Status {
      const NodeView& node = fetched.view;
      out->push_back(NodePlacement{it.addr, routing[it.tag], node.height()});
      for (size_t e = 0; e < node.num_entries(); e++) {
        next->push_back(FrontierItem{node.EntryChild(e), node.height() - 1,
                                     routing.size()});
        routing.push_back(e == 0 ? routing[it.tag]
                                 : node.EntryKey(e).ToString());
      }
      return Status::OK();
    };
    // kValidatedPath: placement is a control-plane listing that must be
    // authoritative no matter which BTree instance runs it. Dirty reads
    // would happily serve a stale cached parent whose child pointer a
    // migration (run through a DIFFERENT instance, e.g. the catalog's
    // service tree) has since swung in place — the §4.2 settle checks all
    // pass on such a node, so the walk would report pre-migration homes
    // forever. Joining the walk into the read set makes the commit inside
    // Transact validate every internal node; a stale parent aborts, the
    // retry refetches fresh state, and the listing converges to the truth.
    return VisitFrontier(txn, tip->sid, TraverseMode::kValidatedPath,
                         {FrontierItem{tip->root, -1, 0}}, cb, &visited);
  });
}

Status BTree::MigrateNodeInTxn(DynamicTxn& txn, const NodePlacement& expected,
                               sinfonia::MemnodeId dest, bool* migrated) {
  *migrated = false;
  if (dest >= allocator_->n_memnodes()) {
    return Status::InvalidArgument("destination memnode not registered");
  }
  if (expected.addr.memnode == dest) return Status::OK();  // already home

  auto tip = ReadTipInTxn(txn, Tip::Linear(), /*for_write=*/true);
  if (!tip.ok()) return tip.status();
  auto path = Traverse(txn, tip->sid, tip->root, expected.routing_key,
                       TraverseMode::kUpToDate);
  if (!path.ok()) return path.status();

  // Re-locate the node by the address its parent holds. Not found — or
  // found via a discretionary hop, which linear tips never take — means the
  // placement snapshot went stale (split, CoW, earlier migration): nothing
  // to do, which is success for a rebalancing pass.
  size_t i = path->size();
  for (size_t k = 0; k < path->size(); k++) {
    if ((*path)[k].link_addr == expected.addr) {
      i = k;
      break;
    }
  }
  if (i == path->size() || (*path)[i].addr != expected.addr) {
    return Status::OK();
  }
  PathEntry& entry = (*path)[i];

  // Validated read of the source content: internal nodes were dirty-read
  // during traversal, and the copy must base on bytes the commit validates
  // (for the leaf this is a read-set hit).
  const bool internal = entry.view.height() > 0;
  auto raw = txn.Read(NodeRef(entry.addr, internal), ReadMode::kValidated);
  if (!raw.ok()) return raw.status();
  auto decoded = Node::Decode(raw->data);
  if (!decoded.ok()) {
    return AbortDescent(txn, entry.addr, {}, "source no longer decodable");
  }
  Node source = std::move(decoded).value();
  if (source.height != entry.view.height() ||
      source.height != expected.height) {
    return AbortDescent(txn, entry.addr, {}, "source changed under migration");
  }

  // The relocated copy belongs to the current tip: later tip writes mutate
  // it in place, snapshots below tip->sid keep the source.
  Node copy = source;
  copy.created_sid = tip->sid;
  copy.descendants.clear();
  auto copy_addr = WriteFreshNodeAt(txn, copy, dest);
  if (!copy_addr.ok()) return copy_addr.status();
  if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->nodes_copied++;
  MINUET_RETURN_NOT_OK(
      RecordCopy(txn, entry.addr, std::move(source), tip->sid, *copy_addr));

  if (i == 0) {
    // The root moved: re-publish its location (replicated tip object).
    MINUET_RETURN_NOT_OK(PublishRoot(txn, *tip, *copy_addr));
  } else {
    // Swing the parent's child pointer. The parent was dirty-read; re-read
    // it validated, verify it still points at the source, splice the
    // validated content into the path, and let ApplyLeafMutation run the
    // CoW-aware write-back (copying/propagating up to the root as needed).
    PathEntry& parent = (*path)[i - 1];
    auto praw = txn.Read(NodeRef(parent.addr, /*internal=*/true),
                         ReadMode::kValidated);
    if (!praw.ok()) return praw.status();
    auto pdecoded = Node::Decode(praw->data);
    if (!pdecoded.ok()) {
      return AbortDescent(txn, parent.addr, {}, "parent no longer decodable");
    }
    Node pristine = std::move(pdecoded).value();
    size_t e = pristine.entries.size();
    for (size_t k = 0; k < pristine.entries.size(); k++) {
      if (pristine.entries[k].child == expected.addr) {
        e = k;
        break;
      }
    }
    if (pristine.height != parent.view.height() ||
        e == pristine.entries.size()) {
      return AbortDescent(txn, parent.addr, {},
                          "parent changed during migration");
    }
    Node modified = pristine;
    modified.entries[e].child = *copy_addr;
    // RecordCopy must base on validated bytes: re-point the path entry at
    // the validated image (the read set keeps it alive for the txn).
    parent.raw = std::move(praw).value();
    MINUET_RETURN_NOT_OK(parent.view.Init(parent.raw.data));
    path->resize(i);  // the parent is now the path's last entry
    MINUET_RETURN_NOT_OK(
        ApplyLeafMutation(txn, *tip, *path, std::move(modified)));
  }

  *migrated = true;
  return Status::OK();
}

Status BTree::MigrateNode(const NodePlacement& expected,
                          sinfonia::MemnodeId dest, bool* migrated) {
  Status st = Transact([&](DynamicTxn& txn) -> Status {
    return MigrateNodeInTxn(txn, expected, dest, migrated);
  });
  // Count COMMITTED relocations only (the in-txn flag alone may belong to
  // an attempt whose commit failed validation).
  if (st.ok() && *migrated) {
    stats_->migrations.Increment();
  }
  return st;
}

}  // namespace minuet::btree
