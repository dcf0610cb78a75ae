// The cluster's introspection surface: metric binding plus DumpStats.
//
// Binding happens once per component lifetime event (construction,
// AddProxy, AddMemnode, CreateTree, first rebalancer() use) and only LINKS
// component-owned counters / read callbacks into the registry — the
// components count unconditionally whether or not anything is bound, so
// none of this touches a hot path. The registry is the only stats source:
// structural facts (membership, liveness, tree kind, WAL positions) are
// gauges too, and both renderings — text and JSON — are the registry under
// one durability label.
//
// Lock order: Snapshot() runs every gauge callback under the registry
// mutex, and AddProxy links while holding proxies_mu_ exclusive. A gauge
// therefore reads only atomics or immutable state and never takes
// proxies_mu_ (proxy counts come from the per-proxy "detached" gauges).
#include "minuet/cluster.h"

#include <string>

#include "btree/node.h"
#include "btree/node_view.h"
#include "rebalance/rebalancer.h"

namespace minuet {

const char* ClientOpName(ClientOp op) {
  switch (op) {
    case ClientOp::kGet:
      return "get";
    case ClientOp::kPut:
      return "put";
    case ClientOp::kInsert:
      return "insert";
    case ClientOp::kRemove:
      return "remove";
    case ClientOp::kMultiGet:
      return "multiget";
    case ClientOp::kScan:
      return "scan";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Binding

void Cluster::BindCoreMetrics() {
  sinfonia::Coordinator::Metrics& m = coord_->metrics();
  registry_.LinkCounter("coordinator", "executions", &m.executions);
  registry_.LinkCounter("coordinator", "one_phase", &m.one_phase);
  registry_.LinkCounter("coordinator", "two_phase", &m.two_phase);
  registry_.LinkCounter("coordinator", "committed", &m.committed);
  registry_.LinkCounter("coordinator", "compare_aborts", &m.compare_aborts);
  registry_.LinkCounter("coordinator", "busy_retries", &m.busy_retries);

  alloc::NodeAllocator::Metrics& a = allocator_->metrics();
  registry_.LinkCounter("alloc", "refills", &a.refills);
  registry_.LinkCounter("alloc", "recycled_slabs", &a.recycled_slabs);

  registry_.LinkCounter("txn", "attempts", &m.txn_attempts);
  registry_.LinkCounter("txn", "retries", &m.txn_retries);
  // Reason 0 is kNone (not an abort); every real taxonomy entry gets its
  // own counter under "txn.aborts.<reason>".
  for (unsigned r = 1; r < kNumAbortReasons; r++) {
    registry_.LinkCounter(
        "txn",
        std::string("aborts.") + AbortReasonName(static_cast<AbortReason>(r)),
        &m.txn_aborts[r]);
  }

  net::Fabric* fabric = fabric_.get();
  registry_.LinkGauge("fabric", "total_messages", [fabric] {
    return static_cast<int64_t>(fabric->TotalMessages());
  });
  registry_.LinkGauge("fabric", "nodes", [fabric] {
    return static_cast<int64_t>(fabric->n_nodes());
  });
  sinfonia::Coordinator* coord = coord_.get();
  registry_.LinkGauge("cluster", "live_memnodes", [coord] {
    return static_cast<int64_t>(coord->n_live());
  });
  const TreeCatalog* catalog = catalog_.get();
  registry_.LinkGauge("cluster", "trees", [catalog] {
    return static_cast<int64_t>(catalog->n_trees());
  });

  // The decodes-vs-view-reads pair: warm read paths should move view_inits,
  // not node_decodes (a regression to full decodes shows up here first).
  // Process-global, so multi-cluster processes see combined totals.
  registry_.LinkGauge("btree", "node_decodes", [] {
    return static_cast<int64_t>(btree::Node::DecodeCalls());
  });
  registry_.LinkGauge("btree", "view_inits", [] {
    return static_cast<int64_t>(btree::NodeView::InitCalls());
  });

  for (size_t i = 0; i < kNumClientOps; i++) {
    registry_.LinkHistogram(
        "view",
        std::string(ClientOpName(static_cast<ClientOp>(i))) + "_ns",
        &op_latency_[i]);
  }
  registry_.LinkGauge("view", "slow_ops_emitted", [this] {
    return static_cast<int64_t>(slow_op_log_.emitted());
  });
}

void Cluster::BindMemnodeMetrics(uint32_t id) {
  const std::string sub = "memnode" + std::to_string(id);
  net::Fabric* fabric = fabric_.get();
  registry_.LinkGauge(sub, "messages", [fabric, id] {
    return static_cast<int64_t>(fabric->NodeMessages(id));
  });
  registry_.LinkGauge(sub, "up", [fabric, id] {
    return static_cast<int64_t>(fabric->IsUp(id));
  });
  registry_.LinkGauge(sub, "retired", [fabric, id] {
    return static_cast<int64_t>(fabric->IsRetired(id));
  });
  memnodes_[id]->lock_table().BindMetrics(&registry_, sub + ".locks");
  if (store::CheckpointedStore* ds = coord_->durable_store(id)) {
    wal::Wal& wal = ds->wal();
    wal::Wal::Metrics& w = wal.metrics();
    registry_.LinkCounter(sub + ".wal", "appends", &w.appends);
    registry_.LinkCounter(sub + ".wal", "append_bytes", &w.append_bytes);
    registry_.LinkCounter(sub + ".wal", "fsyncs", &w.fsyncs);
    registry_.LinkCounter(sub + ".wal", "truncations", &w.truncations);
    registry_.LinkGauge(sub + ".wal", "current_lsn", [&wal] {
      return static_cast<int64_t>(wal.CurrentLsn());
    });
    registry_.LinkGauge(sub + ".wal", "synced_lsn", [&wal] {
      return static_cast<int64_t>(wal.SyncedLsn());
    });
    store::CheckpointedStore::Metrics& s = ds->metrics();
    registry_.LinkCounter(sub + ".store", "checkpoints", &s.checkpoints);
    registry_.LinkCounter(sub + ".store", "replayed", &s.replayed);
    registry_.LinkCounter(sub + ".store", "recoveries_local",
                          &s.recoveries_local);
    registry_.LinkCounter(sub + ".store", "recoveries_reseed",
                          &s.recoveries_reseed);
    registry_.LinkGauge(sub + ".store", "checkpoint_lsn", [ds] {
      return static_cast<int64_t>(ds->LastCheckpointLsn());
    });
  }
}

void Cluster::BindProxyMetrics(const Proxy& proxy) {
  const std::string psub = "proxy" + std::to_string(proxy.id());
  const Proxy* p = &proxy;
  registry_.LinkGauge(psub, "detached", [p] {
    return static_cast<int64_t>(p->detached());
  });
  const std::string sub = psub + ".cache";
  txn::ObjectCache* cache = proxy.cache_.get();
  registry_.LinkGauge(sub, "hits", [cache] {
    return static_cast<int64_t>(cache->hits());
  });
  registry_.LinkGauge(sub, "misses", [cache] {
    return static_cast<int64_t>(cache->misses());
  });
  registry_.LinkGauge(sub, "evictions", [cache] {
    return static_cast<int64_t>(cache->evictions());
  });
  registry_.LinkGauge(sub, "size", [cache] {
    return static_cast<int64_t>(cache->size());
  });
}

void Cluster::BindTreeMetrics(uint32_t slot) {
  const std::string sub = "tree" + std::to_string(slot);
  // The tree kind is fixed at CreateTree: read once, rendered as a constant.
  auto handle = catalog_->Handle(slot);
  const int64_t branching = handle.ok() && handle->branching();
  registry_.LinkGauge(sub, "branching", [branching] { return branching; });
  if (const btree::BTree::Stats* stats = catalog_->tree_stats(slot)) {
    stats->BindMetrics(&registry_, sub);
  }
  if (mvcc::SnapshotService* snaps = catalog_->snapshot_service(slot)) {
    const std::string ssub = sub + ".snapshots";
    registry_.LinkGauge(ssub, "created", [snaps] {
      return static_cast<int64_t>(snaps->snapshots_created());
    });
    registry_.LinkGauge(ssub, "borrowed", [snaps] {
      return static_cast<int64_t>(snaps->snapshots_borrowed());
    });
    registry_.LinkGauge(ssub, "stale_reuses", [snaps] {
      return static_cast<int64_t>(snaps->stale_reuses());
    });
    registry_.LinkGauge(ssub, "pinned", [snaps] {
      return static_cast<int64_t>(snaps->pinned_count());
    });
    registry_.LinkGauge(ssub, "horizon", [snaps] {
      return static_cast<int64_t>(snaps->LowestRetained());
    });
    // How far GC eligibility trails the newest snapshot — a pinned lease
    // or an idle snapshot cadence shows up as growing lag.
    registry_.LinkGauge(ssub, "horizon_lag", [snaps] {
      const uint64_t latest = snaps->latest().sid;
      const uint64_t horizon = snaps->LowestRetained();
      return latest > horizon ? static_cast<int64_t>(latest - horizon) : 0;
    });
  }
  if (mvcc::GarbageCollector* gc = catalog_->gc(slot)) {
    registry_.LinkGauge(sub + ".gc", "slabs_freed", [gc] {
      return static_cast<int64_t>(gc->total_freed());
    });
  }
}

void Cluster::BindRebalancerMetrics() {
  // Caller holds rebalancer_mu_ with rebalancer_ set.
  rebalance::Rebalancer* rb = rebalancer_.get();
  registry_.LinkGauge("rebalancer", "slabs_migrated", [rb] {
    return static_cast<int64_t>(rb->total_migrated());
  });
}

// ---------------------------------------------------------------------------
// Dumping

std::string Cluster::DumpStats() const {
  return std::string("durability=") +
         wal::DurabilityModeName(options_.durability) + "\n" +
         registry_.ToText();
}

std::string Cluster::DumpStatsJson() const {
  std::string out = "{\"cluster\":{\"durability\":";
  obs::AppendJsonString(&out, wal::DurabilityModeName(options_.durability));
  out += "},\"metrics\":";
  out += registry_.ToJson();
  out += '}';
  return out;
}

}  // namespace minuet
