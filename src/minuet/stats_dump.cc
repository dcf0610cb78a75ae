// The cluster's introspection surface: metric binding plus DumpStats.
//
// Binding happens once per component lifetime event (construction,
// AddProxy, AddMemnode, CreateTree, first rebalancer() use) and only LINKS
// component-owned counters / read callbacks into the registry — the
// components count unconditionally whether or not anything is bound, so
// none of this touches a hot path. Dumping walks the live components for
// the structural rollups (shape, per-member health) and the registry for
// the flat metric inventory; both renderings — text and JSON — are built
// from the same reads.
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
  memnodes_[id]->lock_table().BindMetrics(&registry_, sub + ".locks");
  if (store::CheckpointedStore* ds = coord_->durable_store(id)) {
    wal::Wal::Metrics& w = ds->wal().metrics();
    registry_.LinkCounter(sub + ".wal", "appends", &w.appends);
    registry_.LinkCounter(sub + ".wal", "append_bytes", &w.append_bytes);
    registry_.LinkCounter(sub + ".wal", "fsyncs", &w.fsyncs);
    registry_.LinkCounter(sub + ".wal", "truncations", &w.truncations);
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
  const std::string sub = "proxy" + std::to_string(proxy.id()) + ".cache";
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

namespace {

void AppendKv(std::string* out, const char* key, uint64_t v,
              const char* sep = " ") {
  *out += key;
  *out += '=';
  *out += std::to_string(v);
  *out += sep;
}

// JSON building blocks over the hand-built style obs::AppendJsonString
// anchors: callers are responsible for commas between fields.
void JsonField(std::string* out, const char* key, uint64_t v) {
  obs::AppendJsonString(out, key);
  *out += ':';
  *out += std::to_string(v);
}

void JsonField(std::string* out, const char* key, bool v) {
  obs::AppendJsonString(out, key);
  *out += ':';
  *out += v ? "true" : "false";
}

void JsonField(std::string* out, const char* key, const char* v) {
  obs::AppendJsonString(out, key);
  *out += ':';
  obs::AppendJsonString(out, v);
}

}  // namespace

std::string Cluster::DumpStats() const {
  std::string out;
  out += "=== cluster ===\n";
  out += "memnodes=" + std::to_string(n_memnodes()) + " (live " +
         std::to_string(n_live_memnodes()) + ")  proxies=" +
         std::to_string(n_proxies()) + " (live " +
         std::to_string(n_live_proxies()) + ")  trees=" +
         std::to_string(n_trees()) + "  fabric_messages=" +
         std::to_string(fabric_->TotalMessages()) + "  durability=" +
         wal::DurabilityModeName(options_.durability) + "\n";

  out += "=== memnodes ===\n";
  for (uint32_t i = 0; i < n_memnodes(); i++) {
    out += "memnode" + std::to_string(i) + ": ";
    if (coord_->retired(i)) {
      out += "retired\n";
      continue;
    }
    if (!fabric_->IsUp(i)) out += "DOWN ";
    AppendKv(&out, "messages", fabric_->NodeMessages(i));
    const auto locks = memnodes_[i]->lock_table().TotalStats();
    AppendKv(&out, "lock_acquires", locks.acquires);
    AppendKv(&out, "lock_contended", locks.contended);
    if (store::CheckpointedStore* ds = coord_->durable_store(i)) {
      AppendKv(&out, "lock_timeouts", locks.timeouts);
      AppendKv(&out, "wal_appends", ds->wal().metrics().appends.Value());
      AppendKv(&out, "wal_fsyncs", ds->wal().metrics().fsyncs.Value());
      AppendKv(&out, "checkpoint_lsn", ds->LastCheckpointLsn(), "\n");
    } else {
      AppendKv(&out, "lock_timeouts", locks.timeouts, "\n");
    }
  }

  out += "=== proxies ===\n";
  {
    std::shared_lock<std::shared_mutex> g(proxies_mu_);
    for (const auto& proxy : proxies_) {
      out += "proxy" + std::to_string(proxy->id()) + ": ";
      if (proxy->detached()) {
        out += "removed\n";
        continue;
      }
      const auto cache = proxy->cache_->TotalStats();
      AppendKv(&out, "cache_hits", cache.hits);
      AppendKv(&out, "cache_misses", cache.misses);
      AppendKv(&out, "cache_evictions", cache.evictions);
      AppendKv(&out, "cache_size", cache.size, "\n");
    }
  }

  out += "=== trees ===\n";
  for (uint32_t slot = 0; slot < n_trees(); slot++) {
    out += "tree" + std::to_string(slot) + ": ";
    auto handle = catalog_->Handle(slot);
    if (handle.ok() && handle->branching()) out += "branching ";
    if (const btree::BTree::Stats* stats = catalog_->tree_stats(slot)) {
      AppendKv(&out, "op_aborts", stats->op_aborts.Value());
      AppendKv(&out, "traversal_aborts", stats->traversal_aborts.Value());
      AppendKv(&out, "cow_copies", stats->cow_copies.Value());
      AppendKv(&out, "splits", stats->splits.Value());
      AppendKv(&out, "migrations", stats->migrations.Value());
    }
    if (mvcc::SnapshotService* snaps = catalog_->snapshot_service(slot)) {
      AppendKv(&out, "snapshots", snaps->snapshots_created());
      AppendKv(&out, "pinned", snaps->pinned_count());
      AppendKv(&out, "horizon", snaps->LowestRetained());
    }
    if (mvcc::GarbageCollector* gc = catalog_->gc(slot)) {
      AppendKv(&out, "gc_freed", gc->total_freed());
    }
    out += "\n";
  }

  out += "=== metrics ===\n";
  out += registry_.ToText();
  return out;
}

std::string Cluster::DumpStatsJson() const {
  std::string out = "{\"cluster\":{";
  JsonField(&out, "memnodes", static_cast<uint64_t>(n_memnodes()));
  out += ',';
  JsonField(&out, "live_memnodes", static_cast<uint64_t>(n_live_memnodes()));
  out += ',';
  JsonField(&out, "proxies", static_cast<uint64_t>(n_proxies()));
  out += ',';
  JsonField(&out, "live_proxies", static_cast<uint64_t>(n_live_proxies()));
  out += ',';
  JsonField(&out, "trees", static_cast<uint64_t>(n_trees()));
  out += ',';
  JsonField(&out, "fabric_messages", fabric_->TotalMessages());
  out += ',';
  JsonField(&out, "durability", wal::DurabilityModeName(options_.durability));
  out += "},\"memnodes\":[";

  for (uint32_t i = 0; i < n_memnodes(); i++) {
    if (i > 0) out += ',';
    out += '{';
    JsonField(&out, "id", static_cast<uint64_t>(i));
    out += ',';
    JsonField(&out, "retired", coord_->retired(i));
    out += ',';
    JsonField(&out, "up", fabric_->IsUp(i));
    out += ',';
    JsonField(&out, "messages", fabric_->NodeMessages(i));
    if (!coord_->retired(i)) {
      const auto locks = memnodes_[i]->lock_table().TotalStats();
      out += ",\"locks\":{";
      JsonField(&out, "acquires", locks.acquires);
      out += ',';
      JsonField(&out, "contended", locks.contended);
      out += ',';
      JsonField(&out, "timeouts", locks.timeouts);
      out += '}';
      if (store::CheckpointedStore* ds = coord_->durable_store(i)) {
        const wal::Wal::Metrics& w = ds->wal().metrics();
        const store::CheckpointedStore::Metrics& s = ds->metrics();
        out += ",\"wal\":{";
        JsonField(&out, "appends", w.appends.Value());
        out += ',';
        JsonField(&out, "append_bytes", w.append_bytes.Value());
        out += ',';
        JsonField(&out, "fsyncs", w.fsyncs.Value());
        out += ',';
        JsonField(&out, "truncations", w.truncations.Value());
        out += ',';
        JsonField(&out, "current_lsn", ds->wal().CurrentLsn());
        out += ',';
        JsonField(&out, "synced_lsn", ds->wal().SyncedLsn());
        out += ',';
        JsonField(&out, "checkpoint_lsn", ds->LastCheckpointLsn());
        out += ',';
        JsonField(&out, "checkpoints", s.checkpoints.Value());
        out += ',';
        JsonField(&out, "replayed", s.replayed.Value());
        out += ',';
        JsonField(&out, "recoveries_local", s.recoveries_local.Value());
        out += ',';
        JsonField(&out, "recoveries_reseed", s.recoveries_reseed.Value());
        out += '}';
      }
    }
    out += '}';
  }
  out += "],\"proxies\":[";

  {
    std::shared_lock<std::shared_mutex> g(proxies_mu_);
    for (size_t i = 0; i < proxies_.size(); i++) {
      const Proxy& proxy = *proxies_[i];
      if (i > 0) out += ',';
      out += '{';
      JsonField(&out, "id", static_cast<uint64_t>(proxy.id()));
      out += ',';
      JsonField(&out, "detached", proxy.detached());
      const auto cache = proxy.cache_->TotalStats();
      out += ",\"cache\":{";
      JsonField(&out, "hits", cache.hits);
      out += ',';
      JsonField(&out, "misses", cache.misses);
      out += ',';
      JsonField(&out, "evictions", cache.evictions);
      out += ',';
      JsonField(&out, "size", static_cast<uint64_t>(cache.size));
      out += "}}";
    }
  }
  out += "],\"trees\":[";

  for (uint32_t slot = 0; slot < n_trees(); slot++) {
    if (slot > 0) out += ',';
    out += '{';
    JsonField(&out, "slot", static_cast<uint64_t>(slot));
    auto handle = catalog_->Handle(slot);
    out += ',';
    JsonField(&out, "branching", handle.ok() && handle->branching());
    if (const btree::BTree::Stats* stats = catalog_->tree_stats(slot)) {
      out += ",\"stats\":{";
      JsonField(&out, "op_aborts", stats->op_aborts.Value());
      out += ',';
      JsonField(&out, "traversal_aborts", stats->traversal_aborts.Value());
      out += ',';
      JsonField(&out, "cow_copies", stats->cow_copies.Value());
      out += ',';
      JsonField(&out, "discretionary_copies",
                stats->discretionary_copies.Value());
      out += ',';
      JsonField(&out, "splits", stats->splits.Value());
      out += ',';
      JsonField(&out, "redirects", stats->redirects.Value());
      out += ',';
      JsonField(&out, "migrations", stats->migrations.Value());
      out += '}';
    }
    if (mvcc::SnapshotService* snaps = catalog_->snapshot_service(slot)) {
      out += ",\"snapshots\":{";
      JsonField(&out, "created", snaps->snapshots_created());
      out += ',';
      JsonField(&out, "borrowed", snaps->snapshots_borrowed());
      out += ',';
      JsonField(&out, "stale_reuses", snaps->stale_reuses());
      out += ',';
      JsonField(&out, "pinned", snaps->pinned_count());
      out += ',';
      JsonField(&out, "horizon", snaps->LowestRetained());
      out += '}';
    }
    if (mvcc::GarbageCollector* gc = catalog_->gc(slot)) {
      out += ',';
      JsonField(&out, "gc_freed", gc->total_freed());
    }
    out += '}';
  }
  out += "],\"metrics\":";
  out += registry_.ToJson();
  out += '}';
  return out;
}

}  // namespace minuet
