// Public facade: assembles a Minuet cluster (fabric, memnodes, Sinfonia
// coordinator, allocator, per-proxy caches) and hands out Proxy handles
// through which applications obtain Views — the uniform interface over the
// tree's access modes (tip / snapshot / branch) — plus batched writes and
// streaming cursors.
//
// Quickstart:
//   minuet::ClusterOptions opts;
//   opts.machines = 4;
//   minuet::Cluster cluster(opts);
//   auto tree = cluster.CreateTree();              // Result<TreeHandle>
//   minuet::Proxy& p = cluster.proxy(0);
//
//   auto tip = p.Tip(*tree);                       // strictly serializable
//   tip.Put("key", "value");
//   std::string v;
//   tip.Get("key", &v);
//
//   minuet::WriteBatch batch;                      // multi-key atomic commit
//   batch.Put(*tree, "a", "1");
//   batch.Put(*tree, "b", "2");
//   p.Apply(batch);
//
//   auto snap = p.Snapshot(*tree);                 // pinned consistent view
//   for (auto cur = snap->NewCursor("a"); cur->Valid(); cur->Next())
//     Use(cur->key(), cur->value());
//
// Both tiers are elastic at runtime: memnodes via AddMemnode/RemoveMemnode
// (storage), proxies via AddProxy/RemoveProxy (the client-facing tier).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "btree/tree.h"
#include "minuet/tree_catalog.h"
#include "minuet/tree_handle.h"
#include "minuet/view.h"
#include "minuet/write_batch.h"
#include "mvcc/gc.h"
#include "mvcc/snapshot_service.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sinfonia/coordinator.h"
#include "store/checkpointed_store.h"
#include "version/version_manager.h"
#include "wal/wal.h"

namespace minuet {

namespace rebalance {
class Rebalancer;
}  // namespace rebalance

struct ClusterOptions {
  // "Machines": each contributes one memnode and (by default) one proxy,
  // as in the paper's experimental deployment (Fig. 9).
  uint32_t machines = 4;
  // Upper bound the memnode count may grow to at runtime via
  // Cluster::AddMemnode (elastic scale-out). The address-space layout is
  // computed against this capacity so growth never relocates existing
  // objects. 0 = max(2 x machines, 8).
  uint32_t max_machines = 0;
  // Proxies at construction; 0 = one per machine. The proxy tier grows and
  // shrinks independently of the memnode tier at runtime via
  // Cluster::AddProxy / RemoveProxy.
  uint32_t proxies = 0;
  uint32_t node_size = 4096;
  // Paper §3 dirty traversals. OFF runs the Aguilera baseline of the
  // paper's Fig. 10 comparison: validated paths plus the replicated
  // internal-node seqnum table.
  bool dirty_traversals = true;
  bool replication = true;  // Sinfonia primary-backup
  uint32_t beta = 2;
  uint32_t alloc_batch = 32;
  size_t cache_capacity = 1 << 16;
  double snapshot_min_interval_seconds = 0;  // the paper's k
  uint64_t retain_snapshots = 16;
  // Bind every subsystem's counters into the cluster metrics registry
  // (Cluster::DumpStats). The counters themselves always count — binding
  // only affects whether DumpStats sees them — so disabling this is a
  // measurement knob, not a fast path (tests/metrics_test.cc times the
  // warm-Get path under both settings). An unbound cluster dumps only the
  // durability label.
  bool metrics = true;
  // Slow-op log: a view-layer operation slower than this (wall ns) prints
  // its full minitransaction trace to stderr. 0 = disabled.
  uint64_t slow_op_threshold_ns = 0;
  // --- Durability (docs/ARCHITECTURE.md "Durability") ----------------------
  // kNone:  RAM-only memnodes, the paper's deployment. kAsync: committed
  // write sets land in a per-memnode WAL without commit-path fsyncs (a
  // crash falls back to the backup ring). kSync: group-commit fsync before
  // the commit is acknowledged (a crashed node recovers from its own log).
  wal::DurabilityMode durability = wal::DurabilityMode::kNone;
  // Directory for per-memnode durable state (<data_dir>/mn<i>/...). Empty =
  // a fresh temp directory, removed when the Cluster is destroyed; a
  // caller-provided directory is kept (and reused on the next cold start).
  std::string data_dir;
  // Periodic checkpoint daemon: every interval, checkpoint every live
  // memnode (image dump + superblock flip + WAL truncation). 0 = manual
  // checkpoints only (Cluster::CheckpointMemnode / CheckpointAll).
  uint32_t checkpoint_interval_ms = 0;
};

// Client-op kinds instrumented by the view layer: per-op latency
// histograms in the metrics registry, plus the slow-op trace hook.
enum class ClientOp : uint8_t {
  kGet = 0,
  kPut,
  kInsert,
  kRemove,
  kMultiGet,
  kScan,
};
inline constexpr size_t kNumClientOps = 6;
const char* ClientOpName(ClientOp op);

class Cluster;

// A proxy: executes B-tree operations on behalf of clients, with its own
// incoherent cache of internal nodes (paper §2.3). All access goes through
// Views obtained here; single-op conveniences below delegate to a TipView.
//
// Lifecycle (docs/ARCHITECTURE.md "Proxy lifecycle"): a proxy holds no
// per-tree state of its own — it lazily materializes a view stack per tree
// through the cluster's TreeCatalog, so a proxy added at runtime
// (Cluster::AddProxy) immediately serves every existing tree. A removed
// proxy (Cluster::RemoveProxy) stays alive as an object (no use-after-free
// for stragglers) but every handle-validated operation through it fails
// with InvalidArgument, permanently.
class Proxy {
 public:
  // --- Views (the canonical client surface) --------------------------------
  // Strictly serializable operations against the live tip. Construction is
  // unchecked (zero-cost); the view's operations validate the handle and
  // return InvalidArgument for handles this cluster did not mint.
  TipView Tip(const TreeHandle& tree) { return TipView(this, tree); }
  // A fresh (or safely borrowed, Fig. 7) strictly serializable snapshot.
  // The returned view pins its snapshot against garbage collection.
  Result<SnapshotView> Snapshot(const TreeHandle& tree);
  // Snapshot under the cluster's staleness policy (§6.3, the paper's k):
  // may reuse a recent snapshot instead of creating one.
  Result<SnapshotView> RecentSnapshot(const TreeHandle& tree);
  // Wrap an already-acquired SnapshotRef (no lease is taken; cursors with
  // refresh_lease can still re-acquire through the tree's service).
  Result<SnapshotView> ViewAt(const TreeHandle& tree,
                              const btree::SnapshotRef& snap);
  // One version-tree vertex of a branching tree; writable while it has no
  // child branch.
  Result<BranchView> Branch(const TreeHandle& tree, uint64_t sid);

  // Fork a new writable branch off snapshot `from_sid` (freezes it).
  Result<uint64_t> CreateBranch(const TreeHandle& tree, uint64_t from_sid);
  Result<version::BranchInfo> BranchInfo(const TreeHandle& tree,
                                         uint64_t sid);

  // --- Single-op conveniences (sugar over Tip / RecentSnapshot) ------------
  // Handle validation happens inside the TipView operations.
  Status Get(const TreeHandle& tree, const std::string& key,
             std::string* value) {
    return Tip(tree).Get(key, value);
  }
  Status Put(const TreeHandle& tree, const std::string& key,
             const std::string& value) {
    return Tip(tree).Put(key, value);
  }
  Status Insert(const TreeHandle& tree, const std::string& key,
                const std::string& value) {
    return Tip(tree).Insert(key, value);
  }
  Status Remove(const TreeHandle& tree, const std::string& key) {
    return Tip(tree).Remove(key);
  }
  // Scan under the staleness policy. With `copts.refresh_lease` the scan
  // runs on an UNPINNED policy snapshot and transparently re-leases the
  // newest one when the GC horizon overtakes it mid-scan (§4.4) — GC is
  // never blocked by the scan. Without it, the snapshot is pinned for the
  // scan's duration instead (the horizon waits). Each cursor fetch is one
  // batch of the range walk (Cursor::Options).
  Status Scan(const TreeHandle& tree, const std::string& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out,
              Cursor::Options copts = {});

  // --- Batched writes ------------------------------------------------------
  // Commit every op in `batch` in ONE dynamic transaction: all-or-nothing,
  // even across trees and across memnode crashes.
  Status Apply(const WriteBatch& batch);

  // --- Multi-key / multi-tree transactions ---------------------------------
  // Runs `body` in a dynamic transaction with automatic retry; use the
  // tree handles' *InTxn operations inside.
  template <typename Body>
  Status Transaction(Body&& body) {
    if (detached_.load(std::memory_order_acquire)) {
      return Status::InvalidArgument("proxy was removed from its cluster");
    }
    return txn::RunTransaction(coord_, cache_.get(), {}, txn::kMaxOpAttempts,
                               std::forward<Body>(body));
  }

  // Direct tree handle (advanced use, *InTxn ops); nullptr when the
  // handle was not minted by this proxy's cluster or the proxy was
  // removed.
  btree::BTree* tree(const TreeHandle& t);
  // Bounds-checked slot lookup: nullptr when no tree occupies `slot`. The
  // returned instance stays valid for the cluster's lifetime even if this
  // proxy is later removed (raw-pointer paths degrade gracefully; the
  // handle-validated API above rejects removed proxies outright).
  btree::BTree* tree(uint32_t slot);
  txn::ObjectCache* cache() { return cache_.get(); }

  uint32_t id() const { return id_; }
  Cluster* cluster() const { return cluster_; }
  // The identity under which this proxy's snapshot leases are accounted
  // (mvcc::SnapshotService per-owner pinning; RemoveProxy bulk-releases
  // it).
  uint64_t lease_owner() const { return id_; }
  // True once Cluster::RemoveProxy(id()) detached this proxy. Permanent.
  bool detached() const {
    return detached_.load(std::memory_order_acquire);
  }

 private:
  friend class Cluster;
  friend class View;
  friend class TipView;
  friend class SnapshotView;
  friend class BranchView;
  Proxy(Cluster* cluster, uint32_t id);
  version::VersionManager* vm(uint32_t tree);
  Result<SnapshotView> AcquirePinnedView(const TreeHandle& tree, bool strict);
  Status CheckHandle(const TreeHandle& tree) const;
  // Lazily materialize this proxy's view stack for `slot` (and every slot
  // below it) through the cluster's TreeCatalog.
  Status EnsureAttached(uint32_t slot);
  mvcc::SnapshotService* snapshot_service(uint32_t tree);

  Cluster* cluster_;
  uint32_t id_;
  sinfonia::Coordinator* coord_;
  std::unique_ptr<txn::ObjectCache> cache_;
  // Lazily-attached per-tree view stacks, indexed by slot. Fixed capacity
  // (the catalog's slot space) so a concurrent attach never relocates an
  // entry another thread is reading; trees_[s] is immutable once
  // `s < attached_` is published.
  const uint32_t tree_capacity_;
  std::unique_ptr<TreeCatalog::ProxyTree[]> trees_;
  std::atomic<uint32_t> attached_{0};
  std::mutex attach_mu_;  // serializes attachment; leaf lock, no fabric I/O
  std::atomic<bool> detached_{false};
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  // Create a new B-tree. `branching` trees use the version catalog
  // (BranchView writes); linear trees use the replicated tip and the
  // snapshot service. Registers ONCE in the TreeCatalog — every proxy
  // (present and future) attaches its own view stack lazily.
  Result<TreeHandle> CreateTree(bool branching = false);
  // Re-derive the handle of an existing tree from its slot.
  Result<TreeHandle> OpenTree(uint32_t slot) const;

  // Bounds-checked: aborts with a diagnostic on an unregistered id (an
  // out-of-range index was UB before the proxy tier became elastic; now it
  // is a hard programming error). A REMOVED proxy's id still resolves —
  // operations through it fail with InvalidArgument instead of crashing
  // straggler threads.
  Proxy& proxy(uint32_t i);
  // Result-style sibling for callers that want to handle the miss.
  Result<Proxy*> FindProxy(uint32_t i);
  // Registered proxy ids ([0, n_proxies()) — removed ids included, they
  // are never reused); n_live_proxies() excludes the removed ones.
  uint32_t n_proxies() const;
  uint32_t n_live_proxies() const;
  // Registered memnode ids ([0, n_memnodes()) — retired ids included, they
  // are never reused); n_live_memnodes() excludes the retired ones.
  uint32_t n_memnodes() const { return coord_->n_memnodes(); }
  uint32_t n_live_memnodes() const { return coord_->n_live(); }
  uint32_t n_trees() const { return catalog_->n_trees(); }

  // --- Elastic proxy tier ----------------------------------------------------
  // Join one more proxy to a serving cluster and return its id. The new
  // proxy serves Get/Put/Scan on every pre-existing tree immediately (the
  // TreeCatalog materializes its per-tree view stacks on first touch) and
  // starts with a cold cache that warms on demand. Safe to call while
  // traffic runs on other proxies.
  Result<uint32_t> AddProxy();

  // Detach proxy `id` from a serving cluster, the inverse of AddProxy,
  // mirroring the memnode retire discipline:
  //   - every snapshot lease the proxy holds (pinned SnapshotViews,
  //     refresh-lease cursors) is bulk-released, so the GC horizon
  //     advances past them — a removed proxy can never hold garbage
  //     collection hostage (the lease-release invariant);
  //   - its object cache is drained and disabled (no payload retained,
  //     no refill);
  //   - the id is rejected forever: ids are never reused, n_proxies()
  //     keeps counting it, n_live_proxies() does not. The Proxy object
  //     itself stays alive, so stragglers holding the reference get
  //     InvalidArgument, not a use-after-free.
  // The last live proxy cannot be removed (InvalidArgument).
  Status RemoveProxy(uint32_t id);

  // --- Elastic scale-out -----------------------------------------------------
  // Bring one more memnode online while the cluster serves traffic: the
  // node registers with the fabric and coordinator (which seeds its
  // replicated region and rewires the backup ring between in-flight
  // minitransactions — the membership change happens under the
  // coordinator's exclusive membership lock, never under a running
  // minitransaction), and the allocator opens it for load-aware placement.
  // Returns the new memnode id. Existing data does NOT move by itself —
  // run the rebalancer to migrate slabs onto the new node. With durability
  // on, an error from the node's seed checkpoint is returned after the
  // node has joined. Not safe to call concurrently with itself,
  // RemoveMemnode, or Crash/RecoverMemnode.
  Result<uint32_t> AddMemnode();

  // --- Elastic scale-in ------------------------------------------------------
  // Take memnode `id` out of a serving cluster: the symmetric inverse of
  // AddMemnode, executed live (reads, writes and pinned snapshots keep
  // working throughout). Four phases, matching the node lifecycle
  // (docs/ARCHITECTURE.md):
  //   1. DRAIN-ONLY — NodeAllocator::BeginDrain excludes the node from
  //      placement and returns reserved slabs, so occupancy only falls.
  //   2. MIGRATE    — the cluster's rebalancer runs RunUntilBalanced (at
  //      most 64 rounds): the balance pass treats the draining node as a
  //      donor that must empty, so it moves every tip-reachable slab of
  //      every linear tree onto the remaining active nodes and leaves
  //      those inside the balance band.
  //   3. RECLAIM    — the migrated sources still serve snapshots below the
  //      migration sid; up to 64 rounds each release every linear tree's
  //      unpinned retained snapshots (SnapshotService::ReleaseUnpinned,
  //      so the horizon reaches the tip even on an idle cluster) and run
  //      one GC pass per linear tree, until the node's authoritative
  //      occupancy reaches ZERO. The horizon never crosses a pinned
  //      snapshot, so a held SnapshotView makes this phase return Busy —
  //      the node stays drain-only (still serving those snapshot reads!)
  //      and RemoveMemnode can be called again after the pin is released.
  //      THE GC-HORIZON RULE: a memnode is retired only once nothing
  //      queryable can reference it.
  //   4. RETIRE     — under the coordinator's exclusive membership lock:
  //      allocator metadata zeroed, backup ring rewired around the gap,
  //      replicated-write expansion shrunk, fabric id rejected forever.
  //      The id is never reused; n_memnodes() keeps counting it,
  //      n_live_memnodes() does not.
  // A crash mid-drain fails the call cleanly (Unavailable); recover the
  // node and call RemoveMemnode again — BeginDrain is idempotent and the
  // drain resumes where it left off. Branching version trees are not
  // rebalanced (matching the GC's scope): their slabs on `id` keep the
  // reclaim phase at Busy. Not safe to call concurrently with itself,
  // AddMemnode, or Crash/RecoverMemnode.
  Status RemoveMemnode(uint32_t id);

  // The cluster's rebalancer (created on first use; see
  // rebalance::Rebalancer for RunOnce/Start/Stop). Tests and benchmarks
  // that need custom rebalance::Options can construct their own
  // Rebalancer(cluster) instead.
  rebalance::Rebalancer* rebalancer();

  // nullptr when the handle was not minted by this cluster.
  mvcc::SnapshotService* snapshot_service(const TreeHandle& tree) {
    return catalog_->Owns(tree) ? catalog_->snapshot_service(tree.slot())
                                : nullptr;
  }
  mvcc::SnapshotService* snapshot_service(uint32_t tree) {
    return catalog_->snapshot_service(tree);
  }
  // The catalog-owned tree instance the snapshot service, GC and
  // rebalancer run on (proxy-independent: it survives any RemoveProxy).
  // nullptr when `slot` is not registered.
  btree::BTree* service_tree(uint32_t slot) {
    return catalog_->service_tree(slot);
  }
  // Run one GC pass over `tree` using the snapshot service's horizon
  // (which never passes a pinned SnapshotView).
  Result<mvcc::GarbageCollector::Report> CollectGarbage(
      const TreeHandle& tree) {
    if (!catalog_->Owns(tree)) {
      return Status::InvalidArgument(
          "tree handle was not minted by this cluster");
    }
    return CollectGarbage(tree.slot());
  }
  Result<mvcc::GarbageCollector::Report> CollectGarbage(uint32_t tree);

  // --- Durability ------------------------------------------------------------
  // Fuzzy checkpoint of one memnode (see Coordinator::CheckpointMemnode):
  // capture WAL position, dump the byte space through minitransaction
  // reads, flip the superblock root, truncate covered WAL segments.
  // InvalidArgument when durability is off.
  Status CheckpointMemnode(uint32_t id);
  // Checkpoint every live memnode; on success advances the GC reclaim
  // floor (slabs freed after the last complete checkpoint pass are not
  // reused until the next one — recovery must never chase a reference into
  // a reclaimed slab). Returns the first error, after attempting all.
  Status CheckpointAll();
  // The durable state bundle behind memnode `id`; nullptr when durability
  // is off. Test access (WAL metrics, DiscardDurableState).
  store::CheckpointedStore* durable_store(uint32_t id) {
    return coord_->durable_store(id);
  }

  // --- Fault injection -------------------------------------------------------
  void CrashMemnode(uint32_t id);
  void RecoverMemnode(uint32_t id);
  // Full-cluster power failure: every memnode loses its primary space, its
  // hosted backup images, and its unsynced WAL bytes — recovery can only
  // come from checkpoints + WAL (RecoverAllMemnodes).
  void CrashAllMemnodes();
  // Recover every crashed memnode (ascending id). After CrashAllMemnodes
  // with durability=sync, every node takes the local-log path and the
  // backup ring re-forms from the recovered images.
  void RecoverAllMemnodes();
  // Drop every proxy's object cache (tests/benchmarks: forces the cold
  // descent path, as after a mass invalidation). Correctness-neutral — the
  // caches are incoherent by design and refill on demand.
  void DropProxyCaches();

  // --- Observability ---------------------------------------------------------
  // The cluster-wide metrics registry. Every subsystem's counters are bound
  // here at construction / membership-change time (unless
  // options.metrics=false); components keep counting either way — the
  // registry only reads.
  obs::MetricsRegistry& metrics_registry() { return registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  // The slow-op log the view layer consults per operation; arm it at
  // runtime with slow_op_log().set_threshold_ns(ns) or via
  // ClusterOptions::slow_op_threshold_ns.
  obs::SlowOpLog& slow_op_log() { return slow_op_log_; }
  // Per-op latency histogram (view-layer wall time, ns).
  obs::HistogramMetric& op_histogram(ClientOp op) {
    return op_latency_[static_cast<size_t>(op)];
  }
  // Human-readable stats report: one "durability=<mode>" line, then the
  // registry's text rendering. Every number — membership and liveness
  // included (memnode<i>.up/.retired, proxy<i>.detached,
  // cluster.live_memnodes) — is a registry metric.
  std::string DumpStats() const;
  // The same data as stable JSON:
  //   {"cluster": {"durability": "<mode>"},
  //    "metrics": {"subsystem": {"name": value, ...}, ...}}
  // tools/statsdump pretty-prints, diffs and checks this shape.
  std::string DumpStatsJson() const;

  // --- Plumbing (benchmarks, tests) -----------------------------------------
  net::Fabric* fabric() { return fabric_.get(); }
  sinfonia::Coordinator* coordinator() { return coord_.get(); }
  alloc::NodeAllocator* allocator() { return allocator_.get(); }
  const TreeCatalog& catalog() const { return *catalog_; }
  const ClusterOptions& options() const { return options_; }
  const alloc::Layout& layout() const { return layout_; }
  // Override the snapshot-policy clock (benchmarks inject virtual time).
  void set_snapshot_clock(std::function<double()> clock) {
    snapshot_clock_ = std::move(clock);
  }

 private:
  friend class Proxy;

  bool OwnsHandle(const TreeHandle& tree) const {
    return catalog_->Owns(tree);
  }

  // Bind one subsystem's counters/gauges into registry_. Implemented in
  // stats_dump.cc; no-ops when options_.metrics is false.
  void BindCoreMetrics();
  void BindMemnodeMetrics(uint32_t id);
  void BindProxyMetrics(const Proxy& proxy);
  void BindTreeMetrics(uint32_t slot);
  void BindRebalancerMetrics();

  // Declared FIRST so they are destroyed LAST: registry entries point into
  // the components below, and links must outlive nothing they reference
  // (the registry's destructor never dereferences pointees, but ordering
  // keeps Snapshot() safe for the cluster's whole lifetime).
  obs::MetricsRegistry registry_;
  obs::SlowOpLog slow_op_log_;
  obs::HistogramMetric op_latency_[kNumClientOps];

  ClusterOptions options_;
  alloc::Layout layout_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<sinfonia::Memnode>> memnodes_;
  // Per-memnode durable state (<data_dir>/mn<i>), indexed by memnode id;
  // empty when durability is off. Destroyed after coord_ (declared before
  // it) since the coordinator holds raw pointers.
  std::vector<std::unique_ptr<store::CheckpointedStore>> stores_;
  std::string data_dir_;
  bool owns_data_dir_ = false;  // temp dir: removed in the destructor
  std::unique_ptr<sinfonia::Coordinator> coord_;
  std::unique_ptr<alloc::NodeAllocator> allocator_;
  btree::LinearOracle linear_oracle_;
  std::function<double()> snapshot_clock_;
  // Owns all per-tree state (slots, branching flags, snapshot services,
  // GCs, the options proxies materialize their view stacks from).
  std::unique_ptr<TreeCatalog> catalog_;
  // Proxy registry guard (lock inventory: docs/ARCHITECTURE.md). Shared
  // for reads (proxy(), n_proxies(), DropProxyCaches), exclusive for the
  // rare membership mutations (AddProxy, RemoveProxy's detach step).
  // Registry lock only — never held across fabric I/O, and the lease
  // bulk-release / cache drain of RemoveProxy run after it is dropped.
  mutable std::shared_mutex proxies_mu_;
  std::vector<std::unique_ptr<Proxy>> proxies_;  // append-only; never shrinks
  std::mutex rebalancer_mu_;
  std::unique_ptr<rebalance::Rebalancer> rebalancer_;

  // Per-tree GC reclaim floor (indexed by slot, sized to the catalog's
  // capacity): the snapshot horizon as of the last COMPLETE checkpoint
  // pass. With durability on, CollectGarbage clamps its horizon here so a
  // recovered image never references a reclaimed (reused) slab. 0 until
  // the first full pass — GC reclaims nothing before durable state exists.
  std::unique_ptr<std::atomic<uint64_t>[]> ckpt_sid_floor_;

  // Checkpoint daemon (options_.checkpoint_interval_ms > 0): wakes on a
  // condition variable, drops the lock, runs CheckpointAll. Joined in the
  // destructor.
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_stop_ = false;
  std::thread ckpt_thread_;

  // Open one memnode's durable store and hand it to the coordinator.
  Status OpenDurableStore(uint32_t id);
};

}  // namespace minuet
