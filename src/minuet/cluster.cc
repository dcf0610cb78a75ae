#include "minuet/cluster.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "rebalance/rebalancer.h"

namespace minuet {

namespace {

// Fresh per-cluster temp data directory (durability with no caller-provided
// data_dir): unique across processes (pid) and across clusters in one
// process (counter).
std::string MakeTempDataDir() {
  // lint:allow(metrics): directory-name sequence number, not a stat counter
  static std::atomic<uint64_t> counter{0};
  const uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / ("minuet-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seq)))
      .string();
}

}  // namespace

// ---------------------------------------------------------------------------
// Cluster

Cluster::Cluster(ClusterOptions options) : options_(options) {
  layout_.node_size = options_.node_size;
  layout_.n_memnodes = options_.machines;
  // Elastic headroom: every derived layout offset is computed against this
  // capacity, so AddMemnode never relocates existing objects.
  const uint32_t capacity =
      options_.max_machines > 0
          ? std::max(options_.max_machines, options_.machines)
          : std::max(2 * options_.machines, 8u);
  layout_.max_memnodes = capacity;

  fabric_ = std::make_unique<net::Fabric>(options_.machines, capacity);
  memnodes_.reserve(capacity);
  std::vector<sinfonia::Memnode*> raw;
  for (uint32_t i = 0; i < options_.machines; i++) {
    memnodes_.push_back(
        std::make_unique<sinfonia::Memnode>(i, options_.node_size));
    raw.push_back(memnodes_.back().get());
  }
  sinfonia::Coordinator::Options copts;
  copts.replication = options_.replication;
  copts.durability = options_.durability;
  coord_ = std::make_unique<sinfonia::Coordinator>(fabric_.get(), raw, copts);

  // Durable stores attach before ANY traffic (the first allocator write
  // below already logs): a record missing from the head of a WAL would
  // silently corrupt every later recovery.
  if (options_.durability != wal::DurabilityMode::kNone) {
    if (options_.data_dir.empty()) {
      data_dir_ = MakeTempDataDir();
      owns_data_dir_ = true;
    } else {
      data_dir_ = options_.data_dir;
    }
    stores_.reserve(capacity);
    for (uint32_t i = 0; i < options_.machines; i++) {
      const Status st = OpenDurableStore(i);
      if (!st.ok()) {
        // The constructor has no error channel and a half-durable cluster
        // is worse than none: fail loudly.
        std::fprintf(stderr, "Cluster: cannot open durable store %u: %s\n",
                     i, st.ToString().c_str());
        std::abort();
      }
    }
  }
  ckpt_sid_floor_.reset(new std::atomic<uint64_t>[layout_.max_trees()]());

  alloc::NodeAllocator::Options aopts;
  aopts.batch = options_.alloc_batch;
  allocator_ =
      std::make_unique<alloc::NodeAllocator>(layout_, coord_.get(), aopts);

  catalog_ = std::make_unique<TreeCatalog>(
      coord_.get(), allocator_.get(), &linear_oracle_, this,
      layout_.max_trees(), options_.cache_capacity);

  const uint32_t n_proxies =
      options_.proxies > 0 ? options_.proxies : options_.machines;
  for (uint32_t i = 0; i < n_proxies; i++) {
    proxies_.push_back(std::unique_ptr<Proxy>(new Proxy(this, i)));
  }

  slow_op_log_.set_threshold_ns(options_.slow_op_threshold_ns);
  if (options_.metrics) {
    BindCoreMetrics();
    for (uint32_t i = 0; i < options_.machines; i++) BindMemnodeMetrics(i);
    for (const auto& proxy : proxies_) BindProxyMetrics(*proxy);
  }

  if (options_.durability != wal::DurabilityMode::kNone &&
      options_.checkpoint_interval_ms > 0) {
    ckpt_thread_ = std::thread([this] {
      const auto interval =
          std::chrono::milliseconds(options_.checkpoint_interval_ms);
      std::unique_lock<std::mutex> lk(ckpt_mu_);
      while (!ckpt_stop_) {
        if (ckpt_cv_.wait_for(lk, interval, [this] { return ckpt_stop_; })) {
          break;
        }
        // Run the pass OUTSIDE ckpt_mu_: a checkpoint streams the whole
        // byte space through minitransactions and must not block the
        // destructor's stop signal.
        lk.unlock();
        IgnoreStatus(CheckpointAll());
        lk.lock();
      }
    });
  }
}

Cluster::~Cluster() {
  {
    std::lock_guard<std::mutex> g(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.notify_all();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
  if (owns_data_dir_) {
    for (auto& ds : stores_) {
      if (ds != nullptr) ds->Close();
    }
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
  }
}

Status Cluster::OpenDurableStore(uint32_t id) {
  auto ds = std::make_unique<store::CheckpointedStore>(
      data_dir_ + "/mn" + std::to_string(id));
  MINUET_RETURN_NOT_OK(ds->Open());
  if (stores_.size() <= id) stores_.resize(id + 1);
  stores_[id] = std::move(ds);
  coord_->SetDurableStore(id, stores_[id].get());
  return Status::OK();
}

Status Cluster::CheckpointMemnode(uint32_t id) {
  if (options_.durability == wal::DurabilityMode::kNone) {
    return Status::InvalidArgument("cluster durability is off");
  }
  return coord_->CheckpointMemnode(id);
}

Status Cluster::CheckpointAll() {
  if (options_.durability == wal::DurabilityMode::kNone) {
    return Status::InvalidArgument("cluster durability is off");
  }
  // Record each tree's horizon BEFORE the pass: the images about to be
  // dumped capture at least this much state, so after a COMPLETE pass the
  // GC may reclaim up to it (and no further — see ckpt_sid_floor_).
  const uint32_t trees = n_trees();
  std::vector<uint64_t> floors(trees, 0);
  for (uint32_t slot = 0; slot < trees; slot++) {
    floors[slot] = catalog_->snapshot_service(slot)->LowestRetained();
  }
  Status first_error = Status::OK();
  bool complete = true;
  const uint32_t n = coord_->n_memnodes();
  for (uint32_t id = 0; id < n; id++) {
    if (coord_->retired(id)) continue;
    const Status st = coord_->CheckpointMemnode(id);
    if (!st.ok()) {
      complete = false;
      if (first_error.ok()) first_error = st;
    }
  }
  if (complete) {
    for (uint32_t slot = 0; slot < trees; slot++) {
      std::atomic<uint64_t>& floor = ckpt_sid_floor_[slot];
      uint64_t cur = floor.load(std::memory_order_relaxed);
      while (cur < floors[slot] &&
             !floor.compare_exchange_weak(cur, floors[slot],
                                          std::memory_order_acq_rel)) {
      }
    }
  }
  return first_error;
}

Proxy& Cluster::proxy(uint32_t i) {
  std::shared_lock<std::shared_mutex> g(proxies_mu_);
  if (i >= proxies_.size()) {
    // Indexing an unregistered proxy was silent UB when the tier was
    // frozen at construction; with an elastic tier it is a hard
    // programming error — fail loudly instead of corrupting memory.
    std::fprintf(stderr,
                 "Cluster::proxy(%u): no such proxy (%zu registered)\n", i,
                 proxies_.size());
    std::abort();
  }
  return *proxies_[i];
}

Result<Proxy*> Cluster::FindProxy(uint32_t i) {
  std::shared_lock<std::shared_mutex> g(proxies_mu_);
  if (i >= proxies_.size()) {
    return Status::InvalidArgument("no such proxy");
  }
  return proxies_[i].get();
}

uint32_t Cluster::n_proxies() const {
  std::shared_lock<std::shared_mutex> g(proxies_mu_);
  return static_cast<uint32_t>(proxies_.size());
}

uint32_t Cluster::n_live_proxies() const {
  std::shared_lock<std::shared_mutex> g(proxies_mu_);
  uint32_t live = 0;
  for (const auto& proxy : proxies_) {
    if (!proxy->detached()) live++;
  }
  return live;
}

Result<uint32_t> Cluster::AddProxy() {
  std::unique_lock<std::shared_mutex> g(proxies_mu_);
  const uint32_t id = static_cast<uint32_t>(proxies_.size());
  // Construction is local (cache allocation only — no fabric I/O under the
  // registry lock); the proxy attaches per-tree state lazily on first use.
  proxies_.push_back(std::unique_ptr<Proxy>(new Proxy(this, id)));
  if (options_.metrics) BindProxyMetrics(*proxies_.back());
  return id;
}

Status Cluster::RemoveProxy(uint32_t id) {
  Proxy* victim = nullptr;
  {
    std::unique_lock<std::shared_mutex> g(proxies_mu_);
    if (id >= proxies_.size()) {
      return Status::InvalidArgument("no such proxy");
    }
    if (proxies_[id]->detached()) {
      // Permanent hole, symmetric with retired memnode ids.
      return Status::InvalidArgument(
          "proxy id was removed; proxy ids are never reused");
    }
    uint32_t live = 0;
    for (const auto& proxy : proxies_) {
      if (!proxy->detached()) live++;
    }
    if (live <= 1) {
      return Status::InvalidArgument("cannot remove the last live proxy");
    }
    victim = proxies_[id].get();
    // From here every handle-validated operation through the proxy fails
    // with InvalidArgument. The object stays alive for the cluster's
    // lifetime, so stragglers get a clean error, never a use-after-free.
    victim->detached_.store(true, std::memory_order_release);
  }
  // Lease bulk-release and cache drain run OUTSIDE the registry lock:
  // both walk other subsystems' leaf mutexes, and neither needs the
  // registry. THE LEASE-RELEASE INVARIANT: a removed proxy's pins vanish
  // from every tree's snapshot service, so the GC horizon advances past
  // them — mirroring the memnode drain rule that nothing queryable may be
  // held hostage by a departed member. Stragglers that later Unpin a
  // bulk-released lease no-op harmlessly (per-owner accounting).
  for (uint32_t slot = 0; slot < catalog_->n_trees(); slot++) {
    catalog_->snapshot_service(slot)->ReleaseOwner(victim->lease_owner());
  }
  victim->cache()->Disable();
  return Status::OK();
}

void Cluster::DropProxyCaches() {
  // Shared registry guard: the proxy set may grow concurrently (AddProxy),
  // and the vector must not reallocate mid-iteration.
  std::shared_lock<std::shared_mutex> g(proxies_mu_);
  for (auto& proxy : proxies_) proxy->cache()->Clear();
}

Result<uint32_t> Cluster::AddMemnode() {
  const uint32_t id = coord_->n_memnodes();
  auto node = std::make_unique<sinfonia::Memnode>(id, options_.node_size);
  // The durable store must exist BEFORE the node joins: its first
  // replicated write logs through it.
  if (options_.durability != wal::DurabilityMode::kNone) {
    MINUET_RETURN_NOT_OK(OpenDurableStore(id));
  }
  // The coordinator seeds the new node's replicated region ([0,
  // alloc_meta_base): tip objects, version catalogs, seqnum-table mirrors)
  // and rewires the backup ring, all between in-flight minitransactions.
  // Its own allocator metadata and slab region start empty.
  MINUET_RETURN_NOT_OK(coord_->AddMemnode(node.get(),
                                          layout_.alloc_meta_base()));
  memnodes_.push_back(std::move(node));
  MINUET_RETURN_NOT_OK(allocator_->AddMemnode());
  if (options_.metrics) BindMemnodeMetrics(id);
  if (options_.durability != wal::DurabilityMode::kNone) {
    // Seed checkpoint: the cloned replicated region exists only in RAM
    // until an image captures it. A node that crashes before its first
    // write must recover that seed from an empty WAL + this checkpoint
    // (tests/failure_test.cc proves exactly this path), and a later record
    // that leaves a cloned byte unchanged does not carry it. Busy means a
    // checkpoint pass reached the new node first: wait it out and take
    // our own. Any other failure leaves the node joined but its seed not
    // durable: its next recovery re-seeds from its peer, and the error is
    // returned.
    Status seeded = coord_->CheckpointMemnode(id);
    while (seeded.IsBusy()) {
      std::this_thread::yield();
      seeded = coord_->CheckpointMemnode(id);
    }
    if (!seeded.ok()) {
      coord_->RequireReseed(id);
      return seeded;
    }
  }
  return id;
}

Status Cluster::RemoveMemnode(uint32_t id, RemoveMemnodeOptions opts) {
  if (id >= coord_->n_memnodes() || coord_->retired(id)) {
    return Status::InvalidArgument("no such live memnode");
  }
  if (!fabric_->IsUp(id)) {
    return Status::Unavailable(
        "memnode is down; recover it before draining (its slabs must be "
        "readable to migrate)");
  }

  // Allocator-side retirement may already be done if a previous attempt
  // failed between the two phase-4 steps; skip straight to the membership
  // shrink then.
  if (allocator_->placement_state(id) !=
      alloc::NodeAllocator::PlacementState::kRetired) {
    // Phase 1 — drain-only. Idempotent, so a RemoveMemnode retried after a
    // crash or a Busy reclaim phase resumes from wherever the drain stood.
    MINUET_RETURN_NOT_OK(allocator_->BeginDrain(id));

    // Phase 2 — migrate every tip-reachable slab off the donor.
    auto drained = rebalancer()->DrainMemnode(id, opts.max_drain_rounds);
    if (!drained.ok()) return drained.status();

    // Phase 3 — wait for the MVCC GC horizon to reclaim the migrated
    // sources. Snapshots below the migration sids still read them; the
    // horizon rule says the node retires only when nothing queryable can
    // reference it, i.e. its authoritative occupancy is zero.
    auto remaining = allocator_->MetaLiveSlabs(id);
    if (!remaining.ok()) return remaining.status();
    for (uint32_t round = 0; *remaining > 0 && round < opts.max_gc_rounds;
         round++) {
      for (uint32_t slot = 0; slot < n_trees(); slot++) {
        auto handle = OpenTree(slot);
        if (!handle.ok() || handle->branching()) continue;
        if (opts.advance_horizon) {
          // Releasing the unpinned snapshots moves the horizon to the tip
          // (never across a pinned lease — that is what keeps pre-drain
          // SnapshotViews readable through all of this). Creating fresh
          // snapshots instead would make every node's next write copy it.
          IgnoreStatus(catalog_->snapshot_service(slot)->ReleaseUnpinned());
        }
        IgnoreStatus(CollectGarbage(slot));
      }
      remaining = allocator_->MetaLiveSlabs(id);
      if (!remaining.ok()) return remaining.status();
    }
    if (*remaining > 0) {
      // Typically a pinned snapshot holding the horizon, or slabs of a
      // branching tree (which the rebalancer does not migrate). The node
      // stays drain-only and KEEPS SERVING those snapshot reads; call
      // again once the pins are released.
      return Status::Busy(
          "drained memnode still holds GC-protected slabs; retry after "
          "pinned snapshots are released");
    }

    // Phase 4a — zero the allocator metadata while the node is still
    // reachable (after the membership shrink its fabric id is rejected).
    MINUET_RETURN_NOT_OK(allocator_->Retire(id));
  }

  // Phase 4b — shrink the membership under the coordinator's exclusive
  // lock (ring rewire, replicated-write expansion, fabric rejection).
  MINUET_RETURN_NOT_OK(coord_->RetireMemnode(id));
  // The storage is dead weight now (nothing can address it); release it.
  // The Memnode object itself stays, keeping the dense id space intact.
  memnodes_[id]->LoseState();
  return Status::OK();
}

rebalance::Rebalancer* Cluster::rebalancer() {
  std::lock_guard<std::mutex> g(rebalancer_mu_);
  if (rebalancer_ == nullptr) {
    rebalancer_ = std::make_unique<rebalance::Rebalancer>(this);
    if (options_.metrics) BindRebalancerMetrics();
  }
  return rebalancer_.get();
}

Result<TreeHandle> Cluster::CreateTree(bool branching) {
  btree::TreeOptions topts;
  topts.dirty_traversals = options_.dirty_traversals;
  topts.beta = options_.beta;
  topts.max_attempts = options_.max_op_attempts;

  mvcc::SnapshotService::Options sopts;
  sopts.min_interval_seconds = options_.snapshot_min_interval_seconds;
  sopts.retain_last = options_.retain_snapshots;

  // One registration, total: the catalog owns the slot, the branching
  // flag, the snapshot service and the GC. Proxies — including ones added
  // after this call — attach their own view stacks lazily on first use.
  auto handle = catalog_->Register(branching, topts, sopts, snapshot_clock_);
  if (handle.ok() && options_.metrics) BindTreeMetrics(handle->slot());
  return handle;
}

Result<TreeHandle> Cluster::OpenTree(uint32_t slot) const {
  return catalog_->Handle(slot);
}

Result<mvcc::GarbageCollector::Report> Cluster::CollectGarbage(
    uint32_t tree) {
  mvcc::GarbageCollector* gc = catalog_->gc(tree);
  if (gc == nullptr) {
    return Status::InvalidArgument("no such tree slot");
  }
  // With durability on, reclamation may not pass the last complete
  // checkpoint pass: a recovered image is as old as its checkpoint + WAL,
  // and must never chase a reference into a slab reused since then.
  const uint64_t floor =
      options_.durability == wal::DurabilityMode::kNone
          ? UINT64_MAX
          : ckpt_sid_floor_[tree].load(std::memory_order_acquire);
  return gc->CollectOnce(catalog_->snapshot_service(tree)->LowestRetained(),
                         floor);
}

void Cluster::CrashMemnode(uint32_t id) { coord_->Crash(id); }

// No-op for retired ids (the coordinator guards: retirement is permanent).
void Cluster::RecoverMemnode(uint32_t id) { coord_->Recover(id); }

void Cluster::CrashAllMemnodes() { coord_->CrashAll(); }

void Cluster::RecoverAllMemnodes() {
  const uint32_t n = coord_->n_memnodes();
  for (uint32_t id = 0; id < n; id++) {
    if (coord_->retired(id)) continue;
    coord_->Recover(id);
  }
}

// ---------------------------------------------------------------------------
// Proxy

Proxy::Proxy(Cluster* cluster, uint32_t id)
    : cluster_(cluster),
      id_(id),
      coord_(cluster->coord_.get()),
      max_attempts_(cluster->options_.max_op_attempts),
      cache_(std::make_unique<txn::ObjectCache>(
          cluster->options_.cache_capacity)),
      tree_capacity_(cluster->layout_.max_trees()),
      trees_(new TreeCatalog::ProxyTree[tree_capacity_]) {}

Status Proxy::CheckHandle(const TreeHandle& tree) const {
  if (detached_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("proxy was removed from its cluster");
  }
  return cluster_->catalog_->CheckHandle(tree);
}

Status Proxy::EnsureAttached(uint32_t slot) {
  if (slot < attached_.load(std::memory_order_acquire)) return Status::OK();
  const TreeCatalog& catalog = *cluster_->catalog_;
  if (slot >= catalog.n_trees()) {
    return Status::InvalidArgument("no such tree slot");
  }
  // Materialize every slot up to and including the requested one, so the
  // attached prefix stays dense (slots are dense in the catalog). Local
  // construction only — no fabric I/O under attach_mu_.
  std::lock_guard<std::mutex> g(attach_mu_);
  for (uint32_t s = attached_.load(std::memory_order_relaxed); s <= slot;
       s++) {
    trees_[s] = catalog.Materialize(s, cache_.get());
    attached_.store(s + 1, std::memory_order_release);
  }
  return Status::OK();
}

btree::BTree* Proxy::tree(const TreeHandle& t) {
  return CheckHandle(t).ok() ? tree(t.slot()) : nullptr;
}

btree::BTree* Proxy::tree(uint32_t slot) {
  if (!EnsureAttached(slot).ok()) return nullptr;
  return trees_[slot].tree.get();
}

version::VersionManager* Proxy::vm(uint32_t tree) {
  if (!EnsureAttached(tree).ok()) return nullptr;
  return trees_[tree].version_manager.get();
}

mvcc::SnapshotService* Proxy::snapshot_service(uint32_t tree) {
  return cluster_->snapshot_service(tree);
}

// Shared factory body: acquisition pins atomically inside the service (no
// window for the GC horizon to pass the snapshot before the view exists)
// and the view adopts that pin for its lifetime. The pin is accounted to
// this proxy (lease_owner), so RemoveProxy can bulk-release it.
Result<SnapshotView> Proxy::AcquirePinnedView(const TreeHandle& tree,
                                              bool strict) {
  MINUET_RETURN_NOT_OK(CheckHandle(tree));
  MINUET_RETURN_NOT_OK(CheckLinearAccess(tree));
  mvcc::SnapshotService* scs = snapshot_service(tree.slot());
  auto snap = strict ? scs->CreateSnapshot(/*pin=*/true, lease_owner())
                     : scs->AcquireForScan(/*pin=*/true, lease_owner());
  if (!snap.ok()) return snap.status();
  // The view adopts the acquisition pin: no extra pin/unpin round trip.
  return SnapshotView(this, tree, *snap, scs, SnapshotView::Lease::kAdopt);
}

Result<SnapshotView> Proxy::Snapshot(const TreeHandle& tree) {
  return AcquirePinnedView(tree, /*strict=*/true);
}

Result<SnapshotView> Proxy::RecentSnapshot(const TreeHandle& tree) {
  return AcquirePinnedView(tree, /*strict=*/false);
}

Result<SnapshotView> Proxy::ViewAt(const TreeHandle& tree,
                                   const btree::SnapshotRef& snap) {
  MINUET_RETURN_NOT_OK(CheckHandle(tree));
  MINUET_RETURN_NOT_OK(CheckLinearAccess(tree));
  return SnapshotView(this, tree, snap, snapshot_service(tree.slot()),
                      SnapshotView::Lease::kNone);
}

Result<BranchView> Proxy::Branch(const TreeHandle& tree, uint64_t sid) {
  MINUET_RETURN_NOT_OK(CheckHandle(tree));
  auto info = BranchInfo(tree, sid);
  if (!info.ok()) return info.status();
  return BranchView(this, tree, sid, info->writable);
}

Result<uint64_t> Proxy::CreateBranch(const TreeHandle& tree,
                                     uint64_t from_sid) {
  MINUET_RETURN_NOT_OK(CheckHandle(tree));
  if (vm(tree.slot()) == nullptr) {
    return Status::InvalidArgument("tree was not created as branching");
  }
  return vm(tree.slot())->CreateBranch(from_sid);
}

Result<version::BranchInfo> Proxy::BranchInfo(const TreeHandle& tree,
                                              uint64_t sid) {
  MINUET_RETURN_NOT_OK(CheckHandle(tree));
  if (vm(tree.slot()) == nullptr) {
    return Status::InvalidArgument("tree was not created as branching");
  }
  return vm(tree.slot())->Info(sid);
}

Status Proxy::Scan(const TreeHandle& tree, const std::string& start,
                   size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out,
                   Cursor::Options copts) {
  out->clear();
  if (limit > 0) {
    copts.chunk_size = std::min(limit, copts.chunk_size);
    copts.limit = limit;
  }
  if (copts.refresh_lease) {
    // §4.4 long-scan mode: an UNPINNED policy snapshot plus transparent
    // re-leasing. GC is never held back by the scan; if the horizon
    // overtakes the snapshot mid-scan, the cursor splices onto the newest
    // one and continues (per-snapshot consistency).
    MINUET_RETURN_NOT_OK(CheckHandle(tree));
    MINUET_RETURN_NOT_OK(CheckLinearAccess(tree));
    auto snap = snapshot_service(tree.slot())
                    ->AcquireForScan(/*pin=*/false, lease_owner());
    if (!snap.ok()) return snap.status();
    auto view = ViewAt(tree, *snap);  // carries the service for re-leasing
    if (!view.ok()) return view.status();
    return view->NewCursor(start, copts)->Drain(limit, out);
  }
  // Pinned path: the pin keeps the horizon off the snapshot.
  auto view = RecentSnapshot(tree);
  if (!view.ok()) return view.status();
  return view->NewCursor(start, copts)->Drain(limit, out);
}

}  // namespace minuet
