// The four workloads (see perfbench/NOTES.md for why each exists) and the
// shared plumbing declared in bench.h.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/hash.h"

namespace perfbench {

using minuet::BranchView;
using minuet::Cluster;
using minuet::ClusterOptions;
using minuet::Proxy;
using minuet::Status;
using minuet::WriteBatch;

// ---------------------------------------------------------------------------
// Keys, values, recorders, registry

std::string Key(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%013" PRIu64, id);
  return std::string(buf, 14);
}

bool ParseKey(const std::string& key, uint64_t* id) {
  if (key.size() != 14 || key[0] != 'k') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < key.size(); i++) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *id = v;
  return true;
}

uint64_t Tag(uint64_t writer, uint64_t branch, uint64_t seq) {
  return (writer << 56) | ((branch & 0xFFFF) << 40) | TagSeq(seq);
}

std::string Value(uint64_t tag) {
  char buf[8];
  std::memcpy(buf, &tag, sizeof(buf));
  return std::string(buf, sizeof(buf));
}

bool ParseValue(const std::string& value, uint64_t* tag) {
  if (value.size() != sizeof(uint64_t)) return false;
  std::memcpy(tag, value.data(), sizeof(uint64_t));
  return true;
}

namespace {
std::atomic<int> g_failures_printed{0};
}  // namespace

void ClientCtx::Fail(const std::string& what) {
  rec.failed++;
  if (g_failures_printed.fetch_add(1) < 10) {
    std::fprintf(stderr, "FAIL client %d: %s\n", id, what.c_str());
  }
}

void ClientCtx::Accumulate(OpKind kind, uint64_t wall_ns) {
  rec.traced_ops[kind]++;
  rec.rounds[kind] += op_trace.round_trips;
  rec.messages += op_trace.messages;
  rec.op_wall_ns += wall_ns;
  if (rec.per_node_msgs.size() < op_trace.per_node.size()) {
    rec.per_node_msgs.resize(op_trace.per_node.size(), 0);
  }
  for (size_t i = 0; i < op_trace.per_node.size(); i++) {
    rec.per_node_msgs[i] += op_trace.per_node[i];
  }
  for (const minuet::obs::TraceSpan& s : trace_ctx.spans()) {
    if (s.kind != minuet::obs::TraceSpan::Kind::kRound) continue;
    rec.round_wall_ns += s.wall_ns;
    rec.round_ns.push_back(s.wall_ns);
  }
}

Counters ReadCounters(const Cluster& cluster) {
  Counters out;
  for (const minuet::obs::Sample& s : cluster.metrics_registry().Snapshot()) {
    if (s.kind == minuet::obs::Sample::Kind::kHistogram) continue;
    out[s.subsystem + "." + s.name] = s.value;
  }
  return out;
}

int64_t DeltaSum(const Counters& before, const Counters& after,
                 const std::string& prefix, const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [name, value] : after) {
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    auto it = before.find(name);
    sum += value - (it == before.end() ? 0 : it->second);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Workload base

namespace {

constexpr uint32_t kMachines = 4;
constexpr uint32_t kNodeSize = 4096;
constexpr size_t kPreloadBatch = 256;
constexpr int kClients = 3;
constexpr uint32_t kMaintenanceProxy = 3;

ClusterOptions BaseOptions() {
  ClusterOptions opts;
  opts.machines = kMachines;
  opts.node_size = kNodeSize;
  return opts;
}

// Keys [0, n) partitioned among `owners` writers: the id of partition
// `owner` nearest below `id`.
uint64_t Owned(uint64_t id, uint64_t owner, uint64_t owners, uint64_t n) {
  uint64_t out = id - id % owners + owner;
  while (out >= n) out -= owners;
  return out;
}

uint64_t UniformOwned(minuet::Rng& rng, uint64_t owner, uint64_t owners,
                      uint64_t n) {
  return Owned(rng.Uniform(n), owner, owners, n);
}

// A value read back for key `id` must come from the preload or from the
// key's owner.
bool PlausibleTag(uint64_t tag, uint64_t id, uint64_t owners) {
  if (TagWriter(tag) == kPreloadWriter) return TagSeq(tag) == id;
  return TagWriter(tag) == id % owners;
}

// Per-writer record of the last acknowledged value of every key it wrote.
using AckMap = std::unordered_map<uint64_t, uint64_t>;

// Read every key of `acks` back through `view` in 64-key MultiGets and
// compare with the acknowledged tag. Returns {checked, failed}.
std::pair<uint64_t, uint64_t> CheckAcked(minuet::View& view,
                                         const AckMap& acks,
                                         const char* what) {
  std::vector<std::pair<uint64_t, uint64_t>> items(acks.begin(), acks.end());
  std::sort(items.begin(), items.end());
  uint64_t failed = 0;
  for (size_t i = 0; i < items.size(); i += 64) {
    const size_t end = std::min(items.size(), i + 64);
    std::vector<std::string> keys;
    for (size_t j = i; j < end; j++) keys.push_back(Key(items[j].first));
    std::vector<std::optional<std::string>> values;
    Status st = view.MultiGet(keys, &values);
    for (size_t j = i; j < end; j++) {
      uint64_t tag = 0;
      const auto& v = st.ok() ? values[j - i] : std::nullopt;
      if (!v || !ParseValue(*v, &tag) || tag != items[j].second) {
        if (failed++ < 5) {
          std::fprintf(stderr, "FAIL %s: key %" PRIu64 " lost its last "
                       "acknowledged write (%s)\n", what, items[j].first,
                       st.ToString().c_str());
        }
      }
    }
  }
  return {items.size(), failed};
}

// CheckAcked over each writer's map; the keys read are reported as
// `metric`. Returns the number of failed keys.
uint64_t CheckWriters(minuet::View& view, const AckMap* acks, size_t writers,
                      const char* what, MetricMap* out, const char* metric) {
  uint64_t failed = 0, checked = 0;
  for (size_t i = 0; i < writers; i++) {
    auto [n, f] = CheckAcked(view, acks[i], what);
    checked += n;
    failed += f;
  }
  (*out)[metric] = {static_cast<double>(checked), "keys"};
  return failed;
}

}  // namespace

Status Workload::Build(bool branching, const ClusterOptions& opts) {
  cluster_ = std::make_unique<Cluster>(opts);
  auto tree = cluster_->CreateTree(branching);
  if (!tree.ok()) return tree.status();
  tree_ = *tree;
  return Status::OK();
}

Status Workload::Preload(uint64_t n, int64_t branch) {
  Proxy& p = cluster_->proxy(0);
  WriteBatch batch;
  for (uint64_t id = 0; id < n; id++) {
    const std::string value = Value(Tag(kPreloadWriter, 0, id));
    if (branch < 0) {
      batch.Put(tree_, Key(id), value);
    } else {
      batch.BranchPut(tree_, static_cast<uint64_t>(branch), Key(id), value);
    }
    if (batch.size() == kPreloadBatch || id + 1 == n) {
      MINUET_RETURN_NOT_OK(p.Apply(batch));
      batch.Clear();
    }
  }
  return Status::OK();
}

uint64_t Workload::LiveSlabs() {
  uint64_t slabs = 0;
  for (uint32_t m = 0; m < cluster_->n_memnodes(); m++) {
    auto live = cluster_->allocator()->MetaLiveSlabs(m);
    if (live.ok()) slabs += *live;
  }
  return slabs;
}

SpaceReport Workload::SpaceAfterFixedPointGc(bool durable) {
  SpaceReport r;
  Proxy& p = cluster_->proxy(kMaintenanceProxy);
  // Flush the retained-snapshot window: with no writes after this point,
  // every retained snapshot shares the tip's nodes.
  const uint64_t flush = cluster_->options().retain_snapshots + 1;
  for (uint64_t i = 0; i < flush; i++) {
    auto snap = p.Snapshot(tree_);
    if (!snap.ok()) break;
  }
  // With durability on, GC may not pass the last complete checkpoint.
  if (durable && !cluster_->CheckpointAll().ok()) return r;
  for (int pass = 0; pass < 16; pass++) {
    auto rep = cluster_->CollectGarbage(tree_);
    if (!rep.ok()) break;
    r.gc_passes++;
    r.live_nodes = rep->skipped_live;
    if (rep->freed == 0) break;
  }
  r.live_slabs = LiveSlabs();
  r.orphan_slabs = r.live_slabs > r.live_nodes ? r.live_slabs - r.live_nodes
                                               : 0;
  r.space_amp = static_cast<double>(r.live_slabs) * kNodeSize /
                (static_cast<double>(n_keys()) * kUserBytesPerKey);
  return r;
}

SpaceReport Workload::Space() { return SpaceAfterFixedPointGc(false); }

namespace {

// ---------------------------------------------------------------------------
// point-zipf: 90% Get / 10% Put, zipf 0.99 over scrambled ids.

class PointZipf : public Workload {
 public:
  static constexpr uint64_t kKeys = 1000000;

  PointZipf() : zipf_(kKeys, 0.99) {}
  const char* name() const override { return "point-zipf"; }
  uint64_t warmup_window_ops() const override { return 30000; }
  uint64_t space_ops(int) const override { return 20000; }
  uint64_t n_keys() const override { return kKeys; }

  Status Setup(const Config&) override {
    MINUET_RETURN_NOT_OK(Build(false, BaseOptions()));
    return Preload(kKeys, -1);
  }

  void ClientStep(ClientCtx& ctx) override {
    const uint64_t id =
        minuet::FnvHash64(zipf_.Next(ctx.rng)) % kKeys;
    auto tip = cluster_->proxy(ctx.id).Tip(tree_);
    if (ctx.rng.Uniform(10) == 0) {
      const uint64_t key = Owned(id, ctx.id, kClients, kKeys);
      const uint64_t tag = Tag(ctx.id, 0, ++seq_[ctx.id]);
      Status st = ctx.Timed(kWrite, [&] {
        return tip.Put(Key(key), Value(tag));
      });
      if (st.ok()) acks_[ctx.id][key] = tag;
      return;
    }
    std::string v;
    Status st = ctx.Timed(kRead, [&] { return tip.Get(Key(id), &v); });
    uint64_t tag = 0;
    if (st.IsNotFound()) {
      ctx.Fail("preloaded key missing");
    } else if (st.ok() &&
               (!ParseValue(v, &tag) || !PlausibleTag(tag, id, kClients))) {
      ctx.Fail("Get returned a value its key's owner never wrote");
    }
  }

  uint64_t FinalChecks(MetricMap* out) override {
    auto tip = cluster_->proxy(kMaintenanceProxy).Tip(tree_);
    return CheckWriters(tip, acks_, kClients, "point-zipf final value", out,
                        "check.final_values");
  }

 private:
  minuet::ZipfianGenerator zipf_;
  uint64_t seq_[kClients] = {};
  AckMap acks_[kClients];
};

// ---------------------------------------------------------------------------
// scan-snapshot: client 0 scans 1000 keys on a fresh snapshot; clients 1-2
// Put uniformly; the maintenance thread runs a GC pass every N scans.

class ScanSnapshot : public Workload {
 public:
  static constexpr uint64_t kKeys = 200000;
  static constexpr uint64_t kScanLen = 1000;

  const char* name() const override { return "scan-snapshot"; }
  uint64_t warmup_window_ops() const override { return 1500; }
  // 3000 scans (5 GC passes) and, as in a measured phase, about 1.5
  // writes per scan from each writer.
  uint64_t space_ops(int client) const override {
    return client == 0 ? 3000 : 4500;
  }
  uint64_t n_keys() const override { return kKeys; }

  Status Setup(const Config&) override {
    MINUET_RETURN_NOT_OK(Build(false, BaseOptions()));
    return Preload(kKeys, -1);
  }

  void ClientStep(ClientCtx& ctx) override {
    Proxy& p = cluster_->proxy(ctx.id);
    if (ctx.id == 0) {
      Scan(ctx, p);
      return;
    }
    const uint64_t owner = ctx.id - 1;
    const uint64_t key = UniformOwned(ctx.rng, owner, 2, kKeys);
    const uint64_t tag = Tag(owner, 0, ++seq_[owner]);
    Status st = ctx.Timed(kWrite, [&] {
      return p.Tip(tree_).Put(Key(key), Value(tag));
    });
    if (st.ok()) acks_[owner][key] = tag;
  }

  uint64_t trigger_ops() const override {
    return scans_.load(std::memory_order_relaxed);
  }
  // About one pass per second of scans, which a pass (0.35-0.6 s) keeps up
  // with. At one per 200 scans passes fell behind and ran back to back, so
  // the GC work of a run followed GC speed rather than the scan count.
  uint64_t maintenance_every() const override { return 600; }
  uint64_t maintenance_cap() const override { return 400; }
  void MaintenanceStep() override {
    const uint64_t t0 = NowNs();
    auto rep = cluster_->CollectGarbage(tree_);
    const uint64_t t1 = NowNs();
    if (!rep.ok()) return;
    log_.gc_pass_ms.push_back((t1 - t0) / 1e6);
    log_.gc_scanned.push_back(static_cast<double>(rep->scanned));
    log_.gc_freed.push_back(static_cast<double>(rep->freed));
  }

  uint64_t FinalChecks(MetricMap* out) override {
    auto tip = cluster_->proxy(kMaintenanceProxy).Tip(tree_);
    return CheckWriters(tip, acks_, 2, "scan-snapshot final value", out,
                        "check.final_values");
  }

 private:
  void Scan(ClientCtx& ctx, Proxy& p) {
    const uint64_t start = ctx.rng.Uniform(kKeys - kScanLen + 1);
    std::vector<std::pair<std::string, std::string>> out;
    Status st = ctx.Timed(kScan, [&]() -> Status {
      const uint64_t t0 = NowNs();
      auto snap = p.Snapshot(tree_);
      if (ctx.record) ctx.rec.snapshot_ns.push_back(NowNs() - t0);
      if (!snap.ok()) return snap.status();
      auto cursor = snap->NewCursor(Key(start));
      return cursor->Drain(kScanLen, &out);
    });
    scans_.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) return;
    bool good = out.size() == kScanLen;
    for (size_t i = 0; good && i < out.size(); i++) {
      uint64_t id = 0, tag = 0;
      good = ParseKey(out[i].first, &id) && id == start + i &&
             ParseValue(out[i].second, &tag) &&
             (TagWriter(tag) == kPreloadWriter ? TagSeq(tag) == id
                                               : TagWriter(tag) == id % 2);
    }
    if (!good) {
      ctx.Fail("scan from " + std::to_string(start) + " returned " +
               std::to_string(out.size()) +
               " pairs, not 1000 contiguous ascending ids");
    }
  }

  std::atomic<uint64_t> scans_{0};
  uint64_t seq_[2] = {};
  AckMap acks_[2];
};

// ---------------------------------------------------------------------------
// batch-sync: durability sync; 8-key WriteBatch / 8-key MultiGet, 50/50;
// CheckpointAll every N batches; cold restart over a fixed WAL tail.

class BatchSync : public Workload {
 public:
  static constexpr uint64_t kKeys = 200000;
  static constexpr size_t kBatchKeys = 8;
  static constexpr int kTailBatches = 64;

  const char* name() const override { return "batch-sync"; }
  uint64_t keys_per_write() const override { return kBatchKeys; }
  uint64_t warmup_window_ops() const override { return 2000; }
  // 3000 batches across the clients: 3 checkpoints.
  uint64_t space_ops(int) const override { return 2000; }
  uint64_t n_keys() const override { return kKeys; }

  Status Setup(const Config& config) override {
    ClusterOptions opts = BaseOptions();
    opts.durability = minuet::wal::DurabilityMode::kSync;
    opts.data_dir = config.data_dir;
    opts.checkpoint_interval_ms = 0;
    MINUET_RETURN_NOT_OK(Build(false, opts));
    MINUET_RETURN_NOT_OK(Preload(kKeys, -1));
    // Start the run from a checkpoint, not from the preload's WAL.
    return cluster_->CheckpointAll();
  }

  void ClientStep(ClientCtx& ctx) override {
    Proxy& p = cluster_->proxy(ctx.id);
    if (step_[ctx.id]++ % 2 == 0) {
      WriteOne(ctx, p, ctx.id);
      batches_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::vector<std::string> keys;
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < kBatchKeys; i++) {
      ids.push_back(ctx.rng.Uniform(kKeys));
      keys.push_back(Key(ids.back()));
    }
    std::vector<std::optional<std::string>> values;
    Status st = ctx.Timed(kRead, [&] {
      return p.Tip(tree_).MultiGet(keys, &values);
    });
    if (!st.ok()) return;
    for (size_t i = 0; i < kBatchKeys; i++) {
      uint64_t tag = 0;
      if (!values[i] || !ParseValue(*values[i], &tag) ||
          !PlausibleTag(tag, ids[i], kClients)) {
        ctx.Fail("MultiGet lost preloaded key " + std::to_string(ids[i]));
        return;
      }
    }
  }

  uint64_t trigger_ops() const override {
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t maintenance_every() const override { return 1000; }
  uint64_t maintenance_cap() const override { return 40; }
  void MaintenanceStep() override {
    const uint64_t t0 = NowNs();
    Status st = cluster_->CheckpointAll();
    const uint64_t t1 = NowNs();
    if (!st.ok()) return;
    log_.checkpoint_ms.push_back((t1 - t0) / 1e6);
    log_.checkpoint_windows.emplace_back(t0, t1);
  }

  uint64_t FinalChecks(MetricMap* out) override {
    auto tip = cluster_->proxy(kMaintenanceProxy).Tip(tree_);
    uint64_t failed = CheckWriters(tip, acks_, kClients,
                                   "batch-sync final value", out,
                                   "check.final_values");
    // Fixed recovery work: checkpoint, then a fixed tail of batches from
    // one writer, then a full cold restart over exactly that WAL tail.
    if (!cluster_->CheckpointAll().ok()) failed++;
    ClientCtx tail(0x7A11);
    tail.id = 0;
    for (int i = 0; i < kTailBatches; i++) {
      WriteOne(tail, cluster_->proxy(0), 0);
    }
    failed += tail.rec.failed;
    const Counters before = ReadCounters(*cluster_);
    const uint64_t t0 = NowNs();
    cluster_->CrashAllMemnodes();
    cluster_->RecoverAllMemnodes();
    const double recover_s = (NowNs() - t0) / 1e9;
    const Counters after = ReadCounters(*cluster_);
    const double replayed = static_cast<double>(
        DeltaSum(before, after, "memnode", ".store.replayed"));
    (*out)["recover_s"] = {recover_s, "s"};
    (*out)["store.replayed_records"] = {replayed, "count"};
    (*out)["store.replay_records_per_s"] = {replayed / recover_s, "1/s"};
    // Every batch acknowledged before the crash, read through another
    // proxy (its cache predates the restart and must self-heal).
    auto recovered = cluster_->proxy(1).Tip(tree_);
    failed += CheckWriters(recovered, acks_, kClients,
                           "batch-sync after cold restart", out,
                           "check.recovered_values");
    return failed;
  }

  SpaceReport Space() override { return SpaceAfterFixedPointGc(true); }

 private:
  void WriteOne(ClientCtx& ctx, Proxy& p, int owner) {
    std::vector<uint64_t> ids;
    while (ids.size() < kBatchKeys) {
      const uint64_t id = UniformOwned(ctx.rng, owner, kClients, kKeys);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    WriteBatch batch;
    std::vector<uint64_t> tags;
    for (uint64_t id : ids) {
      tags.push_back(Tag(owner, 0, ++seq_[owner]));
      batch.Put(tree_, Key(id), Value(tags.back()));
    }
    Status st = ctx.Timed(kWrite, [&] { return p.Apply(batch); });
    if (!st.ok()) return;
    for (size_t i = 0; i < ids.size(); i++) acks_[owner][ids[i]] = tags[i];
  }

  std::atomic<uint64_t> batches_{0};
  uint64_t step_[kClients] = {};
  uint64_t seq_[kClients] = {};
  AckMap acks_[kClients];
};

// ---------------------------------------------------------------------------
// branch-whatif: clients 0-1 Put/Get 50/50 on the newest writable branch;
// client 2 reads frozen ancestors; the maintenance thread forks a new
// branch off the mainline every N branch writes.

class BranchWhatIf : public Workload {
 public:
  static constexpr uint64_t kKeys = 200000;
  static constexpr uint64_t kMaxForks = 96;
  static constexpr size_t kMultiGetKeys = 8;

  BranchWhatIf() : sids_(kMaxForks + 2, 0) {}
  const char* name() const override { return "branch-whatif"; }
  uint64_t warmup_window_ops() const override { return 10000; }
  // About 30,000 branch writes across the two writers: 12 forks.
  uint64_t space_ops(int) const override { return 30000; }
  uint64_t n_keys() const override { return kKeys; }

  Status Setup(const Config&) override {
    MINUET_RETURN_NOT_OK(Build(true, BaseOptions()));
    MINUET_RETURN_NOT_OK(Preload(kKeys, 0));
    // One fork up front, so the ancestor reader has a frozen branch.
    auto b = cluster_->proxy(kMaintenanceProxy).CreateBranch(tree_, 0);
    if (!b.ok()) return b.status();
    sids_[0] = 0;
    sids_[1] = *b;
    newest_.store(1, std::memory_order_release);
    return Status::OK();
  }

  void ClientStep(ClientCtx& ctx) override {
    if (ctx.id == 2) {
      ReadAncestor(ctx);
      return;
    }
    const uint64_t owner = ctx.id;
    Status resolved = Resolve(ctx.id);
    if (!resolved.ok()) {
      ctx.Fail("branch view: " + resolved.ToString());
      return;
    }
    const uint64_t key = UniformOwned(ctx.rng, owner, 2, kKeys);
    if (ctx.rng.Uniform(2) == 0) {
      uint64_t tag = 0;
      Status st = ctx.Timed(kWrite, [&]() -> Status {
        for (;;) {
          tag = Tag(owner, view_idx_[owner], ++seq_[owner]);
          Status s = views_[owner]->Put(Key(key), Value(tag));
          if (!s.IsReadOnly()) return s;
          // Frozen under us by a fork: move to the new newest branch.
          while (newest_.load(std::memory_order_acquire) <=
                 view_idx_[owner]) {
            std::this_thread::yield();
          }
          Status r = Resolve(ctx.id);
          if (!r.ok()) return r;
        }
      });
      if (st.ok()) {
        acks_[owner][key] = tag;
        branch_writes_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    std::string v;
    Status st =
        ctx.Timed(kRead, [&] { return views_[owner]->Get(Key(key), &v); });
    if (!st.ok()) {
      if (st.IsNotFound()) ctx.Fail("branch lost key " + std::to_string(key));
      return;
    }
    auto it = acks_[owner].find(key);
    const uint64_t want =
        it == acks_[owner].end() ? Tag(kPreloadWriter, 0, key) : it->second;
    uint64_t tag = 0;
    if (!ParseValue(v, &tag) || tag != want) {
      ctx.Fail("branch Get of key " + std::to_string(key) +
               " is not its last acknowledged write");
    }
  }

  uint64_t trigger_ops() const override {
    return branch_writes_.load(std::memory_order_relaxed);
  }
  // A fork every 2500 branch writes keeps copy-on-write bursts
  // overlapping, so the whole measured phase is one regime. When a cap on
  // forks was reached mid-run, runs split into a fork regime and a
  // fork-free one at a varying point, and ops_s swung 15%. kMaxForks
  // (about 1,700 slabs per fork) keeps a cluster within 2/3 of its
  // 4 x 65,536-slab capacity. A 12-s run forks about 70 times, warm-up
  // included, on a 4-vCPU Xeon, so only a machine about 35% faster
  // reaches the cap, and then within the last windows. The number of forks
  // a measured phase makes follows its speed; space_amp does not, because
  // it is read after the space phase's fixed 12 forks.
  uint64_t maintenance_every() const override { return 2500; }
  uint64_t maintenance_cap() const override { return kMaxForks; }
  void MaintenanceStep() override {
    const uint64_t k = newest_.load(std::memory_order_acquire);
    if (k + 1 >= sids_.size()) return;
    const uint64_t t0 = NowNs();
    auto b = cluster_->proxy(kMaintenanceProxy).CreateBranch(tree_, sids_[k]);
    const uint64_t t1 = NowNs();
    if (!b.ok()) {
      std::fprintf(stderr, "FAIL fork: %s\n", b.status().ToString().c_str());
      fork_failures_++;
      return;
    }
    log_.fork_us.push_back((t1 - t0) / 1e3);
    sids_[k + 1] = *b;
    newest_.store(k + 1, std::memory_order_release);
  }

  uint64_t FinalChecks(MetricMap* out) override {
    const uint64_t k = newest_.load(std::memory_order_acquire);
    auto view = cluster_->proxy(kMaintenanceProxy).Branch(tree_, sids_[k]);
    if (!view.ok()) return fork_failures_ + 1;
    (*out)["version.forks"] = {static_cast<double>(k), "count"};
    return fork_failures_ + CheckWriters(*view, acks_, 2,
                                         "branch-whatif final value", out,
                                         "check.final_values");
  }

  // GC does not collect branching version trees: space is read straight
  // from the allocator metadata, and live nodes are not counted.
  SpaceReport Space() override {
    SpaceReport r;
    r.live_slabs = LiveSlabs();
    r.space_amp = static_cast<double>(r.live_slabs) * kNodeSize /
                  (static_cast<double>(kKeys) * kUserBytesPerKey);
    return r;
  }

 private:
  // Point writer `c`'s cached view at the newest branch.
  Status Resolve(int c) {
    const uint64_t k = newest_.load(std::memory_order_acquire);
    if (views_[c] && view_idx_[c] == k) return Status::OK();
    auto v = cluster_->proxy(c).Branch(tree_, sids_[k]);
    if (!v.ok()) return v.status();
    views_[c].emplace(std::move(*v));
    view_idx_[c] = k;
    return Status::OK();
  }

  void ReadAncestor(ClientCtx& ctx) {
    const uint64_t n = newest_.load(std::memory_order_acquire);
    const uint64_t j = ctx.rng.Uniform(n);  // a frozen branch, [0, n)
    auto it = ancestors_.find(j);
    if (it == ancestors_.end()) {
      auto v = cluster_->proxy(ctx.id).Branch(tree_, sids_[j]);
      if (!v.ok()) {
        ctx.Fail("ancestor view: " + v.status().ToString());
        return;
      }
      it = ancestors_.emplace(j, std::move(*v)).first;
    }
    BranchView& view = it->second;
    std::vector<uint64_t> ids;
    std::vector<std::optional<std::string>> values;
    Status st;
    if (ctx.rng.Uniform(2) == 0) {
      ids.push_back(ctx.rng.Uniform(kKeys));
      std::string v;
      st = ctx.Timed(kRead, [&] { return view.Get(Key(ids[0]), &v); });
      if (st.ok()) values.emplace_back(std::move(v));
    } else {
      std::vector<std::string> keys;
      for (size_t i = 0; i < kMultiGetKeys; i++) {
        ids.push_back(ctx.rng.Uniform(kKeys));
        keys.push_back(Key(ids.back()));
      }
      st = ctx.Timed(kRead, [&] { return view.MultiGet(keys, &values); });
    }
    if (!st.ok() && !st.IsNotFound()) return;
    for (size_t i = 0; i < ids.size(); i++) {
      uint64_t tag = 0;
      const bool present = i < values.size() && values[i].has_value();
      if (!present || !ParseValue(*values[i], &tag) ||
          !PlausibleTag(tag, ids[i], 2) || TagBranch(tag) > j) {
        ctx.Fail("ancestor " + std::to_string(j) + " read key " +
                 std::to_string(ids[i]) +
                 (present ? " written after it was frozen" : " missing"));
        return;
      }
    }
  }

  // sids_[i] is the i-th branch of the mainline chain; entries up to
  // newest_ are published (release) before newest_ moves.
  std::vector<uint64_t> sids_;
  std::atomic<uint64_t> newest_{0};
  std::atomic<uint64_t> branch_writes_{0};
  uint64_t fork_failures_ = 0;
  // Writers' cached views, by owner (clients 0-1 only).
  std::optional<BranchView> views_[2];
  uint64_t view_idx_[2] = {};
  // The ancestor reader's views, by branch index (client 2 only).
  std::map<uint64_t, BranchView> ancestors_;
  uint64_t seq_[2] = {};
  AckMap acks_[2];
};

}  // namespace

const char* const kWorkloadNames[] = {"point-zipf", "scan-snapshot",
                                      "batch-sync", "branch-whatif"};
const size_t kNumWorkloads = 4;

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "point-zipf") return std::make_unique<PointZipf>();
  if (name == "scan-snapshot") return std::make_unique<ScanSnapshot>();
  if (name == "batch-sync") return std::make_unique<BatchSync>();
  if (name == "branch-whatif") return std::make_unique<BranchWhatIf>();
  return nullptr;
}

}  // namespace perfbench
