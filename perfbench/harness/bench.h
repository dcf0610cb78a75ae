// Shared plumbing of the Minuet wall-clock benchmark: key/value encoding,
// per-client recorders (latency samples plus, in the traced run, per-op
// OpTrace/TraceContext tallies), registry snapshots, and the Workload
// interface the four workloads implement.
//
// The harness links the library and drives it only through its public
// surface (Cluster, Proxy, views, WriteBatch, Cursor, the maintenance entry
// points, NodeAllocator::MetaLiveSlabs, Fabric::SetThreadTrace,
// obs::ScopedTrace and MetricsRegistry::Snapshot).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "minuet/cluster.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// 14-byte keys: "k" + 13 decimal digits, so key order is id order.
std::string Key(uint64_t id);
// Inverse of Key(); false when `key` is not a benchmark key.
bool ParseKey(const std::string& key, uint64_t* id);

// 8-byte values carrying their own provenance, so every read can be checked
// without a side table: [63:56] writer (kPreloadWriter for preload),
// [55:40] branch index, [39:0] sequence (the key id for preload values).
constexpr uint64_t kPreloadWriter = 0xFF;
uint64_t Tag(uint64_t writer, uint64_t branch, uint64_t seq);
inline uint64_t TagWriter(uint64_t tag) { return tag >> 56; }
inline uint64_t TagBranch(uint64_t tag) { return (tag >> 40) & 0xFFFF; }
inline uint64_t TagSeq(uint64_t tag) { return tag & ((1ULL << 40) - 1); }
std::string Value(uint64_t tag);
bool ParseValue(const std::string& value, uint64_t* tag);

// Bytes one user record occupies (14-byte key + 8-byte value): the
// denominator of space_amp and wal.bytes_per_user_byte.
constexpr double kUserBytesPerKey = 22.0;

enum OpKind { kRead = 0, kWrite = 1, kScan = 2, kNumKinds = 3 };

// One timed client op.
struct OpSample {
  uint64_t start_ns;
  uint64_t lat_ns;
};

// One client's tallies for one phase. Written only by its own thread;
// read by the main thread after the join.
struct ClientRecord {
  std::vector<OpSample> samples[kNumKinds];
  uint64_t ok = 0;
  uint64_t failed = 0;  // bad status or failed output check
  std::vector<uint64_t> snapshot_ns;  // timed Proxy::Snapshot calls

  // Traced run only.
  uint64_t traced_ops[kNumKinds] = {};
  uint64_t rounds[kNumKinds] = {};
  uint64_t messages = 0;
  uint64_t op_wall_ns = 0;
  uint64_t round_wall_ns = 0;
  std::vector<uint64_t> per_node_msgs;
  std::vector<uint64_t> round_ns;

  uint64_t ops() const {
    return samples[kRead].size() + samples[kWrite].size() +
           samples[kScan].size();
  }
};

// Per-thread context a workload's client step runs in.
struct ClientCtx {
  int id = 0;
  minuet::Rng rng;
  bool traced = false;
  bool record = true;  // false during warm-up
  uint32_t n_nodes = 0;
  ClientRecord rec;
  // Armed per op in the traced run.
  minuet::net::OpTrace op_trace;
  minuet::obs::TraceContext trace_ctx;

  explicit ClientCtx(uint64_t seed) : rng(seed) {}

  // Count a failure (bad status or failed check); prints the first few.
  void Fail(const std::string& what);

  // Run `op` as one client operation of `kind`: time it, arm the per-op
  // traces when traced, and count it ok/failed by its status (NotFound is
  // a valid answer; the workload checks presence itself).
  template <typename F>
  minuet::Status Timed(OpKind kind, F&& op) {
    if (traced) {
      op_trace.Reset(n_nodes);
      trace_ctx.Clear();
      minuet::net::Fabric::SetThreadTrace(&op_trace);
    }
    minuet::Status st;
    const uint64_t t0 = NowNs();
    if (traced) {
      minuet::obs::ScopedTrace scope(&trace_ctx);
      st = op();
    } else {
      st = op();
    }
    const uint64_t t1 = NowNs();
    if (traced) {
      minuet::net::Fabric::SetThreadTrace(nullptr);
      if (record) Accumulate(kind, t1 - t0);
    }
    if (record) rec.samples[kind].push_back({t0, t1 - t0});
    if (st.ok() || st.IsNotFound()) {
      if (record) rec.ok++;
    } else {
      Fail(std::string("op status ") + st.ToString());
    }
    return st;
  }

 private:
  void Accumulate(OpKind kind, uint64_t wall_ns);
};

// Registry snapshot flattened to "subsystem.name" -> value (counters and
// gauges only).
using Counters = std::map<std::string, int64_t>;
Counters ReadCounters(const minuet::Cluster& cluster);
// Sum of (after - before) over every key matching `prefix*suffix`.
int64_t DeltaSum(const Counters& before, const Counters& after,
                 const std::string& prefix, const std::string& suffix);

// Metrics a workload reports: name -> (value, unit).
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct Config {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  // durable workloads put their WAL/images here
};

// Space accounting after the fixed-point GC procedure.
struct SpaceReport {
  double space_amp = 0;
  uint64_t live_slabs = 0;
  uint64_t live_nodes = 0;  // GC skipped_live at the fixed point
  uint64_t orphan_slabs = 0;
  uint64_t gc_passes = 0;
};

// A workload: three closed-loop clients (each bound to proxy `id`), an
// optional maintenance thread (proxy 3) driven by client op counts, and the
// end-of-run checks. main.cc owns threads and timing.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;

  // Build the cluster and preload it (single-threaded, deterministic).
  virtual minuet::Status Setup(const Config& config) = 0;
  minuet::Cluster& cluster() { return *cluster_; }
  bool branching() const { return tree_.branching(); }
  // User keys one write op carries (a WriteBatch carries several).
  virtual uint64_t keys_per_write() const { return 1; }

  // One client operation. Must record exactly one op via ctx.Timed.
  virtual void ClientStep(ClientCtx& ctx) = 0;
  // Ops per warm-up window (about 0.3 s of client work).
  virtual uint64_t warmup_window_ops() const = 0;
  // Ops client `client` runs in the space phase, a fixed amount of work
  // after which space is read (see main.cc).
  virtual uint64_t space_ops(int client) const = 0;

  // Client-op count the maintenance thread keys off (scans, batches,
  // branch writes); maintenance_every() == 0 means no maintenance thread.
  virtual uint64_t trigger_ops() const { return 0; }
  virtual uint64_t maintenance_every() const { return 0; }
  virtual uint64_t maintenance_cap() const { return 0; }
  // One maintenance action; records its own timing in maintenance_log().
  virtual void MaintenanceStep() {}

  // After the measured phase, with clients stopped: output checks (return
  // the number of failed checks), then workload-specific end metrics.
  virtual uint64_t FinalChecks(MetricMap* out) = 0;
  // Fixed-point space accounting (see SpaceAfterFixedPointGc).
  virtual SpaceReport Space();

  // Timings MaintenanceStep records; the traced run clears them before
  // its traced half.
  struct MaintenanceLog {
    std::vector<double> gc_pass_ms, gc_scanned, gc_freed;
    std::vector<double> checkpoint_ms;
    std::vector<std::pair<uint64_t, uint64_t>> checkpoint_windows;
    std::vector<double> fork_us;
  };
  MaintenanceLog& maintenance_log() { return log_; }

  // Keys the workload preloaded (space_amp denominator).
  virtual uint64_t n_keys() const = 0;

 protected:
  // Fresh snapshots flush the retained window, then GC passes run until
  // one frees nothing; space is read from the allocator metadata.
  SpaceReport SpaceAfterFixedPointGc(bool durable);
  uint64_t LiveSlabs();
  // A cluster with `opts` and one tree.
  minuet::Status Build(bool branching, const minuet::ClusterOptions& opts);
  // Preload ids [0, n) in fixed-size batches through proxy 0, with
  // preload values; `branch` < 0 for a linear tree.
  minuet::Status Preload(uint64_t n, int64_t branch);

  std::unique_ptr<minuet::Cluster> cluster_;
  minuet::TreeHandle tree_;
  MaintenanceLog log_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
extern const char* const kWorkloadNames[];
extern const size_t kNumWorkloads;

}  // namespace perfbench
