// Minuet wall-clock benchmark program.
//
//   minuet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--data-dir <dir>]
//
// --trace 0: sets the workload up three times (setup_s is the median), then
// runs one untraced measured phase and prints the end-to-end metrics.
// --trace 1: sets up once, runs an untraced half and a traced half of the
// same length on the same cluster, and prints the per-layer metrics (from
// the traced half) plus the tracing overhead.
// Both then set up one more cluster for the space phase (a fixed number of
// client ops), from which space_amp and the alloc.* counts come.
// Every metric is printed as "name value unit" and the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// an operation or output check fails.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kClients = 3;
constexpr int kSetups = 3;

// Each measured phase is cut into windows of about this length. ops_s and
// every latency percentile are the median over windows of the per-window
// value, so a stall on a shared machine that covers a minority of the
// windows does not move them. 2 s holds at least 10 samples beyond p99 for
// every op kind of every workload.
constexpr double kWindowSeconds = 2.0;

// Warm-up: windows of a fixed op count until the rate stops rising by more
// than run-to-run noise (about 5% per window on a 4-vCPU Xeon), so most
// set-ups run the same number of windows.
constexpr int kWarmupMinWindows = 3;
constexpr int kWarmupMaxWindows = 8;
constexpr double kWarmupRise = 1.10;

// End-to-end metrics in the JSON line of --trace 0 (BENCHMARK.json
// "end_to_end"); every workload defines all of them.
const char* const kEndToEnd[] = {"ops_s", "write_p50_us", "write_p99_us",
                                 "space_amp", "setup_s"};

// Per-layer metrics in the JSON line of --trace 1 (BENCHMARK.json
// "per_layer"); 0 where the layer does no work on the workload.
const char* const kPerLayer[] = {
    "net.rounds_per_read",
    "net.rounds_per_write",
    "net.rounds_per_scan",
    "net.msgs_per_op",
    "net.hot_node_share",
    "sinfonia.round_us_p50",
    "sinfonia.round_us_p99",
    "sinfonia.round_share",
    "sinfonia.busy_retries_per_op",
    "sinfonia.lock_contended_frac",
    "sinfonia.two_phase_frac",
    "txn.attempts_per_op",
    "txn.useful_frac",
    "txn.aborts.validation_conflict_per_op",
    "txn.aborts.stale_cache_pointer_per_op",
    "txn.aborts.gc_horizon_per_op",
    "txn.cache_hit_rate",
    "btree.proxy_us_per_op",
    "btree.decodes_per_op",
    "btree.traversal_aborts_per_op",
    "btree.cow_copies_per_write",
    "btree.splits_per_kwrite",
    "mvcc.snapshot_us_p50",
    "mvcc.snapshot_us_p99",
    "mvcc.gc_pass_ms",
    "mvcc.gc_scanned_per_pass",
    "mvcc.gc_freed_per_pass",
    "mvcc.horizon_lag",
    "alloc.slabs_per_kwrite",
    "alloc.live_nodes",
    "alloc.orphan_slabs",
    "version.fork_us_p50",
    "version.cow_copies_per_branch_write",
    "wal.appends_per_write",
    "wal.fsyncs_per_write",
    "wal.bytes_per_user_byte",
    "store.checkpoint_ms",
    "store.checkpoint_overlap_write_p99_us",
    "store.replayed_records",
    "store.replay_records_per_s",
    "trace.untraced_ops_s",
    "trace.traced_ops_s",
    "trace.overhead_ratio",
};

// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
template <typename T>
double Percentile(std::vector<T>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  return static_cast<double>((*v)[std::min(v->size() - 1,
                                           rank == 0 ? 0 : rank - 1)]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-client seed for one phase: distinct streams, all from --seed.
uint64_t ClientSeed(uint64_t seed, int phase, int client) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(phase) * 131 +
         static_cast<uint64_t>(client) + 1;
}

struct PhaseResult {
  std::vector<ClientRecord> clients;
  uint64_t start_ns = 0;
  double elapsed_s = 0;

  uint64_t ops() const {
    uint64_t n = 0;
    for (const ClientRecord& c : clients) n += c.ops();
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const ClientRecord& c : clients) n += c.failed;
    return n;
  }
  uint64_t count(OpKind kind) const {
    uint64_t n = 0;
    for (const ClientRecord& c : clients) n += c.samples[kind].size();
    return n;
  }

  // The phase split into equal windows by op completion time.
  size_t windows() const {
    return std::max<size_t>(1, static_cast<size_t>(elapsed_s / kWindowSeconds));
  }
  size_t WindowOf(const OpSample& s) const {
    const double at = (s.start_ns + s.lat_ns - start_ns) / 1e9;
    return std::min(windows() - 1,
                    static_cast<size_t>(at / elapsed_s *
                                        static_cast<double>(windows())));
  }
  // Median over windows of the completed-op rate.
  double ops_s() const {
    std::vector<double> per(windows(), 0);
    for (const ClientRecord& c : clients) {
      for (const auto& kind : c.samples) {
        for (const OpSample& s : kind) per[WindowOf(s)]++;
      }
    }
    for (double& n : per) n /= elapsed_s / static_cast<double>(per.size());
    return Median(per);
  }
  // Median over windows of the q-th latency percentile of `kind`, in ns;
  // windows without such ops are skipped.
  double Latency(OpKind kind, double q) const {
    std::vector<std::vector<uint64_t>> per(windows());
    for (const ClientRecord& c : clients) {
      for (const OpSample& s : c.samples[kind]) {
        per[WindowOf(s)].push_back(s.lat_ns);
      }
    }
    std::vector<double> values;
    for (std::vector<uint64_t>& w : per) {
      if (!w.empty()) values.push_back(Percentile(&w, q));
    }
    return Median(values);
  }
};

// The workload's maintenance thread, if it has one: after every
// maintenance_every() trigger ops one action, at most maintenance_cap() of
// them. After `stop` it catches up on the actions already due, so a phase
// issues exactly min(cap, trigger ops / every) of them however fast it ran.
std::thread StartMaintenance(Workload& w, const std::atomic<bool>& stop) {
  if (w.maintenance_every() == 0) return std::thread();
  return std::thread([&w, &stop] {
    uint64_t next = w.trigger_ops() + w.maintenance_every();
    uint64_t done = 0;
    for (;;) {
      if (done < w.maintenance_cap() && w.trigger_ops() >= next) {
        w.MaintenanceStep();
        done++;
        next += w.maintenance_every();
        continue;
      }
      if (stop.load(std::memory_order_relaxed)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
}

// Warm-up (part of set-up): the whole workload, maintenance included, with
// clients unrecorded, in windows of warmup_window_ops() ops until a window
// is no faster than kWarmupRise x the best one before it. Garbage, forks
// and checkpoints then start the measured phase in their steady state.
void WarmUp(Workload& w, uint64_t seed) {
  const uint32_t n_nodes = w.cluster().fabric()->n_nodes();
  const uint64_t window_ops = w.warmup_window_ops();
  std::atomic<bool> stop{false};
  std::thread maintenance = StartMaintenance(w, stop);
  double prev_rate = 0;
  for (int window = 0; window < kWarmupMaxWindows; window++) {
    std::atomic<uint64_t> issued{0};
    std::vector<std::thread> threads;
    const uint64_t t0 = NowNs();
    for (int c = 0; c < kClients; c++) {
      threads.emplace_back([&, c] {
        ClientCtx ctx(ClientSeed(seed, 100 + window, c));
        ctx.id = c;
        ctx.record = false;
        ctx.n_nodes = n_nodes;
        while (issued.fetch_add(1, std::memory_order_relaxed) <
               window_ops) {
          w.ClientStep(ctx);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double rate = window_ops / ((NowNs() - t0) / 1e9);
    if (window + 1 >= kWarmupMinWindows && rate < prev_rate * kWarmupRise) {
      break;
    }
    prev_rate = std::max(prev_rate, rate);
  }
  stop.store(true);
  if (maintenance.joinable()) maintenance.join();
}

// One measured phase: three closed-loop clients for `seconds`, plus the
// workload's op-count-driven maintenance thread. Elapsed time ends when the
// last client stops, so a maintenance action still running at the stop
// signal is not charged to client throughput.
PhaseResult RunPhase(Workload& w, double seconds, bool traced, uint64_t seed,
                     int phase) {
  PhaseResult result;
  result.clients.resize(kClients);
  const uint32_t n_nodes = w.cluster().fabric()->n_nodes();
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<uint64_t> client_end(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      ClientCtx ctx(ClientSeed(seed, phase, c));
      ctx.id = c;
      ctx.traced = traced;
      ctx.n_nodes = n_nodes;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) w.ClientStep(ctx);
      client_end[c] = NowNs();
      result.clients[c] = std::move(ctx.rec);
    });
  }
  std::thread maintenance = StartMaintenance(w, stop);
  while (ready.load() < kClients) std::this_thread::yield();
  const uint64_t t0 = NowNs();
  result.start_ns = t0;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(seconds * 1e6)));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  if (maintenance.joinable()) maintenance.join();
  const uint64_t t1 = *std::max_element(client_end.begin(), client_end.end());
  result.elapsed_s = (t1 - t0) / 1e9;
  return result;
}

// The space phase: client `c` runs exactly w.space_ops(c) ops, unrecorded,
// beside the op-count-driven maintenance thread. Returns {ops, failed}.
std::pair<uint64_t, uint64_t> RunFixedOps(Workload& w, uint64_t seed) {
  const uint32_t n_nodes = w.cluster().fabric()->n_nodes();
  std::atomic<bool> stop{false};
  std::thread maintenance = StartMaintenance(w, stop);
  std::vector<uint64_t> failed(kClients, 0);
  std::vector<std::thread> threads;
  uint64_t ops = 0;
  for (int c = 0; c < kClients; c++) {
    ops += w.space_ops(c);
    threads.emplace_back([&, c] {
      ClientCtx ctx(ClientSeed(seed, 200, c));
      ctx.id = c;
      ctx.record = false;
      ctx.n_nodes = n_nodes;
      for (uint64_t i = 0; i < w.space_ops(c); i++) w.ClientStep(ctx);
      failed[c] = ctx.rec.failed;
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  if (maintenance.joinable()) maintenance.join();
  uint64_t f = 0;
  for (uint64_t n : failed) f += n;
  return {ops, f};
}

void Put(MetricMap* m, const std::string& name, double value,
         const std::string& unit) {
  (*m)[name] = Metric{value, unit};
}

// End-to-end latency and throughput of one untraced phase.
void EndToEnd(const PhaseResult& ph, MetricMap* m) {
  Put(m, "ops_s", ph.ops_s(), "ops/s");
  Put(m, "windows", static_cast<double>(ph.windows()), "count");
  const char* names[kNumKinds] = {"read", "write", "scan"};
  for (int k = 0; k < kNumKinds; k++) {
    const OpKind kind = static_cast<OpKind>(k);
    if (ph.count(kind) == 0) continue;
    const std::string n = names[k];
    Put(m, n + "_samples", static_cast<double>(ph.count(kind)), "count");
    Put(m, n + "_p50_us", ph.Latency(kind, 0.50) / 1e3, "us");
    Put(m, n + "_p99_us", ph.Latency(kind, 0.99) / 1e3, "us");
  }
}

// Per-layer metrics of one traced phase, from the per-op traces and the
// registry deltas around the phase.
void PerLayer(const PhaseResult& ph, const Counters& before,
              const Counters& after, Workload& w, MetricMap* m) {
  uint64_t kind_ops[kNumKinds] = {}, rounds[kNumKinds] = {};
  uint64_t messages = 0, op_wall = 0, round_wall = 0, ok = 0;
  std::vector<uint64_t> per_node, round_ns, snapshot_ns;
  for (const ClientRecord& c : ph.clients) {
    for (int k = 0; k < kNumKinds; k++) {
      kind_ops[k] += c.traced_ops[k];
      rounds[k] += c.rounds[k];
    }
    messages += c.messages;
    op_wall += c.op_wall_ns;
    round_wall += c.round_wall_ns;
    ok += c.ok;
    if (per_node.size() < c.per_node_msgs.size()) {
      per_node.resize(c.per_node_msgs.size(), 0);
    }
    for (size_t i = 0; i < c.per_node_msgs.size(); i++) {
      per_node[i] += c.per_node_msgs[i];
    }
    round_ns.insert(round_ns.end(), c.round_ns.begin(), c.round_ns.end());
    snapshot_ns.insert(snapshot_ns.end(), c.snapshot_ns.begin(),
                       c.snapshot_ns.end());
  }
  const double ops = static_cast<double>(ph.ops());
  const double writes = static_cast<double>(kind_ops[kWrite]);
  auto delta = [&](const std::string& prefix, const std::string& suffix) {
    return static_cast<double>(DeltaSum(before, after, prefix, suffix));
  };
  auto d = [&](const std::string& name) { return delta(name, ""); };

  Put(m, "net.rounds_per_read", Ratio(rounds[kRead], kind_ops[kRead]), "1");
  Put(m, "net.rounds_per_write", Ratio(rounds[kWrite], kind_ops[kWrite]),
      "1");
  Put(m, "net.rounds_per_scan", Ratio(rounds[kScan], kind_ops[kScan]), "1");
  Put(m, "net.msgs_per_op", Ratio(messages, ops), "1");
  uint64_t hottest = 0, total = 0;
  for (uint64_t n : per_node) {
    hottest = std::max(hottest, n);
    total += n;
  }
  Put(m, "net.hot_node_share", Ratio(hottest, total), "1");

  Put(m, "sinfonia.round_us_p50", Percentile(&round_ns, 0.50) / 1e3, "us");
  Put(m, "sinfonia.round_us_p99", Percentile(&round_ns, 0.99) / 1e3, "us");
  Put(m, "sinfonia.round_share", Ratio(round_wall, op_wall), "1");
  Put(m, "sinfonia.busy_retries_per_op",
      Ratio(d("coordinator.busy_retries"), ops), "1");
  Put(m, "sinfonia.lock_contended_frac",
      Ratio(delta("memnode", ".locks.total.contended"),
            delta("memnode", ".locks.total.acquires")),
      "1");
  // Per dispatch attempt: busy retries re-dispatch, so executions (counted
  // once per minitransaction) would let this exceed 1.
  const double two_phase = d("coordinator.two_phase");
  Put(m, "sinfonia.two_phase_frac",
      Ratio(two_phase, two_phase + d("coordinator.one_phase")), "1");

  const double attempts = d("txn.attempts");
  Put(m, "txn.attempts_per_op", Ratio(attempts, ops), "1");
  Put(m, "txn.useful_frac", Ratio(static_cast<double>(ok), attempts), "1");
  for (const char* r :
       {"validation_conflict", "stale_cache_pointer", "gc_horizon"}) {
    Put(m, std::string("txn.aborts.") + r + "_per_op",
        Ratio(d(std::string("txn.aborts.") + r), ops), "1");
  }
  const double hits = delta("proxy", ".cache.hits");
  Put(m, "txn.cache_hit_rate",
      Ratio(hits, hits + delta("proxy", ".cache.misses")), "1");

  Put(m, "btree.proxy_us_per_op",
      Ratio(static_cast<double>(op_wall - std::min(op_wall, round_wall)),
            ops) / 1e3,
      "us");
  Put(m, "btree.decodes_per_op", Ratio(d("btree.node_decodes"), ops), "1");
  Put(m, "btree.traversal_aborts_per_op",
      Ratio(delta("tree", ".traversal_aborts"), ops), "1");
  const double cow = delta("tree", ".cow_copies");
  Put(m, "btree.cow_copies_per_write", Ratio(cow, writes), "1");
  Put(m, "btree.splits_per_kwrite",
      1000 * Ratio(delta("tree", ".splits"), writes), "1");

  Put(m, "mvcc.snapshot_us_p50", Percentile(&snapshot_ns, 0.50) / 1e3, "us");
  Put(m, "mvcc.snapshot_us_p99", Percentile(&snapshot_ns, 0.99) / 1e3, "us");
  Workload::MaintenanceLog& log = w.maintenance_log();
  Put(m, "mvcc.gc_pass_ms", Percentile(&log.gc_pass_ms, 0.5), "ms");
  Put(m, "mvcc.gc_scanned_per_pass", Mean(log.gc_scanned), "count");
  Put(m, "mvcc.gc_freed_per_pass", Mean(log.gc_freed), "count");
  auto lag = after.find("tree0.snapshots.horizon_lag");
  Put(m, "mvcc.horizon_lag",
      lag == after.end() || w.branching() ? 0
                                          : static_cast<double>(lag->second),
      "count");

  Put(m, "version.fork_us_p50", Percentile(&log.fork_us, 0.5), "us");
  Put(m, "version.cow_copies_per_branch_write",
      w.branching() ? Ratio(cow, writes) : 0, "1");

  const double user_bytes_written =
      writes * static_cast<double>(w.keys_per_write()) * kUserBytesPerKey;
  Put(m, "wal.appends_per_write", Ratio(delta("memnode", ".wal.appends"),
                                        writes), "1");
  Put(m, "wal.fsyncs_per_write", Ratio(delta("memnode", ".wal.fsyncs"),
                                       writes), "1");
  Put(m, "wal.bytes_per_user_byte",
      Ratio(delta("memnode", ".wal.append_bytes"), user_bytes_written), "1");

  Put(m, "store.checkpoint_ms", Percentile(&log.checkpoint_ms, 0.5), "ms");
  std::vector<uint64_t> overlap;
  for (const ClientRecord& c : ph.clients) {
    for (const OpSample& s : c.samples[kWrite]) {
      for (const auto& [c0, c1] : log.checkpoint_windows) {
        if (s.start_ns < c1 && s.start_ns + s.lat_ns > c0) {
          overlap.push_back(s.lat_ns);
          break;
        }
      }
    }
  }
  Put(m, "store.checkpoint_overlap_write_p99_us",
      Percentile(&overlap, 0.99) / 1e3, "us");
}

int Usage() {
  std::fprintf(stderr,
               "usage: minuet_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>]\n"
               "workloads:");
  for (size_t i = 0; i < kNumWorkloads; i++) {
    std::fprintf(stderr, " %s", kWorkloadNames[i]);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

int Main(int argc, char** argv) {
  std::string workload;
  Config config;
  std::string data_root = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(val);
    } else if (flag == "--trace") {
      config.trace = std::atoi(val) != 0;
    } else if (flag == "--data-dir") {
      data_root = val;
    } else {
      return Usage();
    }
  }
  if (MakeWorkload(workload) == nullptr || config.seconds <= 0) {
    return Usage();
  }

  // Set-up (cluster construction, preload, warm-up), repeated for the
  // median; the last set-up's cluster is the one measured. Durable
  // workloads get a fresh data directory per set-up.
  namespace fs = std::filesystem;
  const fs::path data_base =
      fs::path(data_root) / ("perfbench-" + workload + "-" +
                             std::to_string(config.seed));
  const int setups = config.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int s = 0; s < setups; s++) {
    w.reset();
    std::error_code ec;
    fs::remove_all(data_base, ec);
    config.data_dir = (data_base / ("s" + std::to_string(s))).string();
    std::unique_ptr<Workload> next = MakeWorkload(workload);
    const uint64_t t0 = NowNs();
    minuet::Status st = next->Setup(config);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    WarmUp(*next, config.seed);
    setup_s.push_back((NowNs() - t0) / 1e9);
    w = std::move(next);
  }

  MetricMap metrics;
  Put(&metrics, "setup_s", Percentile(&setup_s, 0.5), "s");
  uint64_t attempted = 0, failed = 0;
  if (!config.trace) {
    PhaseResult ph = RunPhase(*w, config.seconds, false, config.seed, 0);
    EndToEnd(ph, &metrics);
    attempted += ph.ops();
    failed += ph.failed();
  } else {
    const double half = config.seconds / 2;
    PhaseResult plain = RunPhase(*w, half, false, config.seed, 0);
    w->maintenance_log() = Workload::MaintenanceLog();
    const Counters before = ReadCounters(w->cluster());
    const uint64_t slabs0 = w->cluster().allocator()->allocated_count();
    PhaseResult traced = RunPhase(*w, half, true, config.seed, 1);
    const Counters after = ReadCounters(w->cluster());
    const uint64_t slabs1 = w->cluster().allocator()->allocated_count();
    PerLayer(traced, before, after, *w, &metrics);
    uint64_t writes = 0;
    for (const ClientRecord& c : traced.clients) {
      writes += c.traced_ops[kWrite];
    }
    Put(&metrics, "alloc.slabs_per_kwrite",
        1000 * Ratio(static_cast<double>(slabs1 - slabs0),
                     static_cast<double>(writes)),
        "1");
    Put(&metrics, "trace.untraced_ops_s", plain.ops_s(), "ops/s");
    Put(&metrics, "trace.traced_ops_s", traced.ops_s(), "ops/s");
    Put(&metrics, "trace.overhead_ratio",
        Ratio(plain.ops_s(), traced.ops_s()), "1");
    EndToEnd(plain, &metrics);  // end-to-end numbers are never traced
    attempted += plain.ops() + traced.ops();
    failed += plain.failed() + traced.failed();
  }

  // Output checks of the measured cluster.
  const uint64_t check_failures = w->FinalChecks(&metrics);
  for (const char* c : {"check.final_values", "check.recovered_values"}) {
    auto it = metrics.find(c);
    if (it != metrics.end()) {
      attempted += static_cast<uint64_t>(it->second.value);
    }
  }
  failed += check_failures;
  w.reset();

  // Space is read on a cluster of its own after a fixed amount of work, so
  // it does not follow how much work the measured phase got through: set
  // up without warm-up, run the space phase, then the fixed-point GC.
  config.data_dir = (data_base / "space").string();
  w = MakeWorkload(workload);
  const minuet::Status space_setup = w->Setup(config);
  if (!space_setup.ok()) {
    std::fprintf(stderr, "space set-up failed: %s\n",
                 space_setup.ToString().c_str());
    return 1;
  }
  const auto [space_ops, space_failed] = RunFixedOps(*w, config.seed);
  attempted += space_ops;
  failed += space_failed;
  const SpaceReport space = w->Space();
  Put(&metrics, "space_amp", space.space_amp, "1");
  Put(&metrics, "alloc.live_slabs", static_cast<double>(space.live_slabs),
      "count");
  Put(&metrics, "alloc.live_nodes", static_cast<double>(space.live_nodes),
      "count");
  Put(&metrics, "alloc.orphan_slabs", static_cast<double>(space.orphan_slabs),
      "count");
  Put(&metrics, "mvcc.fixed_point_gc_passes",
      static_cast<double>(space.gc_passes), "count");
  Put(&metrics, "fail_frac",
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "1");
  if (metrics.count("recover_s") == 0) {
    Put(&metrics, "store.replayed_records", 0, "count");
    Put(&metrics, "store.replay_records_per_s", 0, "1/s");
  }
  w.reset();
  std::error_code ec;
  fs::remove_all(data_base, ec);

  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
              workload.c_str(), config.seed, config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [name, metric] : metrics) {
    std::printf("%-42s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  auto emit = [&](const char* name) {
    const Metric& mm = metrics.at(name);
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name);
    PrintJsonNumber(mm.value);
    std::printf(", \"unit\": \"%s\"}", mm.unit.c_str());
    first = false;
  };
  if (config.trace) {
    for (const char* n : kPerLayer) emit(n);
  } else {
    for (const char* n : kEndToEnd) emit(n);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
