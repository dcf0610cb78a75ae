// Figure 16: scalability of long scans (1 M keys in the paper, scaled to
// the full tree here) with k=30 s between snapshots, 80% update / 20% scan
// clients. Expected shape: keys scanned per second grows almost perfectly
// linearly with machine count — the 30 s snapshot interval keeps snapshot
// creation off the critical path.
//
// Extension of the paper: the paper's scans read one leaf per round; here
// each cursor chunk reads all its leaves in one batched round
// (BTree::WalkRange), so a scan takes fewer rounds and reads lower modeled
// latency. Its messages stay about one per leaf, and the capacity bound
// below is message-driven, so the figure's throughput barely moves.
#include "bench/harness/setup.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint64_t kPreload = 20000;
  constexpr uint32_t kThreads = 5;  // 1 scan, 4 update (20% / 80%)
  constexpr uint32_t kScanThreads = 1;
  CostModel model;

  PrintHeader("Figure 16: scan throughput vs. scale (k=30s, scan=whole tree)",
              "machines  mkeys_scanned_s");
  for (uint32_t machines : {5, 15, 25, 35}) {
    auto cluster = MakeCluster(machines, true, /*k=*/30.0);
    SharedVirtualClock vclock(kThreads);
    cluster->set_snapshot_clock(vclock.AsClock());
    auto tree = cluster->CreateTree();
    if (!tree.ok()) std::abort();
    Preload(*cluster, *tree, kPreload);

    RunOptions ropts;
    ropts.n_nodes = machines;
    ropts.threads = kThreads;
    ropts.ops_per_thread = 1u << 20;
    ropts.virtual_deadline_s = 0.6;
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(t + 21);

    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Proxy& proxy = cluster->proxy(ctx.thread % machines);
      Rng& rng = rngs[ctx.thread];
      Status st;
      if (ctx.thread < kScanThreads) {
        // A policy-acquired snapshot view scan (materialized, like the
        // paper's range queries): the k=30s interval keeps snapshot
        // creation off the critical path.
        auto view = proxy.RecentSnapshot(*tree);
        if (!view.ok()) {
          st = view.status();
        } else {
          std::vector<std::pair<std::string, std::string>> rows;
          st = view->Scan(EncodeUserKey(0), kPreload, &rows);
        }
      } else {
        st = proxy.Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                       EncodeValue(rng.Next()));
      }
      // Keep the shared clock moving so the k-policy sees time advance.
      if (net::OpTrace* tr = net::Fabric::ThreadTrace()) {
        vclock.Advance(model.OpLatencyMs(*tr) / 1000.0);
      }
      return st;
    });

    const Aggregate scans = out.ThreadRange(0, kScanThreads);
    if (scans.ops == 0) {
      std::printf("%8u  %15s\n", machines, "n/a");
      continue;
    }
    // keys/s per scan client, scaled to 20% of the machines' client pool.
    const double keys_per_scan = static_cast<double>(kPreload);
    const double scan_latency_s = scans.mean_latency_ms() / 1000.0;
    const double scan_clients = machines * model.clients_per_machine * 0.2;
    const double demand =
        scan_clients * keys_per_scan / scan_latency_s;
    // Capacity: a leaf batch sends one message per memnode it reads from,
    // about one message per ~entries-per-leaf keys.
    const double msgs_per_key = scans.mean_msgs() / keys_per_scan;
    const double cap =
        machines * model.MemnodeCapacity() / msgs_per_key * 0.2;
    const double keys_s = std::min(demand, cap);
    std::printf("%8u  %15.2f\n", machines, keys_s / 1e6);
    PrintAudit("scan", scans);
  }
  return 0;
}
