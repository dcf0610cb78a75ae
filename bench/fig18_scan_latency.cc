// Figure 18: scan latency vs. snapshot interval k at 15 hosts, with and
// without a concurrent update workload. Expected shape: with updates the
// latency is a shallow curve — small k adds snapshot-creation and
// copy-on-write work, large k hands more memnode capacity to updates —
// and stays within ~1.4x of the no-update latency, showing snapshots
// isolate scans from the OLTP stream.
//
// Extension of the paper: the paper's scans read one leaf per round; here
// each cursor chunk reads all its leaves in one batched round
// (BTree::WalkRange), which lowers both latency columns. The saved rounds
// are a larger share of the no-update latency, so the ratio rises.
#include "bench/harness/setup.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint32_t kMachines = 15;
  constexpr uint64_t kPreload = 20000;
  constexpr uint32_t kThreads = 5;  // 1 scan + 4 update
  constexpr double kTimeScale = 20.0;  // see Fig. 17 note
  CostModel model;

  PrintHeader("Figure 18: scan latency vs. k (15 hosts)",
              "paper_k_s  scan_ms_with_updates  scan_ms_no_updates  ratio");

  for (double paper_k : {0.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0}) {
    double latency[2] = {0, 0};
    for (int with_updates = 1; with_updates >= 0; with_updates--) {
      auto cluster =
          MakeCluster(kMachines, true, paper_k / kTimeScale);
      SharedVirtualClock vclock(kThreads);
      cluster->set_snapshot_clock(vclock.AsClock());
      auto tree = cluster->CreateTree();
      if (!tree.ok()) std::abort();
      Preload(*cluster, *tree, kPreload);

      RunOptions ropts;
      ropts.n_nodes = kMachines;
      ropts.threads = with_updates ? kThreads : 1;
      ropts.ops_per_thread = 1u << 20;
      ropts.virtual_deadline_s = 0.6;
      std::vector<Rng> rngs;
      for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(t + 41);

      auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
        Proxy& proxy = cluster->proxy(ctx.thread % kMachines);
        Rng& rng = rngs[ctx.thread];
        Status st;
        if (ctx.thread == 0) {
          // k-policy snapshot view scan (Proxy::Scan sugar).
          std::vector<std::pair<std::string, std::string>> rows;
          st = proxy.Scan(*tree, EncodeUserKey(0), kPreload / 10, &rows);
        } else {
          st = proxy.Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                         EncodeValue(rng.Next()));
        }
        if (net::OpTrace* tr = net::Fabric::ThreadTrace()) {
          vclock.Advance(model.OpLatencyMs(*tr) / 1000.0);
        }
        return st;
      });
      const Aggregate scans = out.ThreadRange(0, 1);
      // Scan latency: the k-dependence (snapshot creation amortization,
      // copy-on-write interference, retries) is in the measured traces;
      // with updates running, the memnode service component additionally
      // queues behind the update stream (80% operating point → 1/(1-0.8)
      // inflation of service time, M/M/1).
      double lat = model.proxy_ms + scans.mean_rounds() * model.rtt_ms +
                   scans.mean_msgs() * model.service_ms *
                       (with_updates ? 5.0 : 1.0);
      latency[with_updates] = std::max(lat, scans.mean_latency_ms());
    }
    std::printf("%9.0f  %20.2f  %18.2f  %5.2f\n", paper_k, latency[1],
                latency[0], latency[1] / std::max(1e-9, latency[0]));
  }
  return 0;
}
