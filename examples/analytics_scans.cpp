// In-situ analytics (the paper's §1 motivation): a live OLTP stream of
// order updates runs concurrently with long analytical scans. The scans
// execute against copy-on-write snapshots, so they see a consistent view
// and never abort, while the OLTP stream keeps committing.
//
// Also demonstrates the stale-snapshot policy (k): analytics that tolerate
// k seconds of staleness share snapshots instead of creating one each.
//
//   $ ./build/examples/analytics_scans
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"

int main() {
  using namespace minuet;

  ClusterOptions options;
  options.machines = 4;
  options.snapshot_min_interval_seconds = 0.05;  // analytics may lag 50 ms
  Cluster cluster(options);
  auto tree = cluster.CreateTree();
  if (!tree.ok()) return 1;

  // Seed the operational state: 5000 orders with amounts, loaded as one
  // stream of batched writes (each batch commits atomically).
  constexpr uint64_t kOrders = 5000;
  constexpr uint64_t kBatch = 16;
  for (uint64_t i = 0; i < kOrders; i += kBatch) {
    WriteBatch batch;
    for (uint64_t j = i; j < std::min(kOrders, i + kBatch); j++) {
      batch.Put(*tree, EncodeUserKey(j), EncodeValue(100 + j % 50));
    }
    if (!cluster.proxy(0).Apply(batch).ok()) return 1;
  }

  // OLTP: two writer threads keep mutating order amounts.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> oltp_ops{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      TipView tip = cluster.proxy(1 + w).Tip(*tree);
      Rng rng(w + 1);
      while (!stop) {
        if (tip.Put(EncodeUserKey(rng.Uniform(kOrders)),
                    EncodeValue(100 + rng.Uniform(1000)))
                .ok()) {
          oltp_ops++;
        }
      }
    });
  }

  // Analytics: full-table aggregation over snapshots, repeatedly. Each scan
  // sees ALL orders exactly once (a consistent snapshot), even though the
  // table churns underneath.
  Proxy& analyst = cluster.proxy(0);
  for (int round = 0; round < 5; round++) {
    auto view = analyst.RecentSnapshot(*tree);
    if (!view.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   view.status().ToString().c_str());
      stop = true;
      for (auto& t : writers) t.join();
      return 1;
    }
    // Stream the table through a cursor — constant memory, and the view's
    // GC lease means even a long scan cannot be overtaken by the horizon.
    // (Unpinned wraps — Proxy::ViewAt — would pass refresh_lease instead.)
    uint64_t revenue = 0, orders = 0;
    auto cur = view->NewCursor(EncodeUserKey(0));
    for (; cur->Valid(); cur->Next()) {
      revenue += DecodeValue(cur->value());
      orders++;
    }
    if (!cur->status().ok()) {
      std::fprintf(stderr, "scan: %s\n", cur->status().ToString().c_str());
      stop = true;
      for (auto& t : writers) t.join();
      return 1;
    }
    std::printf(
        "analytics round %d: %llu orders, total amount %llu "
        "(OLTP ops so far: %llu)\n",
        round, static_cast<unsigned long long>(orders),
        static_cast<unsigned long long>(revenue),
        static_cast<unsigned long long>(oltp_ops.load()));
    if (orders != kOrders) {
      std::fprintf(stderr, "INCONSISTENT SNAPSHOT!\n");
      stop = true;
      for (auto& t : writers) t.join();
      return 1;
    }
  }
  stop = true;
  for (auto& t : writers) t.join();

  auto* scs = cluster.snapshot_service(*tree);
  std::printf("snapshots created: %llu, borrowed: %llu, stale reuses: %llu\n",
              static_cast<unsigned long long>(scs->snapshots_created()),
              static_cast<unsigned long long>(scs->snapshots_borrowed()),
              static_cast<unsigned long long>(scs->stale_reuses()));

  // Housekeeping: reclaim nodes only reachable from retired snapshots.
  auto report = cluster.CollectGarbage(*tree);
  if (report.ok()) {
    std::printf("gc: scanned %llu slabs, freed %llu\n",
                static_cast<unsigned long long>(report->scanned),
                static_cast<unsigned long long>(report->freed));
  }
  return 0;
}
