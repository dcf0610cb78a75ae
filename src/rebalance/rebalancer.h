// The rebalancer: Minuet's answer to load skew and elastic scale-out.
//
// The paper's allocator "decides the placement of B-tree nodes in a way
// that balances load" (§2.3) — but placement only balances what is
// allocated AFTER the decision. When memnodes join a hot cluster
// (Cluster::AddMemnode) or a workload's write skew piles slabs onto a few
// nodes, the existing population must MOVE. The rebalancer is the
// background subsystem that moves it:
//
//   1. It measures occupancy per memnode as the number of tip-reachable
//      B-tree nodes homed there (BTree::CollectTipPlacement — the slabs
//      that actually serve traffic; snapshot-only slabs die to the GC on
//      their own).
//   2. It pairs overloaded donors with underloaded receivers around the
//      mean and live-migrates individual slabs with ordinary
//      minitransactions (BTree::MigrateNode): copy to the receiver, record
//      the copy, swing the parent pointer. Readers and writers keep
//      running; snapshots below the migration sid keep reading the source
//      slab until the MVCC GC reclaims it past the horizon.
//   3. It drives a GC pass afterwards so reclaimed sources return to the
//      allocator free lists promptly.
//
// It is also the muscle of elastic scale-IN. The pass is lifecycle-aware:
// a memnode that NodeAllocator::BeginDrain marked drain-only is an
// unconditional donor that must empty, its moves do not spend the
// per-round budget, and only ACTIVE memnodes are eligible receivers.
// Phase 2 of Cluster::RemoveMemnode is therefore just RunUntilBalanced
// (add → rebalance → drain → retire; see docs/ARCHITECTURE.md), and a
// background rebalancer running concurrently with a removal helps it
// along instead of fighting it.
//
// Run it as a per-cluster background thread (Start/Stop, like a GC
// daemon), or synchronously (RunOnce / RunUntilBalanced) from tests and
// benchmarks.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace minuet {
class Cluster;
}  // namespace minuet

namespace minuet::rebalance {

struct Options {
  // A memnode is a donor when its tip-reachable slab count exceeds
  // mean * imbalance_ratio, a receiver while below the mean; the cluster
  // counts as balanced when no memnode exceeds the donor threshold. Must
  // be > 1; the acceptance bar of "within 2x of ideal" corresponds to 2.0,
  // and the default converges comfortably inside it.
  double imbalance_ratio = 1.5;
  // Cap on balancing migrations per round (bounds the write burst a round
  // may inject into a busy cluster). Moves off a draining memnode are not
  // capped: a drain must reach zero.
  uint32_t max_moves_per_round = 256;
  // Background thread cadence.
  std::chrono::milliseconds interval{100};
};

class Rebalancer {
 public:
  struct RoundReport {
    uint64_t trees = 0;       // linear trees inspected
    uint64_t planned = 0;     // moves the pairing selected
    uint64_t migrated = 0;    // moves that committed
    uint64_t skipped = 0;     // stale placements (node moved under us)
    uint64_t gc_freed = 0;    // slabs reclaimed by the follow-up GC pass
    bool balanced = false;    // no donor exceeded the threshold this round
  };

  explicit Rebalancer(Cluster* cluster) : Rebalancer(cluster, Options()) {}
  Rebalancer(Cluster* cluster, Options options);
  ~Rebalancer();  // stops the background thread

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  // One synchronous pass over every linear tree. A round that migrated
  // slabs ends with one GC pass per linear tree, so donor slabs whose
  // migration sid has passed the snapshot horizon return to the free lists
  // immediately. `balanced` stays false while a draining memnode still
  // holds a tip slab.
  Result<RoundReport> RunOnce();

  // Run rounds until one reports balanced (returns the number of slabs
  // migrated overall) or the round budget runs out (Aborted). With a
  // draining memnode, a balanced round means the drain is done.
  Result<uint64_t> RunUntilBalanced(uint32_t max_rounds = 64);

  // Background mode. Start is idempotent; Stop joins the thread.
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  uint64_t total_migrated() const {
    return total_migrated_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

 private:
  void Loop();

  Cluster* cluster_;
  Options options_;
  std::atomic<bool> running_{false};
  // The daemon naps on stop_cv_ between rounds, so Stop() interrupts the
  // cadence wait instead of polling (see the sleep-in-src invariant).
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // guarded by stop_mu_
  std::thread thread_;
  std::atomic<uint64_t> total_migrated_{0};  // lint:allow(metrics): single writer, linked as gauge
};

}  // namespace minuet::rebalance
