#include "rebalance/rebalancer.h"

#include <algorithm>
#include <vector>

#include "minuet/cluster.h"

namespace minuet::rebalance {

using btree::BTree;

Rebalancer::Rebalancer(Cluster* cluster, Options options)
    : cluster_(cluster), options_(options) {
  if (options_.imbalance_ratio <= 1.0) options_.imbalance_ratio = 1.5;
}

Rebalancer::~Rebalancer() { Stop(); }

namespace {

// One tree's pairing pass: move slabs from the heaviest memnode to the
// lightest until no memnode exceeds the donor threshold, the per-round
// budget runs out, or the donors' candidate lists dry up.
struct TreePlan {
  std::vector<uint64_t> counts;                 // tip slabs per memnode
  std::vector<std::vector<size_t>> candidates;  // placement idx per memnode
};

TreePlan CountPlacement(const std::vector<BTree::NodePlacement>& placement,
                        uint32_t n) {
  TreePlan plan;
  plan.counts.assign(n, 0);
  plan.candidates.assign(n, {});
  for (size_t i = 0; i < placement.size(); i++) {
    const auto home = placement[i].addr.memnode;
    if (home >= n) continue;  // stale placement past a membership change
    plan.counts[home]++;
    plan.candidates[home].push_back(i);
  }
  return plan;
}

}  // namespace

Result<Rebalancer::RoundReport> Rebalancer::RunOnce() {
  using PlacementState = alloc::NodeAllocator::PlacementState;
  RoundReport report;
  report.balanced = true;
  const uint32_t n = cluster_->coordinator()->n_memnodes();
  if (n < 2) return report;

  // Re-anchor the allocator's load-aware placement counters to the
  // authoritative metadata; best-effort (a down memnode fails the read,
  // and migration onto it would fail anyway).
  IgnoreStatus(cluster_->allocator()->ResyncLiveCounters());

  // Node lifecycle masks: only ACTIVE memnodes may receive; DRAINING
  // memnodes are unconditional donors (drain-to-zero, no balance band);
  // retired ids are holes and play no role.
  std::vector<PlacementState> state(n);
  uint32_t n_active = 0;
  for (uint32_t m = 0; m < n; m++) {
    state[m] = cluster_->allocator()->placement_state(m);
    if (state[m] == PlacementState::kActive) n_active++;
  }
  if (n_active == 0) return report;

  uint64_t budget = options_.max_moves_per_round;
  for (uint32_t slot = 0; slot < cluster_->n_trees(); slot++) {
    auto handle = cluster_->OpenTree(slot);
    if (!handle.ok()) continue;
    if (handle->branching()) continue;  // version trees: GC scope, not ours
    report.trees++;
    // The catalog-owned service tree: proxy-independent (proxy 0 may be
    // removed from an elastic proxy tier).
    BTree* tree = cluster_->service_tree(slot);

    std::vector<BTree::NodePlacement> placement;
    MINUET_RETURN_NOT_OK(tree->CollectTipPlacement(&placement));
    TreePlan plan = CountPlacement(placement, n);
    // The mean is over the nodes that will CARRY the population (active
    // only): a draining or retired node must not dilute the target share.
    const double mean =
        static_cast<double>(placement.size()) / static_cast<double>(n_active);
    // Imbalance is judged from both ends: a donor above hi_water must
    // shed, AND a receiver below lo_water must be filled (a freshly added
    // empty memnode is the canonical case — the heaviest node may sit
    // comfortably under hi_water while the new one serves nothing).
    const double hi_water = mean * options_.imbalance_ratio;
    const double lo_water = mean / options_.imbalance_ratio;

    while (true) {
      // Donor: any draining node still holding slabs outranks the balance
      // band; otherwise the heaviest active node. Receiver: the lightest
      // ACTIVE node.
      uint32_t donor = n, receiver = n;
      bool forced = false;
      for (uint32_t m = 0; m < n; m++) {
        if (state[m] == PlacementState::kDraining && plan.counts[m] > 0 &&
            (!forced || plan.counts[m] > plan.counts[donor])) {
          donor = m;
          forced = true;
        }
      }
      for (uint32_t m = 0; m < n; m++) {
        if (state[m] != PlacementState::kActive) continue;
        if (!forced && (donor == n || plan.counts[m] > plan.counts[donor])) {
          donor = m;
        }
        if (receiver == n || plan.counts[m] < plan.counts[receiver]) {
          receiver = m;
        }
      }
      if (donor == n || receiver == n || donor == receiver) break;
      // Only balancing moves spend the round budget; a drain must empty.
      if (!forced && budget == 0) break;
      const uint64_t mx = plan.counts[donor];
      const uint64_t mn = plan.counts[receiver];
      if (!forced) {
        const bool over = static_cast<double>(mx) > hi_water;
        const bool under = static_cast<double>(mn) < lo_water;
        // The +2 slack stops tiny trees (and the last slab of a nearly
        // even split) from ping-ponging between equally loaded nodes
        // forever. (Forced drains are exempt: they must reach zero.)
        if ((!over && !under) || mx < mn + 2) break;
      }
      auto& pool = plan.candidates[donor];
      if (pool.empty()) {
        // Every slab we knew about on this donor was tried; re-listing
        // next round will see the post-migration truth.
        report.balanced = false;
        break;
      }
      const BTree::NodePlacement& victim = placement[pool.back()];
      pool.pop_back();
      report.planned++;
      if (!forced) budget--;
      bool migrated = false;
      Status st = tree->MigrateNode(victim, receiver, &migrated);
      if (!st.ok()) {
        // A retryable abort means concurrent writers kept moving this
        // slab's neighborhood: skip it — the next round re-lists placement
        // and tries again — rather than failing the whole round. Hard
        // failures (a crashed destination) do stop the round.
        if (!st.IsRetryable()) return st;
        report.skipped++;
        report.balanced = false;
        continue;
      }
      if (migrated) {
        report.migrated++;
        total_migrated_.fetch_add(1, std::memory_order_relaxed);
        plan.counts[donor]--;
        plan.counts[receiver]++;
      } else {
        report.skipped++;  // placement went stale under concurrent writes
      }
    }

    uint64_t mx = 0, mn = ~0ULL;
    bool draining_occupied = false;
    for (uint32_t m = 0; m < n; m++) {
      if (state[m] == PlacementState::kActive) {
        mx = std::max<uint64_t>(mx, plan.counts[m]);
        mn = std::min<uint64_t>(mn, plan.counts[m]);
      } else if (state[m] == PlacementState::kDraining &&
                 plan.counts[m] > 0) {
        draining_occupied = true;
      }
    }
    const bool still_skewed = static_cast<double>(mx) > hi_water ||
                              static_cast<double>(mn) < lo_water;
    if (draining_occupied || (still_skewed && mx >= mn + 2)) {
      report.balanced = false;
    }
  }

  if (report.migrated > 0) {
    // Reclaim migrated sources whose sid already sits below the snapshot
    // horizon; the rest are picked up once the horizon advances.
    for (uint32_t slot = 0; slot < cluster_->n_trees(); slot++) {
      auto handle = cluster_->OpenTree(slot);
      if (!handle.ok() || handle->branching()) continue;
      auto gc = cluster_->CollectGarbage(slot);
      if (gc.ok()) report.gc_freed += gc->freed;
    }
  }
  return report;
}

Result<uint64_t> Rebalancer::RunUntilBalanced(uint32_t max_rounds) {
  uint64_t migrated = 0;
  for (uint32_t round = 0; round < max_rounds; round++) {
    auto report = RunOnce();
    if (!report.ok()) return report.status();
    migrated += report->migrated;
    if (report->balanced && report->migrated == 0) return migrated;
  }
  return Status::Aborted("rebalance did not converge within max_rounds");
}

void Rebalancer::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard<std::mutex> g(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void Rebalancer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> g(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void Rebalancer::Loop() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  while (!stop_) {
    lk.unlock();
    // Failures (e.g. a crashed memnode mid-round) are transient here: the
    // next round re-lists placement and retries what still applies.
    IgnoreStatus(RunOnce());
    lk.lock();
    // Interruptible nap: Stop() wakes the daemon immediately instead of
    // waiting out the cadence interval (and the spurious-wakeup-proof
    // predicate doubles as the loop condition re-check).
    stop_cv_.wait_for(lk, options_.interval, [this] { return stop_; });
  }
}

}  // namespace minuet::rebalance
