// Concurrency stress suite: drives the riskiest interleavings of the
// elastic, multi-threaded subsystems so the sanitizer builds (ctest --preset
// tsan / asan-ubsan, see CMakePresets.json) have real races to find. Seven
// storms, matching the hot spots that have produced hand-found bugs before:
//
//   1. Membership churn (add → rebalance → drain → retire) under concurrent
//      readers and writers — the coordinator membership lock, allocator
//      lifecycle states and fabric retirement flags all flip while traffic
//      races through them.
//   2. Batched range scans racing GC horizon advancement — two scanners
//      read many leaves per round while the collector frees slabs at the
//      horizon and writers copy-on-write new ones.
//   3. Snapshot pin/unpin storms — lease multiset churn against horizon
//      computation and snapshot borrowing (the Fig. 7 double-read path).
//   4. Proxy-cache eviction under MultiGet — CLOCK eviction, invalidation
//      and Clear() racing sharded lookups from batched readers.
//   5. Proxy churn (AddProxy/RemoveProxy) under traffic — the shared_mutex
//      proxy registry, the detach flag flipping under in-flight views, and
//      the snapshot-lease bulk release racing the removed proxy's pins.
//   6. Durability churn — writers racing a crash/recover cycle of a random
//      memnode, a checkpoint daemon racing GC's reclaim floor, and the
//      WAL's group-commit window under concurrent syncers.
//   7. Stats dumps during membership churn — every registry gauge runs
//      under the registry mutex while AddProxy links under the proxy
//      registry lock, so a gauge that took that lock would invert the order.
//
// Iteration counts are fixed (not wall-clock), so a TSan run does the same
// work ~10x slower instead of racing a timer; the whole suite is sized to
// stay inside CI budgets on one core. Every seed flows through SuiteSeed:
// logged on start, overridable with MINUET_TEST_SEED for replay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"
#include "rebalance/rebalancer.h"
#include "test_seed.h"

namespace minuet {
namespace {

using testing::SuiteSeed;

ClusterOptions StressOpts(uint32_t machines) {
  ClusterOptions o;
  o.machines = machines;
  o.node_size = 1024;  // small nodes: multi-level trees from few keys
  o.replication = true;
  return o;
}

void Preload(Cluster& cluster, const TreeHandle& tree, uint64_t n) {
  for (uint64_t i = 0; i < n; i++) {
    ASSERT_TRUE(
        cluster.proxy(0).Put(tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
}

// --- 1. Membership churn under traffic --------------------------------------

TEST(StressTest, MembershipChurnUnderConcurrentTraffic) {
  const uint64_t seed = SuiteSeed("MembershipChurnUnderConcurrentTraffic", 41);
  ClusterOptions opts = StressOpts(4);
  opts.max_machines = 12;  // room for every churn cycle's permanent id hole
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kKeys = 200;
  Preload(cluster, *tree, kKeys);

  std::atomic<bool> stop{false};
  std::mutex mu;
  std::map<std::string, uint64_t> committed;

  // Writers: single Puts and WriteBatches against rotating proxies.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      Rng rng(seed ^ (w + 1));
      Proxy& proxy = cluster.proxy(w % cluster.n_proxies());
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.Uniform(4) == 0) {
          WriteBatch batch;
          std::vector<std::pair<std::string, uint64_t>> pending;
          for (int k = 0; k < 4; k++) {
            const std::string key = EncodeUserKey(rng.Uniform(kKeys));
            const uint64_t v = rng.Next();
            batch.Put(*tree, key, EncodeValue(v));
            pending.emplace_back(key, v);
          }
          if (proxy.Apply(batch).ok()) {
            std::lock_guard<std::mutex> g(mu);
            for (auto& [key, v] : pending) committed[key] = v;
          }
        } else {
          const std::string key = EncodeUserKey(rng.Uniform(kKeys));
          const uint64_t v = rng.Next();
          if (proxy.Put(*tree, key, EncodeValue(v)).ok()) {
            std::lock_guard<std::mutex> g(mu);
            committed[key] = v;
          }
        }
      }
    });
  }

  // Reader: atomic multi-point reads through the churn. Every key was
  // preloaded and never removed, so each lookup must land.
  std::thread reader([&] {
    Rng rng(seed ^ 0x5eed);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::string> keys;
      for (int k = 0; k < 8; k++) {
        keys.push_back(EncodeUserKey(rng.Uniform(kKeys)));
      }
      std::vector<std::optional<std::string>> values;
      Status st =
          cluster.proxy(1).Tip(*tree).MultiGet(keys, &values);
      ASSERT_TRUE(st.ok()) << st.ToString();
      for (const auto& v : values) EXPECT_TRUE(v.has_value());
    }
  });

  // The churn itself: each cycle brings a node online, rebalances real
  // population onto it, then drains and retires it again — all while the
  // writers and reader above keep running. A failed step is recorded, not
  // asserted on the spot: a fatal assertion here would return with those
  // threads still running (std::terminate) and take the remaining storms
  // down with it. Stop and join them first, then assert.
  std::string churn_failure;
  for (int cycle = 0; cycle < 2 && churn_failure.empty(); cycle++) {
    auto added = cluster.AddMemnode();
    if (!added.ok()) {
      churn_failure = "AddMemnode: " + added.status().ToString();
      break;
    }

    rebalance::Options ropts;
    ropts.max_moves_per_round = 64;
    rebalance::Rebalancer rebalancer(&cluster, ropts);
    auto balanced = rebalancer.RunUntilBalanced(32);
    // Under a concurrent write storm the round budget may expire before the
    // balance band is met; slabs still moved, which is all the churn needs.
    if (!balanced.ok() && !balanced.status().IsAborted()) {
      churn_failure = "RunUntilBalanced: " + balanced.status().ToString();
      break;
    }

    // Retire the node we just populated. Concurrent snapshot pins can hold
    // the reclaim phase at Busy; the node stays drain-only and the call
    // resumes where it left off.
    Status removed = Status::Busy("not attempted");
    for (int attempt = 0; attempt < 50 && !removed.ok(); attempt++) {
      removed = cluster.RemoveMemnode(*added);
      if (!removed.ok()) {
        if (!removed.IsBusy()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!removed.ok()) churn_failure = "RemoveMemnode: " + removed.ToString();
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  reader.join();
  ASSERT_TRUE(churn_failure.empty()) << churn_failure;

  // Every key a writer reported committed is readable through a different
  // proxy, and a full scan still sees the intact keyspace.
  std::string value;
  for (const auto& [key, v] : committed) {
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, key, &value).ok()) << key;
  }
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(cluster.proxy(0).Scan(*tree, "", kKeys + 1, &all).ok());
  EXPECT_EQ(all.size(), kKeys);
}

// --- 2. Batched range scans racing the GC horizon ----------------------------

TEST(StressTest, RangeScansRaceGcHorizonAdvancement) {
  const uint64_t seed = SuiteSeed("RangeScansRaceGcHorizonAdvancement", 43);
  Cluster cluster(StressOpts(4));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kKeys = 400;
  Preload(cluster, *tree, kKeys);

  std::atomic<bool> stop{false};

  // Writers copy-on-write fresh slabs; the collector frees the ones below
  // the horizon; two scanners read pinned snapshots in multi-leaf batches.
  // The keyspace itself never changes (updates only).
  std::thread writer([&] {
    Rng rng(seed ^ 0x31);
    while (!stop.load(std::memory_order_relaxed)) {
      IgnoreStatus(cluster.proxy(0).Put(*tree, EncodeUserKey(rng.Uniform(kKeys)),
                                        EncodeValue(rng.Next())));
    }
  });
  std::thread collector([&] {
    mvcc::SnapshotService* scs = cluster.snapshot_service(*tree);
    while (!stop.load(std::memory_order_relaxed)) {
      // Advance the horizon, then harvest: frees race the leaf batches.
      IgnoreStatus(scs->CreateSnapshot());
      IgnoreStatus(cluster.CollectGarbage(*tree));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> scanners;
  for (int s = 0; s < 2; s++) {
    scanners.emplace_back([&, s] {
      for (int iter = 0; iter < 10; iter++) {
        auto snap = cluster.proxy((s + 1) % cluster.n_proxies())
                        .Snapshot(*tree);
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        // One chunk asks for the whole keyspace, so fetches read batches
        // of many leaves in one round while frees race them.
        Cursor::Options copts;
        copts.chunk_size = kKeys + 1;
        auto cursor = snap->NewCursor("", copts);
        std::vector<std::pair<std::string, std::string>> out;
        Status st = cursor->Drain(kKeys + 1, &out);
        ASSERT_TRUE(st.ok()) << st.ToString();
        // The snapshot is pinned and the keyspace fixed: a batched scan
        // that loses pairs to a racing free is a real bug.
        ASSERT_EQ(out.size(), kKeys);
        for (uint64_t k = 0; k < kKeys; k++) {
          EXPECT_EQ(out[k].first, EncodeUserKey(k));
        }
      }
    });
  }

  for (auto& t : scanners) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  collector.join();
}

// --- 3. Snapshot pin/unpin storm --------------------------------------------

TEST(StressTest, SnapshotPinUnpinStorm) {
  const uint64_t seed = SuiteSeed("SnapshotPinUnpinStorm", 47);
  Cluster cluster(StressOpts(4));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kKeys = 100;
  Preload(cluster, *tree, kKeys);
  mvcc::SnapshotService* scs = cluster.snapshot_service(*tree);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(seed ^ 0xabc);
    while (!stop.load(std::memory_order_relaxed)) {
      IgnoreStatus(cluster.proxy(0).Put(*tree, EncodeUserKey(rng.Uniform(kKeys)),
                                        EncodeValue(rng.Next())));
    }
  });
  std::thread collector([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      IgnoreStatus(scs->CreateSnapshot());
      IgnoreStatus(cluster.CollectGarbage(*tree));
      std::this_thread::yield();
    }
  });

  // Pinners churn leases as fast as they can: acquisition must hand over
  // the pin without a horizon-sized window (SnapshotView adopts the lease
  // inside the service's critical section), and reads through a held view
  // must never fail at the horizon.
  std::vector<std::thread> pinners;
  for (int p = 0; p < 3; p++) {
    pinners.emplace_back([&, p] {
      Rng rng(seed ^ (0x100 + p));
      Proxy& proxy = cluster.proxy(p % cluster.n_proxies());
      for (int iter = 0; iter < 60; iter++) {
        auto snap = (iter % 2 == 0) ? proxy.Snapshot(*tree)
                                    : proxy.RecentSnapshot(*tree);
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        for (int g = 0; g < 2; g++) {
          std::string value;
          Status st = snap->Get(EncodeUserKey(rng.Uniform(kKeys)), &value);
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
        std::this_thread::yield();  // widen the unpin/advance race window
      }
    });
  }

  for (auto& t : pinners) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  collector.join();

  // Every lease was released; the horizon can pass everything again.
  EXPECT_EQ(scs->pinned_count(), 0u);
  auto report = cluster.CollectGarbage(*tree);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

// --- 4. Cache eviction under MultiGet ---------------------------------------

TEST(StressTest, CacheEvictionStormUnderMultiGet) {
  const uint64_t seed = SuiteSeed("CacheEvictionStormUnderMultiGet", 53);
  ClusterOptions opts = StressOpts(2);
  // A cache far smaller than the tree's node population: every reader
  // fetch contends with CLOCK eviction, and Clear() storms from the main
  // thread race in-flight lookups.
  opts.cache_capacity = 32;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kKeys = 400;
  Preload(cluster, *tree, kKeys);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(seed ^ 0xd00d);
    while (!stop.load(std::memory_order_relaxed)) {
      IgnoreStatus(cluster.proxy(0).Put(*tree, EncodeUserKey(rng.Uniform(kKeys)),
                                        EncodeValue(rng.Next())));
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Rng rng(seed ^ (0x200 + r));
      Proxy& proxy = cluster.proxy(r % cluster.n_proxies());
      for (int iter = 0; iter < 60; iter++) {
        std::vector<std::string> keys;
        for (int k = 0; k < 16; k++) {
          keys.push_back(EncodeUserKey(rng.Uniform(kKeys)));
        }
        std::vector<std::optional<std::string>> values;
        Status st;
        if (iter % 2 == 0) {
          st = proxy.Tip(*tree).MultiGet(keys, &values);
        } else {
          auto snap = proxy.Snapshot(*tree);
          ASSERT_TRUE(snap.ok()) << snap.status().ToString();
          st = snap->MultiGet(keys, &values);
        }
        ASSERT_TRUE(st.ok()) << st.ToString();
        for (const auto& v : values) EXPECT_TRUE(v.has_value());
      }
    });
  }

  // Mass invalidation storms: correctness-neutral by design, so firing
  // them mid-MultiGet must never corrupt a fetch.
  for (int i = 0; i < 20; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cluster.DropProxyCaches();
  }

  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(cluster.proxy(1).Scan(*tree, "", kKeys + 1, &all).ok());
  EXPECT_EQ(all.size(), kKeys);
}

// --- 5. Proxy churn under traffic -------------------------------------------
// The elastic proxy tier's riskiest interleavings: AddProxy publishing a
// new registry entry while readers resolve proxies and DropProxyCaches
// sweeps them (the shared_mutex registry), RemoveProxy's detach flag
// flipping under in-flight transactions and streaming cursors, and the
// lease bulk-release racing the removed proxy's own pinned views. Two
// stable proxies carry verified traffic throughout; a third slot churns.

TEST(StressTest, ProxyChurnUnderConcurrentTraffic) {
  const uint64_t seed = SuiteSeed("ProxyChurnUnderConcurrentTraffic", 53);
  ClusterOptions opts = StressOpts(4);
  opts.proxies = 2;  // stable base; churned ids stack beyond it
  opts.retain_snapshots = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kKeys = 200;
  Preload(cluster, *tree, kKeys);
  mvcc::SnapshotService* scs = cluster.snapshot_service(*tree);

  std::atomic<bool> stop{false};
  // The newest churned proxy id (0 = none yet): traffic threads aim at it
  // and must tolerate the detach racing their operations.
  std::atomic<uint32_t> churned{0};
  std::mutex mu;
  std::map<std::string, uint64_t> committed;

  // Writers on the STABLE proxies: their commits must all survive.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      Rng rng(seed ^ (w + 1));
      Proxy& proxy = cluster.proxy(w);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = EncodeUserKey(rng.Uniform(kKeys));
        const uint64_t v = rng.Next();
        if (proxy.Put(*tree, key, EncodeValue(v)).ok()) {
          std::lock_guard<std::mutex> g(mu);
          committed[key] = v;
        }
      }
    });
  }

  // Churn traffic: reads, writes, pinned snapshots and scans through the
  // NEWEST churned proxy. Every operation may race the proxy's removal —
  // then it must fail with a clean InvalidArgument, nothing else.
  std::vector<std::thread> chasers;
  for (int c = 0; c < 2; c++) {
    chasers.emplace_back([&, c] {
      Rng rng(seed ^ (0x200 + c));
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t id = churned.load(std::memory_order_acquire);
        if (id == 0) {
          std::this_thread::yield();
          continue;
        }
        auto found = cluster.FindProxy(id);
        ASSERT_TRUE(found.ok()) << found.status().ToString();
        Proxy& proxy = **found;
        std::string value;
        Status st = proxy.Get(*tree, EncodeUserKey(rng.Uniform(kKeys)),
                              &value);
        ASSERT_TRUE(st.ok() || st.IsInvalidArgument()) << st.ToString();
        st = proxy.Put(*tree, EncodeUserKey(rng.Uniform(kKeys)),
                       EncodeValue(rng.Next()));
        ASSERT_TRUE(st.ok() || st.IsInvalidArgument()) << st.ToString();
        auto snap = proxy.RecentSnapshot(*tree);
        if (snap.ok()) {
          std::vector<std::pair<std::string, std::string>> rows;
          st = snap->Scan(EncodeUserKey(rng.Uniform(kKeys)), 8, &rows);
          ASSERT_TRUE(st.ok() || st.IsInvalidArgument()) << st.ToString();
        } else {
          ASSERT_TRUE(snap.status().IsInvalidArgument())
              << snap.status().ToString();
        }
      }
    });
  }

  // Cache sweeper: exercises the registry's shared lock against the
  // membership mutations below.
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cluster.DropProxyCaches();
      std::this_thread::yield();
    }
  });

  // The churn itself: fixed cycles (TSan does the same work, just slower).
  // Each cycle adds a proxy, lets the chasers hammer it, pins a snapshot
  // through it, then removes it WHILE the pin is held — the bulk release
  // must clear the lease and the view's later destructor must no-op.
  for (int cycle = 0; cycle < 4; cycle++) {
    auto id = cluster.AddProxy();
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    churned.store(*id, std::memory_order_release);
    Proxy& proxy = cluster.proxy(*id);

    std::optional<SnapshotView> held;
    auto pinned = proxy.Snapshot(*tree);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    held.emplace(std::move(*pinned));
    for (int spin = 0; spin < 20; spin++) std::this_thread::yield();

    ASSERT_TRUE(cluster.RemoveProxy(*id).ok());
    EXPECT_EQ(scs->owner_pinned_count(proxy.lease_owner()), 0u);
    held.reset();  // unpin after bulk release: must be a harmless no-op
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  for (auto& t : chasers) t.join();
  sweeper.join();

  // Registry accounting: 2 stable + 4 churned ids, 2 still live.
  EXPECT_EQ(cluster.n_proxies(), 6u);
  EXPECT_EQ(cluster.n_live_proxies(), 2u);

  // No departed proxy holds a lease; the horizon can pass everything.
  EXPECT_EQ(scs->pinned_count(), 0u);
  EXPECT_TRUE(cluster.CollectGarbage(*tree).ok());

  // Every key a stable writer reported committed is readable, through a
  // stable proxy and through a freshly added one. (Values are not compared:
  // chasers raced the same keyspace, so last-writer-wins is unordered
  // against the bookkeeping map.)
  auto late = cluster.AddProxy();
  ASSERT_TRUE(late.ok());
  std::string value;
  for (const auto& [key, v] : committed) {
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, key, &value).ok()) << key;
    ASSERT_TRUE(cluster.proxy(*late).Get(*tree, key, &value).ok()) << key;
  }
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(cluster.proxy(*late).Scan(*tree, "", kKeys + 1, &all).ok());
  EXPECT_EQ(all.size(), kKeys);
}

// --- 6. Durability churn -----------------------------------------------------
// The WAL and checkpoint machinery under fire: writers keep committing
// (group-commit batches form under real concurrency), a churn loop crashes
// and recovers a random memnode mid-traffic (CrashLoseVolatile + local-log
// replay racing the ring watermark), and a checkpoint daemon repeatedly
// dumps images while the collector advances the horizon against the
// checkpoint-epoch reclaim floor. Ends with the whole cluster cold-restarted
// from durable state and every surviving commit re-verified.

TEST(StressTest, DurabilityChurnUnderConcurrentTraffic) {
  const uint64_t seed = SuiteSeed("DurabilityChurnUnderConcurrentTraffic", 59);
  ClusterOptions opts = StressOpts(4);
  opts.durability = wal::DurabilityMode::kSync;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kKeys = 150;
  Preload(cluster, *tree, kKeys);

  std::atomic<bool> stop{false};
  std::mutex mu;
  std::map<std::string, uint64_t> committed;

  // Writers: every acked Put must survive everything below — the crashes,
  // the checkpoints, and the final cold restart. Failures are expected
  // while a memnode is down; only acks go into the book.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      Rng rng(seed ^ (w + 1));
      Proxy& proxy = cluster.proxy(w % cluster.n_proxies());
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = EncodeUserKey(rng.Uniform(kKeys));
        const uint64_t v = rng.Next();
        if (proxy.Put(*tree, key, EncodeValue(v)).ok()) {
          std::lock_guard<std::mutex> g(mu);
          committed[key] = v;
        }
        // A writer that never blinks holds the membership lock (shared)
        // back-to-back, starving the churn loop's exclusive acquisitions.
        std::this_thread::yield();
      }
    });
  }

  // Checkpoint daemon: fuzzy single-node dumps and full-cluster passes,
  // racing the traffic and the crash loop. Busy (another checkpoint or the
  // node's recovery staging) and Unavailable (node currently down) are the
  // daemon's life; anything else is a bug.
  std::thread checkpointer([&] {
    Rng rng(seed ^ 0xcc);
    while (!stop.load(std::memory_order_relaxed)) {
      Status st = (rng.Uniform(4) == 0)
                      ? cluster.CheckpointAll()
                      : cluster.CheckpointMemnode(
                            rng.Uniform(cluster.n_memnodes()));
      ASSERT_TRUE(st.ok() || st.IsBusy() || st.IsUnavailable())
          << st.ToString();
      // Image dumps are long shared-lock stretches; pace them so the churn
      // loop's exclusive lock (and the writers) get through.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Collector: horizon advancement gated by the checkpoint-epoch floor —
  // a slab freed before its covering checkpoint would break recovery, so
  // this race is exactly what the floor exists for.
  std::thread collector([&] {
    mvcc::SnapshotService* scs = cluster.snapshot_service(*tree);
    while (!stop.load(std::memory_order_relaxed)) {
      IgnoreStatus(scs->CreateSnapshot());
      IgnoreStatus(cluster.CollectGarbage(*tree));
      std::this_thread::yield();
    }
  });

  // The churn itself: fixed cycles, one random victim each — crash (the
  // volatile image and unsynced WAL tail die), let traffic slam into the
  // hole, recover (sync mode: always the local-log path), repeat.
  Rng churn_rng(seed ^ 0xdead);
  for (int cycle = 0; cycle < 5; cycle++) {
    const uint32_t victim = churn_rng.Uniform(cluster.n_memnodes());
    cluster.CrashMemnode(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cluster.RecoverMemnode(victim);
    ASSERT_TRUE(cluster.fabric()->IsUp(victim));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  checkpointer.join();
  collector.join();

  // Every acked commit survived the churn...
  std::string value;
  {
    std::lock_guard<std::mutex> g(mu);
    for (const auto& [key, v] : committed) {
      ASSERT_TRUE(cluster.proxy(1).Get(*tree, key, &value).ok()) << key;
      EXPECT_EQ(DecodeValue(value), v) << key;
    }
  }

  // ...and survives losing every in-memory image: the cold restart rebuilds
  // all four nodes from checkpoints + WAL alone.
  cluster.CrashAllMemnodes();
  cluster.RecoverAllMemnodes();
  cluster.DropProxyCaches();
  for (const auto& [key, v] : committed) {
    ASSERT_TRUE(cluster.proxy(2).Get(*tree, key, &value).ok()) << key;
    EXPECT_EQ(DecodeValue(value), v) << key;
  }
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(cluster.proxy(0).Scan(*tree, "", kKeys + 1, &all).ok());
  EXPECT_EQ(all.size(), kKeys);
}

// --- 7. Stats dumps during membership churn ----------------------------------
// A dumper renders DumpStats and DumpStatsJson in a loop while the main
// thread adds and removes proxies and adds memnodes, and a writer keeps the
// counters moving. Dumping runs every gauge callback under the registry
// mutex, and AddProxy links the new proxy's gauges while it holds the proxy
// registry lock exclusive: a gauge that took that lock would deadlock here
// (and TSan reports the inversion even when the timing misses it).

TEST(StressTest, StatsDumpDuringMembershipChurn) {
  const uint64_t seed = SuiteSeed("StatsDumpDuringMembershipChurn", 61);
  ClusterOptions opts = StressOpts(3);
  opts.proxies = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kKeys = 64;
  Preload(cluster, *tree, kKeys);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> dumps{0};
  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = cluster.DumpStats();
      const std::string json = cluster.DumpStatsJson();
      EXPECT_EQ(text.rfind("durability=none\n", 0), 0u);
      EXPECT_EQ(json.rfind("{\"cluster\":{\"durability\":\"none\"}", 0), 0u);
      EXPECT_EQ(json.back(), '}');
      dumps.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::atomic<uint64_t> puts{0};
  std::thread writer([&] {
    Rng rng(seed);
    Proxy& proxy = cluster.proxy(0);
    while (!stop.load(std::memory_order_relaxed)) {
      if (proxy.Put(*tree, EncodeUserKey(rng.Uniform(kKeys)),
                    EncodeValue(rng.Next()))
              .ok()) {
        puts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Churn only once the dumper is running, so the two overlap.
  while (dumps.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  // Fixed cycles (TSan does the same work, just slower). Failures are
  // recorded, and the loop stops, but every thread is joined before any
  // assertion ends the test.
  constexpr int kCycles = 4;
  constexpr int kAddedMemnodes = 2;
  for (int cycle = 0; cycle < kCycles; cycle++) {
    auto id = cluster.AddProxy();
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) break;
    const uint64_t seen = dumps.load(std::memory_order_relaxed);
    while (dumps.load(std::memory_order_relaxed) == seen) {
      std::this_thread::yield();
    }
    Status removed = cluster.RemoveProxy(*id);
    EXPECT_TRUE(removed.ok()) << removed.ToString();
    if (!removed.ok()) break;
    if (cycle < kAddedMemnodes) {
      auto added = cluster.AddMemnode();
      EXPECT_TRUE(added.ok()) << added.status().ToString();
      if (!added.ok()) break;
    }
  }

  stop.store(true, std::memory_order_relaxed);
  dumper.join();
  writer.join();
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_GT(puts.load(), 0u);

  // The registry saw every member: 2 stable + 4 churned proxy ids (2 live),
  // and 3 + 2 memnodes, all live.
  uint32_t proxies = 0, live_proxies = 0;
  int64_t nodes = -1, live_memnodes = -1;
  for (const obs::Sample& s : cluster.metrics_registry().Snapshot()) {
    if (s.name == "detached") {
      proxies++;
      if (s.value == 0) live_proxies++;
    }
    if (s.subsystem == "fabric" && s.name == "nodes") nodes = s.value;
    if (s.subsystem == "cluster" && s.name == "live_memnodes") {
      live_memnodes = s.value;
    }
  }
  EXPECT_EQ(proxies, 2u + kCycles);
  EXPECT_EQ(live_proxies, 2u);
  EXPECT_EQ(nodes, 3 + kAddedMemnodes);
  EXPECT_EQ(live_memnodes, 3 + kAddedMemnodes);
}

}  // namespace
}  // namespace minuet
