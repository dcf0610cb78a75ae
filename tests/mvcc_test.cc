// Tests for copy-on-write snapshots (§4): isolation, strict serializability
// plumbing, the snapshot creation service with borrowing, the stale-snapshot
// policy, scans against snapshots under concurrent updates, and garbage
// collection.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/key_codec.h"
#include "common/random.h"
#include "mvcc/gc.h"
#include "mvcc/snapshot_service.h"
#include "test_cluster.h"

namespace minuet::mvcc {
namespace {

using btree::BTree;
using btree::SnapshotRef;
using btree::TreeOptions;
using minuet::testing::SnapshotScanAll;
using minuet::testing::TestCluster;

class MvccTest : public ::testing::Test {
 protected:
  void Build(TestCluster::Config config = {}, TreeOptions topts = {}) {
    cluster_ = std::make_unique<TestCluster>(config);
    trees_ = cluster_->MakeTrees(0, topts);
    ASSERT_TRUE(trees_[0]->CreateTree().ok());
  }

  void SetUp() override { Build(); }

  Result<SnapshotRef> Snap(SnapshotService& scs) {
    return scs.CreateSnapshot();
  }

  SnapshotService MakeService(double k = 0, uint64_t retain = 16) {
    SnapshotService::Options opts;
    opts.min_interval_seconds = k;
    opts.retain_last = retain;
    return SnapshotService(trees_[0].get(), opts, clock_fn_);
  }

  BTree& tree(uint32_t proxy = 0) { return *trees_[proxy]; }

  std::unique_ptr<TestCluster> cluster_;
  std::vector<std::unique_ptr<BTree>> trees_;
  double fake_now_ = 0;
  std::function<double()> clock_fn_ = [this] { return fake_now_; };
};

TEST_F(MvccTest, SnapshotFreezesState) {
  ASSERT_TRUE(tree().Put("k", "before").ok());
  SnapshotService scs = MakeService();
  auto snap = Snap(scs);
  ASSERT_TRUE(snap.ok());

  ASSERT_TRUE(tree().Put("k", "after").ok());

  std::string value;
  ASSERT_TRUE(tree().SnapshotGet(*snap, "k", &value).ok());
  EXPECT_EQ(value, "before");
  ASSERT_TRUE(tree().Get("k", &value).ok());
  EXPECT_EQ(value, "after");
}

TEST_F(MvccTest, SnapshotDoesNotSeeLaterInserts) {
  ASSERT_TRUE(tree().Put("existing", "v").ok());
  SnapshotService scs = MakeService();
  auto snap = Snap(scs);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(tree().Put("later", "v").ok());

  std::string value;
  EXPECT_TRUE(tree().SnapshotGet(*snap, "later", &value).IsNotFound());
  EXPECT_TRUE(tree().SnapshotGet(*snap, "existing", &value).ok());
}

TEST_F(MvccTest, SnapshotSurvivesLaterRemoves) {
  ASSERT_TRUE(tree().Put("doomed", "v").ok());
  SnapshotService scs = MakeService();
  auto snap = Snap(scs);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(tree().Remove("doomed").ok());

  std::string value;
  ASSERT_TRUE(tree().SnapshotGet(*snap, "doomed", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(tree().Get("doomed", &value).IsNotFound());
}

TEST_F(MvccTest, ManySnapshotsEachSeeTheirOwnEpoch) {
  SnapshotService scs = MakeService(0, 1000);
  std::vector<SnapshotRef> snaps;
  for (int epoch = 0; epoch < 8; epoch++) {
    ASSERT_TRUE(tree().Put("epoch", std::to_string(epoch)).ok());
    ASSERT_TRUE(tree().Put(EncodeUserKey(epoch), EncodeValue(epoch)).ok());
    auto snap = Snap(scs);
    ASSERT_TRUE(snap.ok());
    snaps.push_back(*snap);
  }
  for (int epoch = 0; epoch < 8; epoch++) {
    std::string value;
    ASSERT_TRUE(tree().SnapshotGet(snaps[epoch], "epoch", &value).ok());
    EXPECT_EQ(value, std::to_string(epoch));
    // Keys inserted after this snapshot are invisible to it.
    Status st =
        tree().SnapshotGet(snaps[epoch], EncodeUserKey(epoch + 1), &value);
    EXPECT_TRUE(st.IsNotFound()) << "epoch " << epoch;
  }
}

TEST_F(MvccTest, SnapshotConsistentAcrossSplits) {
  // The snapshot must stay intact even as the tip's structure diverges
  // through hundreds of splits.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  SnapshotService scs = MakeService();
  auto snap = Snap(scs);
  ASSERT_TRUE(snap.ok());

  for (int i = 200; i < 1500; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(1000000 + i)).ok());
  }
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(2000000 + i)).ok());
  }

  // Snapshot: exactly the original 200 keys with original values.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(
      SnapshotScanAll(tree(), *snap, EncodeUserKey(0), 10000, &out).ok());
  ASSERT_EQ(out.size(), 200u);
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(out[i].first, EncodeUserKey(i));
    EXPECT_EQ(DecodeValue(out[i].second), static_cast<uint64_t>(i));
  }
}

TEST_F(MvccTest, SnapshotScanUnaffectedByConcurrentUpdates) {
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  SnapshotService scs = MakeService();
  auto snap = Snap(scs);
  ASSERT_TRUE(snap.ok());

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    Rng rng(3);
    while (!stop) {
      IgnoreStatus(tree(1).Put(EncodeUserKey(rng.Uniform(kKeys)),
                               EncodeValue(rng.Next())));
    }
  });
  for (int round = 0; round < 10; round++) {
    std::vector<std::pair<std::string, std::string>> out;
    ASSERT_TRUE(
        SnapshotScanAll(tree(), *snap, EncodeUserKey(0), kKeys, &out).ok());
    ASSERT_EQ(out.size(), static_cast<size_t>(kKeys));
    for (int i = 0; i < kKeys; i++) {
      ASSERT_EQ(DecodeValue(out[i].second), static_cast<uint64_t>(i))
          << "round " << round << " i " << i;
    }
  }
  stop = true;
  updater.join();
}

TEST_F(MvccTest, TipScanTransactionAbortsWhenScannedLeafChanges) {
  // The motivation for snapshots (§6.3): a strictly serializable scan at
  // the tip keeps every visited leaf in its read set; an update to any of
  // them aborts the scan. Reproduce the interleaving deterministically.
  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  txn::DynamicTxn scan_txn(cluster_->coord(), cluster_->cache(0));
  std::string value;
  // The "scan" reads its first leaf...
  ASSERT_TRUE(tree().GetInTxn(scan_txn, EncodeUserKey(0), &value).ok());
  // ...a concurrent update hits that leaf...
  ASSERT_TRUE(tree(1).Put(EncodeUserKey(0), EncodeValue(999)).ok());
  // ...and the scan's next leaf fetch (piggy-backing validation of the
  // read set) must abort the whole scan transaction.
  Status st = tree().GetInTxn(scan_txn, EncodeUserKey(250), &value);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_TRUE(scan_txn.Commit().IsAborted());
}

TEST_F(MvccTest, CopyOnWriteCopiesPathOnce) {
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  SnapshotService scs = MakeService();
  ASSERT_TRUE(Snap(scs).ok());

  const uint64_t before = tree().stats().cow_copies.Value();
  ASSERT_TRUE(tree().Put(EncodeUserKey(10), EncodeValue(999)).ok());
  const uint64_t first = tree().stats().cow_copies.Value();
  EXPECT_GT(first, before);  // first write after snapshot copies the path

  ASSERT_TRUE(tree().Put(EncodeUserKey(10), EncodeValue(1000)).ok());
  const uint64_t second = tree().stats().cow_copies.Value();
  EXPECT_EQ(second, first);  // same leaf again: already at the tip snapshot
}

TEST_F(MvccTest, BorrowingOnlyWhenProvenSafe) {
  ASSERT_TRUE(tree().Put("k", "v").ok());
  SnapshotService scs = MakeService();
  // Sequential requests can never borrow (the counter advances by exactly
  // one per call).
  for (int i = 0; i < 5; i++) ASSERT_TRUE(Snap(scs).ok());
  EXPECT_EQ(scs.snapshots_created(), 5u);
  EXPECT_EQ(scs.snapshots_borrowed(), 0u);
}

TEST_F(MvccTest, ConcurrentSnapshotRequestsBorrow) {
  ASSERT_TRUE(tree().Put("k", "v").ok());
  SnapshotService scs = MakeService();
  constexpr int kThreads = 8, kPer = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; i++) {
        if (!scs.CreateSnapshot().ok()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(scs.snapshots_created() + scs.snapshots_borrowed(),
            static_cast<uint64_t>(kThreads) * kPer);
  // Under heavy concurrency on one SCS, borrowing should kick in.
  EXPECT_GT(scs.snapshots_borrowed(), 0u);
}

TEST_F(MvccTest, BorrowedSnapshotIsUsable) {
  ASSERT_TRUE(tree().Put("k", "v").ok());
  SnapshotService scs = MakeService();
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; i++) {
        auto snap = scs.CreateSnapshot();
        if (!snap.ok()) {
          bad++;
          continue;
        }
        std::string value;
        if (!tree().SnapshotGet(*snap, "k", &value).ok() || value != "v") {
          bad++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(MvccTest, StalePolicyReusesWithinInterval) {
  ASSERT_TRUE(tree().Put("k", "v").ok());
  SnapshotService scs = MakeService(/*k=*/30.0);
  fake_now_ = 0;
  auto s1 = scs.AcquireForScan();
  ASSERT_TRUE(s1.ok());
  fake_now_ = 10;  // within k
  auto s2 = scs.AcquireForScan();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->sid, s2->sid);
  EXPECT_EQ(scs.snapshots_created(), 1u);
  EXPECT_EQ(scs.stale_reuses(), 1u);

  fake_now_ = 45;  // past k: must create a fresh snapshot
  auto s3 = scs.AcquireForScan();
  ASSERT_TRUE(s3.ok());
  EXPECT_GT(s3->sid, s1->sid);
  EXPECT_EQ(scs.snapshots_created(), 2u);
}

TEST_F(MvccTest, StaleReuseSeesOlderData) {
  SnapshotService scs = MakeService(/*k=*/30.0);
  ASSERT_TRUE(tree().Put("k", "old").ok());
  fake_now_ = 0;
  auto s1 = scs.AcquireForScan();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(tree().Put("k", "new").ok());
  fake_now_ = 5;
  auto s2 = scs.AcquireForScan();
  ASSERT_TRUE(s2.ok());
  std::string value;
  ASSERT_TRUE(tree().SnapshotGet(*s2, "k", &value).ok());
  EXPECT_EQ(value, "old");  // staleness is the price of k > 0
}

TEST_F(MvccTest, LowestRetainedTrailsNewest) {
  ASSERT_TRUE(tree().Put("k", "v").ok());
  SnapshotService scs = MakeService(0, /*retain=*/4);
  EXPECT_EQ(scs.LowestRetained(), 0u);
  for (int i = 0; i < 10; i++) ASSERT_TRUE(Snap(scs).ok());
  EXPECT_EQ(scs.latest().sid, 9u);  // snapshots 0..9 created
  EXPECT_EQ(scs.LowestRetained(), 5u);
}

TEST_F(MvccTest, ReleaseUnpinnedMovesTheHorizonToTheTip) {
  ASSERT_TRUE(tree().Put("k", "v").ok());
  SnapshotService scs = MakeService(/*k=*/30.0, /*retain=*/4);
  fake_now_ = 0;
  for (int i = 0; i < 6; i++) ASSERT_TRUE(Snap(scs).ok());  // sids 0..5
  scs.Pin(3);
  ASSERT_TRUE(scs.ReleaseUnpinned().ok());
  EXPECT_EQ(scs.LowestRetained(), 3u) << "a pinned lease caps the horizon";
  scs.Unpin(3);
  EXPECT_EQ(scs.LowestRetained(), 6u) << "the tip id after snapshot 5";
  EXPECT_EQ(scs.snapshots_created(), 6u) << "releasing creates nothing";

  // Within the staleness window a scan would reuse snapshot 5, but it was
  // released: the scan gets a fresh snapshot at the tip instead.
  auto fresh = scs.AcquireForScan();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->sid, 6u);
  std::string value;
  ASSERT_TRUE(tree().SnapshotGet(*fresh, "k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(scs.LowestRetained(), 6u);
}

TEST_F(MvccTest, GarbageCollectionFreesRetiredNodesOnly) {
  // Small pool of keys rewritten across many snapshot epochs → many
  // retired node versions.
  constexpr int kKeys = 120;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  SnapshotService scs = MakeService(0, /*retain=*/2);
  for (int epoch = 0; epoch < 6; epoch++) {
    ASSERT_TRUE(Snap(scs).ok());
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          tree().Put(EncodeUserKey(i), EncodeValue(epoch * 1000 + i)).ok());
    }
  }
  auto latest_snap = scs.latest();

  GarbageCollector gc(trees_[0].get());
  auto report = gc.CollectOnce(scs.LowestRetained());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->freed, 0u);

  // The tip and every retained snapshot still read correctly.
  std::string value;
  for (int i = 0; i < kKeys; i += 17) {
    ASSERT_TRUE(tree().Get(EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(5000 + i));
    ASSERT_TRUE(
        tree().SnapshotGet(latest_snap, EncodeUserKey(i), &value).ok());
  }

  // A second pass over the same horizon finds nothing new.
  auto report2 = gc.CollectOnce(scs.LowestRetained());
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->freed, 0u);
}

TEST_F(MvccTest, GcFreedSlabsAreRecycledByAllocator) {
  constexpr int kKeys = 100;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  SnapshotService scs = MakeService(0, /*retain=*/0);
  for (int epoch = 0; epoch < 4; epoch++) {
    ASSERT_TRUE(Snap(scs).ok());
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i + epoch)).ok());
    }
  }
  GarbageCollector gc(trees_[0].get());
  auto report = gc.CollectOnce(scs.LowestRetained());
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->freed, 0u);

  // Continued writes reuse freed slabs (extent growth slows): just verify
  // correctness under heavy reuse.
  for (int epoch = 0; epoch < 3; epoch++) {
    ASSERT_TRUE(Snap(scs).ok());
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          tree().Put(EncodeUserKey(i), EncodeValue(i + 100 + epoch)).ok());
    }
  }
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Get(EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i + 102));
  }
}

TEST_F(MvccTest, GcPassReadsAndFreesInBatches) {
  constexpr int kKeys = 1000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  SnapshotService scs = MakeService(0, /*retain=*/2);
  for (int epoch = 0; epoch < 4; epoch++) {
    ASSERT_TRUE(Snap(scs).ok());
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(epoch)).ok());
    }
  }
  const auto& layout = cluster_->layout();
  uint64_t slabs = 0;
  for (uint32_t m = 0; m < cluster_->config().n_memnodes; m++) {
    const uint64_t extent = cluster_->memnode(m)->Extent();
    if (extent <= layout.slab_base()) continue;
    slabs += (extent - layout.slab_base() + layout.node_size - 1) /
             layout.node_size;
  }

  GarbageCollector gc(trees_[0].get());
  sinfonia::Coordinator* coord = cluster_->coord();
  const uint64_t before = coord->metrics().executions.Value();
  auto report = gc.CollectOnce(scs.LowestRetained());
  ASSERT_TRUE(report.ok());
  const uint64_t executions = coord->metrics().executions.Value() - before;
  EXPECT_EQ(report->scanned, slabs);
  EXPECT_GT(report->freed, 0u);
  EXPECT_EQ(report->freed + report->skipped_live + report->skipped_non_node,
            report->scanned);
  // Per batch of 64: one read, one read of the candidates beside the
  // allocator metadata, one commit; plus the horizon publish. One
  // transaction per slab runs at least `slabs`.
  EXPECT_LE(executions, slabs / 8 + 4)
      << slabs << " slabs, " << report->freed << " freed";

  std::string value;
  for (int i = 0; i < kKeys; i += 7) {
    ASSERT_TRUE(tree().Get(EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), 3u);
  }
  auto again = gc.CollectOnce(scs.LowestRetained());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->freed, 0u);
}

// Writers on two proxies, a snapshot storm and back-to-back GC passes all
// race. Every pinned snapshot must read the same consistent cut twice, and
// the tip must end with every write.
TEST_F(MvccTest, GcRacingWritersAndSnapshotsNeverFreesReachableNodes) {
  constexpr int kKeys = 60;
  constexpr uint64_t kRounds = 30;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(0)).ok());
  }
  SnapshotService scs = MakeService(0, /*retain=*/2);
  GarbageCollector gc(trees_[0].get());
  std::atomic<bool> stop{false};
  std::atomic<int> writers_done{0};
  std::atomic<uint64_t> freed{0};
  // Every thread records a failure and stops instead of asserting: a fatal
  // assertion would return while the other threads still run. The main
  // thread stops and joins them all first, then asserts.
  std::thread snapshotter([&] {
    while (!stop) {
      Status st = scs.CreateSnapshot().status();
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok()) break;
    }
  });
  std::thread collector([&] {
    while (!stop) {
      auto report = gc.CollectOnce(scs.LowestRetained());
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      if (!report.ok()) break;
      freed += report->freed;
    }
  });
  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      bool failed = false;
      for (uint64_t round = 1; round <= kRounds && !failed; round++) {
        for (int i = static_cast<int>(w); i < kKeys && !failed; i += 2) {
          Status st = tree(w).Put(EncodeUserKey(i), EncodeValue(round));
          EXPECT_TRUE(st.ok()) << st.ToString();
          failed = !st.ok();
        }
      }
      writers_done++;
    });
  }

  // Each writer walks its keys in order, so a consistent cut sees, per
  // writer, values that never rise along the walk and span at most one
  // round.
  auto read_cut = [&](const SnapshotRef& snap) {
    std::vector<uint64_t> cut(kKeys);
    for (int i = 0; i < kKeys; i++) {
      std::string value;
      Status st = tree().SnapshotGet(snap, EncodeUserKey(i), &value);
      EXPECT_TRUE(st.ok()) << "sid " << snap.sid << " key " << i << ": "
                           << st.ToString();
      if (st.ok()) cut[i] = DecodeValue(value);
    }
    for (int w = 0; w < 2; w++) {
      for (int i = w + 2; i < kKeys; i += 2) {
        EXPECT_LE(cut[i], cut[i - 2]) << "key " << i;
        EXPECT_LE(cut[w] - cut[i], 1u) << "key " << i;
      }
    }
    return cut;
  };
  int cuts = 0;
  Status pinned = Status::OK();
  while (writers_done < 2 || cuts == 0) {
    auto snap = scs.CreateSnapshot(/*pin=*/true);
    if (!snap.ok()) {
      pinned = snap.status();
      break;
    }
    const std::vector<uint64_t> first = read_cut(*snap);
    std::this_thread::yield();
    EXPECT_EQ(read_cut(*snap), first) << "sid " << snap->sid;
    scs.Unpin(snap->sid);
    cuts++;
  }
  for (auto& t : writers) t.join();
  stop = true;
  snapshotter.join();
  collector.join();
  ASSERT_TRUE(pinned.ok()) << pinned.ToString();

  EXPECT_GT(freed.load(), 0u);
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Get(EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), kRounds);
  }
  auto last = scs.CreateSnapshot();
  ASSERT_TRUE(last.ok());
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().SnapshotGet(*last, EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), kRounds);
  }
}

TEST_F(MvccTest, SnapshotCreationBumpsTipForWriters) {
  ASSERT_TRUE(tree().Put("k", "v0").ok());
  SnapshotService scs = MakeService();
  auto s1 = Snap(scs);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->sid, 0u);
  auto s2 = Snap(scs);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->sid, 1u);
  // Writers continue against the new tip (sid 2) transparently.
  ASSERT_TRUE(tree().Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(tree().Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(MvccTest, UpdatesDuringSnapshotStormStayCorrect) {
  constexpr int kKeys = 60;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(0)).ok());
  }
  SnapshotService scs = MakeService();
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop) ASSERT_TRUE(scs.CreateSnapshot().ok());
  });
  for (int round = 1; round <= 20; round++) {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          tree(1).Put(EncodeUserKey(i), EncodeValue(round)).ok());
    }
  }
  stop = true;
  snapshotter.join();
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Get(EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), 20u);
  }
}

}  // namespace
}  // namespace minuet::mvcc
