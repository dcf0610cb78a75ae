// Tests for the View/Handle client API: agreement of TipView,
// SnapshotView and freshly-forked BranchView over identical histories,
// WriteBatch atomicity (including under injected memnode crash), cursor
// streaming, and snapshot lease pinning against the GC horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"
#include "net/fabric.h"

namespace minuet {
namespace {

ClusterOptions SmallOptions() {
  ClusterOptions opts;
  opts.machines = 4;
  opts.node_size = 1024;
  return opts;
}

using Rows = std::vector<std::pair<std::string, std::string>>;

void ExpectRowsMatchModel(const Rows& rows,
                          const std::map<std::string, std::string>& model,
                          const char* label) {
  ASSERT_EQ(rows.size(), model.size()) << label;
  auto it = model.begin();
  for (size_t i = 0; i < rows.size(); i++, ++it) {
    EXPECT_EQ(rows[i].first, it->first) << label << " row " << i;
    EXPECT_EQ(rows[i].second, it->second) << label << " row " << i;
  }
}

// The satellite property: the same randomized history applied through a
// TipView (linear tree) and through BranchView v0 (branching tree) yields
// views — tip, snapshot of the tip, frozen fork parent, fresh fork child —
// that all agree with the reference model and with each other.
TEST(ViewTest, TipSnapshotAndFreshBranchAgreeOnIdenticalHistories) {
  Cluster cluster(SmallOptions());
  auto linear = cluster.CreateTree(/*branching=*/false);
  auto branchy = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(linear.ok() && branchy.ok());
  Proxy& p = cluster.proxy(0);

  TipView tip = p.Tip(*linear);
  auto v0 = p.Branch(*branchy, 0);
  ASSERT_TRUE(v0.ok());

  std::map<std::string, std::string> model;
  Rng rng(2024);
  for (int step = 0; step < 600; step++) {
    const std::string key = EncodeUserKey(rng.Uniform(150));
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      const std::string value = EncodeValue(rng.Next());
      ASSERT_TRUE(tip.Put(key, value).ok());
      ASSERT_TRUE(v0->Put(key, value).ok());
      model[key] = value;
    } else if (dice < 0.75) {
      const bool existed = model.erase(key) > 0;
      Status ts = tip.Remove(key);
      Status bs = v0->Remove(key);
      EXPECT_EQ(ts.ok(), existed);
      EXPECT_EQ(bs.ok(), existed);
    } else {
      const std::string value = EncodeValue(rng.Next());
      const bool existed = model.count(key) > 0;
      Status ts = tip.Insert(key, value);
      Status bs = v0->Insert(key, value);
      EXPECT_EQ(ts.IsAlreadyExists(), existed);
      EXPECT_EQ(bs.IsAlreadyExists(), existed);
      if (!existed) model[key] = value;
    }
  }

  // Tip view agrees with the model.
  Rows rows;
  ASSERT_TRUE(tip.Scan("", 100000, &rows).ok());
  ExpectRowsMatchModel(rows, model, "tip");

  // A snapshot of that tip agrees.
  auto snap = p.Snapshot(*linear);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(snap->Scan("", 100000, &rows).ok());
  ExpectRowsMatchModel(rows, model, "snapshot");

  // Forking freezes v0; both the frozen parent and the fresh child agree.
  auto child_sid = p.CreateBranch(*branchy, 0);
  ASSERT_TRUE(child_sid.ok());
  auto frozen = p.Branch(*branchy, 0);
  auto child = p.Branch(*branchy, *child_sid);
  ASSERT_TRUE(frozen.ok() && child.ok());
  EXPECT_FALSE(frozen->writable());
  EXPECT_TRUE(child->writable());
  ASSERT_TRUE(frozen->Scan("", 100000, &rows).ok());
  ExpectRowsMatchModel(rows, model, "frozen-parent");
  ASSERT_TRUE(child->Scan("", 100000, &rows).ok());
  ExpectRowsMatchModel(rows, model, "fresh-fork");

  // Point reads agree across all three view kinds, including misses.
  std::vector<std::string> keys;
  for (int i = 0; i < 150; i += 7) keys.push_back(EncodeUserKey(i));
  std::vector<std::optional<std::string>> tip_vals, snap_vals, child_vals;
  ASSERT_TRUE(tip.MultiGet(keys, &tip_vals).ok());
  ASSERT_TRUE(snap->MultiGet(keys, &snap_vals).ok());
  ASSERT_TRUE(child->MultiGet(keys, &child_vals).ok());
  EXPECT_EQ(tip_vals, snap_vals);
  EXPECT_EQ(tip_vals, child_vals);

  // Diverging the child no longer disturbs snapshot or frozen parent.
  ASSERT_TRUE(child->Put(keys[0], "diverged").ok());
  std::string value;
  Status st = frozen->Get(keys[0], &value);
  if (st.ok()) {
    EXPECT_NE(value, "diverged");
  }
}

TEST(ViewTest, InvalidHandlesAreRejectedAtTheBoundary) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  TreeHandle bogus;  // default-constructed = invalid
  EXPECT_FALSE(bogus.valid());
  std::string value;
  EXPECT_TRUE(p.Tip(bogus).Get("k", &value).IsInvalidArgument());
  EXPECT_TRUE(p.Tip(bogus).Put("k", "v").IsInvalidArgument());
  EXPECT_TRUE(p.Snapshot(bogus).status().IsInvalidArgument());
  EXPECT_TRUE(p.RecentSnapshot(bogus).status().IsInvalidArgument());
  EXPECT_TRUE(p.Branch(bogus, 0).status().IsInvalidArgument());
  EXPECT_TRUE(p.CreateBranch(bogus, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      p.ViewAt(bogus, btree::SnapshotRef{}).status().IsInvalidArgument());
  WriteBatch batch;
  batch.Put(bogus, "k", "v");
  EXPECT_TRUE(p.Apply(batch).IsInvalidArgument());

  // A handle minted by ANOTHER cluster is rejected, even for a slot this
  // cluster also populates.
  Cluster other(SmallOptions());
  auto foreign = other.CreateTree();
  ASSERT_TRUE(foreign.ok());
  EXPECT_TRUE(p.Tip(*foreign).Put("k", "v").IsInvalidArgument());
  EXPECT_TRUE(p.Snapshot(*foreign).status().IsInvalidArgument());
  WriteBatch cross;
  cross.Put(*foreign, "k", "v");
  EXPECT_TRUE(p.Apply(cross).IsInvalidArgument());
  std::string probe;
  EXPECT_TRUE(p.Get(*tree, "k", &probe).IsNotFound());  // nothing aliased

  // Cluster-level plumbing rejects foreign/invalid handles too.
  EXPECT_TRUE(cluster.CollectGarbage(bogus).status().IsInvalidArgument());
  EXPECT_TRUE(cluster.CollectGarbage(*foreign).status().IsInvalidArgument());
  EXPECT_EQ(cluster.snapshot_service(bogus), nullptr);
  EXPECT_EQ(p.tree(bogus), nullptr);
  EXPECT_EQ(p.tree(*foreign), nullptr);
}

TEST(ViewTest, ViewsThroughRemovedProxyFailCleanly) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(2);
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }

  // Views and cursors minted BEFORE the removal: live objects whose
  // operations must degrade to InvalidArgument, never a use-after-free.
  TipView tip = p.Tip(*tree);
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());
  auto cursor = snap->NewCursor(EncodeUserKey(0));
  ASSERT_TRUE(cursor->Valid());
  cursor->Next();
  ASSERT_TRUE(cursor->Valid());

  ASSERT_TRUE(cluster.RemoveProxy(2).ok());

  std::string value;
  EXPECT_TRUE(tip.Get(EncodeUserKey(1), &value).IsInvalidArgument());
  EXPECT_TRUE(tip.Put("k", "v").IsInvalidArgument());
  EXPECT_TRUE(p.Snapshot(*tree).status().IsInvalidArgument());
  EXPECT_TRUE(p.Tip(*tree).Get("k", &value).IsInvalidArgument());
  Rows rows;
  EXPECT_TRUE(snap->Scan(EncodeUserKey(0), 1000, &rows).IsInvalidArgument());
  EXPECT_TRUE(p.Scan(*tree, EncodeUserKey(0), 10, &rows).IsInvalidArgument());
  WriteBatch batch;
  batch.Put(*tree, "k", "v");
  EXPECT_TRUE(p.Apply(batch).IsInvalidArgument());
  EXPECT_TRUE(p.Transaction([](txn::DynamicTxn&) {
                 return Status::OK();
               }).IsInvalidArgument());

  // A streaming cursor already past its buffered chunk surfaces the
  // detach as a failed (invalid) cursor rather than stale rows forever.
  int streamed = 0;
  while (cursor->Valid() && streamed < 1000) {
    cursor->Next();
    streamed++;
  }
  EXPECT_LT(streamed, 1000);
  EXPECT_TRUE(cursor->status().IsInvalidArgument());

  // The handle-validated raw-pointer lookup rejects the removed proxy;
  // the slot-indexed one keeps working (in-flight transactions hold such
  // pointers — they must stay valid for the cluster's lifetime).
  EXPECT_EQ(p.tree(*tree), nullptr);
  EXPECT_NE(p.tree(tree->slot()), nullptr);

  // Survivors are unaffected.
  ASSERT_TRUE(cluster.proxy(0).Get(*tree, EncodeUserKey(7), &value).ok());
  EXPECT_EQ(DecodeValue(value), 7u);
}

TEST(ViewTest, TipAccessToBranchingTreeIsRejected) {
  // A branching tree's linear tip shares nodes with version 0; writing it
  // through TipView (or WriteBatch) would corrupt frozen branches.
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  std::string value;
  EXPECT_TRUE(p.Put(*tree, "k", "v").IsInvalidArgument());
  EXPECT_TRUE(p.Tip(*tree).Get("k", &value).IsInvalidArgument());
  WriteBatch batch;
  batch.Put(*tree, "k", "v");
  EXPECT_TRUE(p.Apply(batch).IsInvalidArgument());
  auto cur = p.Tip(*tree).NewCursor();
  EXPECT_FALSE(cur->Valid());
  EXPECT_TRUE(cur->status().IsInvalidArgument());

  // The branch path remains the way in.
  auto v0 = p.Branch(*tree, 0);
  ASSERT_TRUE(v0.ok());
  EXPECT_TRUE(v0->Put("k", "v").ok());
}

TEST(ViewTest, WriteBatchCommitsAtomicallyAcrossTrees) {
  Cluster cluster(SmallOptions());
  auto t1 = cluster.CreateTree();
  auto t2 = cluster.CreateTree();
  ASSERT_TRUE(t1.ok() && t2.ok());
  Proxy& p = cluster.proxy(0);

  WriteBatch batch;
  batch.Put(*t1, "user", "alice");
  batch.Insert(*t2, "email", "alice@example.com");
  batch.Remove(*t1, "never-existed");  // blind delete tolerates absence
  ASSERT_TRUE(p.Apply(batch).ok());

  std::string value;
  ASSERT_TRUE(cluster.proxy(1).Get(*t1, "user", &value).ok());
  EXPECT_EQ(value, "alice");
  ASSERT_TRUE(cluster.proxy(1).Get(*t2, "email", &value).ok());
  EXPECT_EQ(value, "alice@example.com");

  // A failing strict insert poisons the WHOLE batch: the puts that share
  // its transaction must not become visible.
  WriteBatch poisoned;
  poisoned.Put(*t1, "k1", "v1");
  poisoned.Insert(*t2, "email", "other@example.com");  // already exists
  poisoned.Put(*t2, "k2", "v2");
  EXPECT_TRUE(p.Apply(poisoned).IsAlreadyExists());
  EXPECT_TRUE(p.Get(*t1, "k1", &value).IsNotFound());
  EXPECT_TRUE(p.Get(*t2, "k2", &value).IsNotFound());
  ASSERT_TRUE(p.Get(*t2, "email", &value).ok());
  EXPECT_EQ(value, "alice@example.com");
}

TEST(ViewTest, WriteBatchIsAtomicUnderMemnodeCrash) {
  ClusterOptions opts = SmallOptions();
  opts.replication = true;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  // Enough preload that later batch keys land on leaves across memnodes.
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }

  constexpr uint64_t kBatchKeys = 40;
  WriteBatch batch;
  for (uint64_t i = 0; i < kBatchKeys; i++) {
    batch.Put(*tree, EncodeUserKey(10000 + i), EncodeValue(i));
  }

  cluster.CrashMemnode(1);
  Status st = p.Apply(batch);
  cluster.RecoverMemnode(1);

  // All-or-nothing: whatever Apply reported, the batch is never partial.
  uint64_t present = 0;
  std::string value;
  for (uint64_t i = 0; i < kBatchKeys; i++) {
    if (p.Get(*tree, EncodeUserKey(10000 + i), &value).ok()) present++;
  }
  EXPECT_EQ(st.ok(), present == kBatchKeys) << st.ToString();
  EXPECT_TRUE(present == 0 || present == kBatchKeys) << present;
  EXPECT_FALSE(st.ok());  // a 40-key batch cannot dodge a down memnode

  // After recovery the identical batch commits and every key appears.
  ASSERT_TRUE(p.Apply(batch).ok());
  for (uint64_t i = 0; i < kBatchKeys; i++) {
    ASSERT_TRUE(p.Get(*tree, EncodeUserKey(10000 + i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), i);
  }
}

TEST(ViewTest, CursorStreamsWholeTreeInOrder) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;  // many leaves → many cursor chunks
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 700;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i * 2), EncodeValue(i)).ok());
  }
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());

  Cursor::Options copts;
  copts.chunk_size = 7;  // force mid-leaf chunk boundaries
  int n = 0;
  auto cur = snap->NewCursor(EncodeUserKey(0), copts);
  for (; cur->Valid(); cur->Next(), n++) {
    EXPECT_EQ(cur->key(), EncodeUserKey(n * 2));
    EXPECT_EQ(DecodeValue(cur->value()), static_cast<uint64_t>(n));
  }
  EXPECT_TRUE(cur->status().ok());
  EXPECT_EQ(n, kKeys);

  // Seek semantics: a cursor started mid-range begins at the lower bound.
  auto mid = snap->NewCursor(EncodeUserKey(101), copts);
  ASSERT_TRUE(mid->Valid());
  EXPECT_EQ(mid->key(), EncodeUserKey(102));
}

TEST(ViewTest, PinnedSnapshotHoldsGcHorizon) {
  ClusterOptions opts = SmallOptions();
  opts.retain_snapshots = 1;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 100;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto* scs = cluster.snapshot_service(*tree);

  {
    auto pinned = p.Snapshot(*tree);
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(scs->pinned_count(), 1u);
    // Snapshot storm + churn: without the pin the horizon would pass us.
    for (int epoch = 0; epoch < 6; epoch++) {
      ASSERT_TRUE(scs->CreateSnapshot().ok());
      for (int i = 0; i < kKeys; i++) {
        ASSERT_TRUE(
            p.Put(*tree, EncodeUserKey(i), EncodeValue(1000 + i)).ok());
      }
    }
    EXPECT_LE(scs->LowestRetained(), pinned->sid());
    ASSERT_TRUE(cluster.CollectGarbage(*tree).ok());

    // The pinned view still reads its frozen epoch, post-GC.
    Rows rows;
    ASSERT_TRUE(pinned->Scan("", 10000, &rows).ok());
    ASSERT_EQ(rows.size(), static_cast<size_t>(kKeys));
    EXPECT_EQ(DecodeValue(rows[42].second), 42u);
  }

  // Lease released: the horizon advances and GC reclaims the old epochs.
  EXPECT_EQ(scs->pinned_count(), 0u);
  EXPECT_GT(scs->LowestRetained(), 0u);
  auto report = cluster.CollectGarbage(*tree);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->freed, 0u);
}

TEST(ViewTest, RefreshLeaseCursorSurvivesHorizonAdvance) {
  ClusterOptions opts = SmallOptions();
  opts.retain_snapshots = 1;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 80;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto* scs = cluster.snapshot_service(*tree);
  ASSERT_TRUE(scs->CreateSnapshot().ok());
  // An UNPINNED wrap of the then-latest snapshot.
  auto stale_view = p.ViewAt(*tree, scs->latest());
  ASSERT_TRUE(stale_view.ok());
  SnapshotView stale = std::move(*stale_view);

  // Age it out: more snapshots and churn push the horizon past it.
  for (int epoch = 0; epoch < 5; epoch++) {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(999)).ok());
    }
    ASSERT_TRUE(scs->CreateSnapshot().ok());
  }
  ASSERT_GT(scs->LowestRetained(), stale.sid());

  // A refresh_lease cursor re-acquires the newest snapshot and completes;
  // the values it sees are the re-leased (current) epoch's.
  Cursor::Options copts;
  copts.refresh_lease = true;
  int n = 0;
  auto cur = stale.NewCursor("", copts);
  for (; cur->Valid(); cur->Next(), n++) {
    EXPECT_EQ(DecodeValue(cur->value()), 999u);
  }
  EXPECT_TRUE(cur->status().ok()) << cur->status().ToString();
  EXPECT_EQ(n, kKeys);
}

// The batched MultiGet must be observationally identical to a per-key Get
// loop on every view kind — same randomized history, random key sets with
// misses and duplicates included.
TEST(ViewTest, BatchedMultiGetMatchesPerKeyGets) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;  // several leaves per memnode
  Cluster cluster(opts);
  auto linear = cluster.CreateTree(/*branching=*/false);
  auto branchy = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(linear.ok() && branchy.ok());
  Proxy& p = cluster.proxy(0);

  TipView tip = p.Tip(*linear);
  auto v0 = p.Branch(*branchy, 0);
  ASSERT_TRUE(v0.ok());
  Rng rng(777);
  constexpr uint64_t kSpace = 500;
  for (int step = 0; step < 700; step++) {
    const std::string key = EncodeUserKey(rng.Uniform(kSpace));
    if (rng.NextDouble() < 0.8) {
      const std::string value = EncodeValue(rng.Next());
      ASSERT_TRUE(tip.Put(key, value).ok());
      ASSERT_TRUE(v0->Put(key, value).ok());
    } else {
      Status ts = tip.Remove(key);
      Status bs = v0->Remove(key);
      EXPECT_EQ(ts.ok(), bs.ok());
    }
  }
  auto snap = p.Snapshot(*linear);
  ASSERT_TRUE(snap.ok());

  std::vector<View*> views = {&tip, &*snap, &*v0};
  for (int round = 0; round < 6; round++) {
    std::vector<std::string> keys;
    const size_t n = 1 + rng.Uniform(60);
    for (size_t i = 0; i < n; i++) {
      // ~half the keyspace was never written: plenty of misses; an
      // occasional duplicate key exercises leaf-group sharing.
      keys.push_back(EncodeUserKey(rng.Uniform(2 * kSpace)));
      if (rng.NextDouble() < 0.1) keys.push_back(keys.back());
    }
    for (View* view : views) {
      std::vector<std::optional<std::string>> batched;
      ASSERT_TRUE(view->MultiGet(keys, &batched).ok());
      ASSERT_EQ(batched.size(), keys.size());
      for (size_t i = 0; i < keys.size(); i++) {
        std::string value;
        Status st = view->Get(keys[i], &value);
        if (st.ok()) {
          ASSERT_TRUE(batched[i].has_value()) << keys[i];
          EXPECT_EQ(*batched[i], value) << keys[i];
        } else {
          ASSERT_TRUE(st.IsNotFound()) << st.ToString();
          EXPECT_FALSE(batched[i].has_value()) << keys[i];
        }
      }
    }
  }
}

// The acceptance criterion: a MultiGet over K keys spread across M memnodes
// costs O(M) (here: one batched minitransaction, ≤ 2 round trips) in leaf
// reads — not one coordinator round per key.
TEST(ViewTest, MultiGetBatchesLeafReadsIntoOneRound) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;  // many leaves, spread across 4 memnodes
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  TipView tip = p.Tip(*tree);
  constexpr uint64_t kRecords = 600;
  for (uint64_t i = 0; i < kRecords; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i * 2), EncodeValue(i)).ok());
  }

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 40; i++) {
    // Even user keys exist (preload wrote i*2), odd ones are misses; the
    // stride spreads the keys over many distinct leaves.
    keys.push_back(EncodeUserKey(i * 28 + (i % 2)));
  }
  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(tip.MultiGet(keys, &values).ok());  // warm the proxy cache

  net::OpTrace trace;
  trace.Reset(opts.machines);
  net::Fabric::SetThreadTrace(&trace);
  ASSERT_TRUE(tip.MultiGet(keys, &values).ok());
  const uint64_t batched_rounds = trace.round_trips;
  trace.Reset(opts.machines);
  for (const std::string& key : keys) {
    std::string value;
    Status st = tip.Get(key, &value);
    ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
  }
  const uint64_t loop_rounds = trace.round_trips;
  net::Fabric::SetThreadTrace(nullptr);

  // Warm cache: the whole batched MultiGet is ONE leaf-read
  // minitransaction — 1 round trip single-node, 2 when it spans memnodes
  // (prepare + commit). The loop pays one round per key.
  EXPECT_LE(batched_rounds, 2u);
  EXPECT_GE(loop_rounds, keys.size() / 2);
  EXPECT_GT(loop_rounds, 4 * batched_rounds);

  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(values[i].has_value(), i % 2 == 0) << i;
  }
}

TEST(ViewTest, TipMultiGetIsAtomicUnderMemnodeCrash) {
  ClusterOptions opts = SmallOptions();
  opts.replication = true;
  opts.node_size = 512;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  TipView tip = p.Tip(*tree);
  constexpr uint64_t kRecords = 400;
  for (uint64_t i = 0; i < kRecords; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < kRecords; i += 10) keys.push_back(EncodeUserKey(i));
  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(tip.MultiGet(keys, &values).ok());

  // With a memnode down, a read set this wide cannot complete — and must
  // not report a partial answer.
  cluster.CrashMemnode(1);
  Status st = tip.MultiGet(keys, &values);
  EXPECT_FALSE(st.ok());
  for (const auto& v : values) EXPECT_FALSE(v.has_value());

  cluster.RecoverMemnode(1);
  ASSERT_TRUE(tip.MultiGet(keys, &values).ok());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(values[i].has_value()) << i;
    EXPECT_EQ(DecodeValue(*values[i]), i * 10);
  }
}

TEST(ViewTest, BatchedCursorStreamsWholeTreeInOrder) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;  // many leaves → many leaves per batch
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 700;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i * 2), EncodeValue(i)).ok());
  }
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());

  // A chunk of 7 pairs ends mid-leaf; one of 1000 spans many leaves read
  // in one round (and, past the per-round cap, several rounds).
  uint64_t rounds[2] = {0, 0};
  for (size_t chunk : {size_t{7}, size_t{1000}}) {
    Cursor::Options copts;
    copts.chunk_size = chunk;
    net::OpTrace trace;
    trace.Reset(opts.machines);
    net::Fabric::SetThreadTrace(&trace);
    int n = 0;
    auto cur = snap->NewCursor("", copts);
    for (; cur->Valid(); cur->Next(), n++) {
      EXPECT_EQ(cur->key(), EncodeUserKey(n * 2)) << chunk;
      EXPECT_EQ(DecodeValue(cur->value()), static_cast<uint64_t>(n)) << chunk;
    }
    net::Fabric::SetThreadTrace(nullptr);
    rounds[chunk == 7 ? 0 : 1] = trace.round_trips;
    EXPECT_TRUE(cur->status().ok()) << cur->status().ToString();
    EXPECT_EQ(n, kKeys) << chunk;

    // end_key stops the walk inside a batch exactly like a leaf boundary.
    copts.end_key = EncodeUserKey(100);
    n = 0;
    for (auto bounded = snap->NewCursor("", copts); bounded->Valid();
         bounded->Next(), n++) {
      EXPECT_LT(bounded->key(), copts.end_key);
    }
    EXPECT_EQ(n, 50) << chunk;  // records 0,2,..,98
  }
  // 700 keys over ~50 leaves: 100 small chunks against a few batches.
  EXPECT_GE(rounds[0], 100u);
  EXPECT_LE(rounds[1], 5u);
}

TEST(ViewTest, BatchedCursorMatchesPairAtATimeScanAcrossViews) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;  // deep enough for a multi-child root
  Cluster cluster(opts);
  auto linear = cluster.CreateTree(/*branching=*/false);
  auto branchy = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(linear.ok() && branchy.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 900;
  TipView tip = p.Tip(*linear);
  auto v0 = p.Branch(*branchy, 0);
  ASSERT_TRUE(v0.ok());
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
    ASSERT_TRUE(v0->Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto snap = p.Snapshot(*linear);
  ASSERT_TRUE(snap.ok());

  for (View* view : std::vector<View*>{&*snap, &*v0, &tip}) {
    for (auto [lo, hi] : std::vector<std::pair<int, int>>{
             {0, kKeys}, {113, 677}, {850, 899}, {200, 201}}) {
      Cursor::Options serial;
      serial.end_key = EncodeUserKey(hi);
      serial.chunk_size = 1;  // one pair per fetch
      Rows expected;
      ASSERT_TRUE(view->NewCursor(EncodeUserKey(lo), serial)
                      ->Drain(100000, &expected)
                      .ok());

      Cursor::Options batched = serial;
      batched.chunk_size = 100000;
      Rows got;
      ASSERT_TRUE(view->NewCursor(EncodeUserKey(lo), batched)
                      ->Drain(100000, &got)
                      .ok());
      ASSERT_EQ(got.size(), expected.size()) << lo << ".." << hi;
      EXPECT_EQ(got, expected) << lo << ".." << hi;
      EXPECT_EQ(expected.size(), static_cast<size_t>(hi - lo));
    }
  }

  // Proxy::Scan with refresh_lease respects the drain limit.
  Cursor::Options copts;
  copts.refresh_lease = true;
  copts.chunk_size = 100000;
  Rows limited;
  ASSERT_TRUE(p.Scan(*linear, EncodeUserKey(100), 7, &limited, copts).ok());
  ASSERT_EQ(limited.size(), 7u);
  for (int i = 0; i < 7; i++) {
    EXPECT_EQ(limited[i].first, EncodeUserKey(100 + i));
  }
}

// The range walk's round budget: once the proxy cache is warm and an
// earlier scan has shown the leaf fill, a 1000-key snapshot drain with
// chunk_size >= 1000 reads its whole range in one batched leaf round, and
// a tip scan of the same range adds only its commit. Leaf-at-a-time
// scans paid one round per leaf (~14 here).
TEST(ViewTest, WarmThousandKeyRangeScansCostAtMostThreeRounds) {
  ClusterOptions opts;  // 4 memnodes, 4 KiB nodes
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr uint64_t kKeys = 3000;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());
  TipView tip = p.Tip(*tree);
  Cursor::Options copts;
  copts.chunk_size = 1000;
  const std::string start = EncodeUserKey(1000);
  auto drain = [&](Rows* rows) {
    rows->clear();
    return snap->NewCursor(start, copts)->Drain(1000, rows);
  };
  Rows rows;
  ASSERT_TRUE(drain(&rows).ok());  // warm: cache and leaf fill
  ASSERT_TRUE(tip.Scan(start, 1000, &rows).ok());

  net::OpTrace trace;
  trace.Reset(opts.machines);
  net::Fabric::SetThreadTrace(&trace);
  ASSERT_TRUE(drain(&rows).ok());
  const uint64_t snapshot_rounds = trace.round_trips;
  trace.Reset(opts.machines);
  const uint64_t aborts_before = p.tree(*tree)->stats().op_aborts.Value();
  ASSERT_TRUE(tip.Scan(start, 1000, &rows).ok());
  const uint64_t tip_rounds = trace.round_trips;
  net::Fabric::SetThreadTrace(nullptr);

  ASSERT_EQ(p.tree(*tree)->stats().op_aborts.Value(), aborts_before)
      << "the tip scan retried: its rounds are not one attempt's";
  ASSERT_EQ(rows.size(), 1000u);
  for (uint64_t i = 0; i < 1000; i++) {
    EXPECT_EQ(rows[i].first, EncodeUserKey(1000 + i));
  }
  std::printf("[ MEASURED ] warm 1000-key scan rounds: snapshot %llu, "
              "tip %llu\n",
              static_cast<unsigned long long>(snapshot_rounds),
              static_cast<unsigned long long>(tip_rounds));
  EXPECT_LE(snapshot_rounds, 3u);
  EXPECT_LE(tip_rounds, 3u);
}

// A tip range scan whose leaf batch meets a leaf split it did not see: the
// proxy's cached parent still lists the pre-split leaves, so the batch
// reads the split leaf (with its shrunken high fence) followed by its old
// neighbor, the fence chain breaks, and the scan retries with a fresh
// parent — returning every key of the range exactly once.
TEST(ViewTest, TipRangeScanRetriesWhenLeafBatchMeetsSplit) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& reader = cluster.proxy(0);
  Proxy& writer = cluster.proxy(1);
  std::map<std::string, std::string> model;
  for (uint64_t i = 0; i < 600; i++) {
    const std::string key = EncodeUserKey(i * 10);
    ASSERT_TRUE(reader.Put(*tree, key, EncodeValue(i)).ok());
    model[key] = EncodeValue(i);
  }
  TipView tip = reader.Tip(*tree);
  Rows rows;
  const std::string start = EncodeUserKey(1000);
  ASSERT_TRUE(tip.Scan(start, 300, &rows).ok());  // warm cache and fill

  // Another proxy splits leaves inside the range; the reader's cached
  // parents go stale.
  for (uint64_t i = 0; i < 60; i++) {
    const std::string key = EncodeUserKey(2001 + i);
    ASSERT_TRUE(writer.Put(*tree, key, "split").ok());
    model[key] = "split";
  }
  btree::BTree* t = reader.tree(*tree);
  const uint64_t aborts_before = t->stats().traversal_aborts.Value();
  ASSERT_TRUE(tip.Scan(start, 300, &rows).ok());
  EXPECT_GT(t->stats().traversal_aborts.Value(), aborts_before)
      << "the batch should have met the split and retried";

  ASSERT_EQ(rows.size(), 300u);
  auto it = model.lower_bound(start);
  for (size_t i = 0; i < rows.size(); i++, ++it) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(rows[i].first, it->first) << i;
    EXPECT_EQ(rows[i].second, it->second) << i;
  }
}

// The cold-path acceptance criterion: with every proxy cache dropped, a
// 16-key MultiGet resolves through the level-synchronized batched descent
// in at most depth + 2 coordinator rounds (tip pair + one round per
// internal level + the grouped leaf round) — not ~K × depth like a serial
// per-key descent.
TEST(ViewTest, ColdMultiGetCostsAtMostDepthPlusTwoRounds) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  TipView tip = p.Tip(*tree);
  constexpr uint64_t kRecords = 2000;
  for (uint64_t i = 0; i < kRecords; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i * 2), EncodeValue(i)).ok());
  }
  btree::BTree* t = p.tree(*tree);
  auto depth = t->Depth();
  ASSERT_TRUE(depth.ok());
  ASSERT_GE(*depth, 3u) << "tree too shallow to exercise the frontier";
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 16; i++) {
    // Wide stride → many distinct leaves; odd ids are misses.
    keys.push_back(EncodeUserKey(i * (2 * kRecords / 16) + (i % 2)));
  }
  std::vector<std::optional<std::string>> values;

  net::OpTrace trace;
  trace.Reset(opts.machines);

  cluster.DropProxyCaches();
  net::Fabric::SetThreadTrace(&trace);
  ASSERT_TRUE(tip.MultiGet(keys, &values).ok());
  const uint64_t tip_cold = trace.round_trips;

  cluster.DropProxyCaches();
  trace.Reset(opts.machines);
  ASSERT_TRUE(snap->MultiGet(keys, &values).ok());
  const uint64_t snap_cold = trace.round_trips;

  // The pre-engine baseline: per-key descents in one transaction.
  cluster.DropProxyCaches();
  trace.Reset(opts.machines);
  ASSERT_TRUE(p.Transaction([&](txn::DynamicTxn& txn) -> Status {
                 for (const std::string& key : keys) {
                   std::string value;
                   Status st = t->GetInTxn(txn, key, &value);
                   if (!st.ok() && !st.IsNotFound()) return st;
                 }
                 return Status::OK();
               }).ok());
  const uint64_t serial_cold = trace.round_trips;
  net::Fabric::SetThreadTrace(nullptr);

  EXPECT_LE(tip_cold, *depth + 2) << "depth " << *depth;
  EXPECT_LE(snap_cold, *depth + 2) << "depth " << *depth;
  // The serial loop pays at least one round per distinct leaf.
  EXPECT_GE(serial_cold, keys.size());
  EXPECT_GT(serial_cold, 2 * tip_cold);

  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(values[i].has_value(), i % 2 == 0) << i;
  }
}

// Cold WriteBatch application rides the same engine: all target leaves
// resolve in O(depth) batched rounds, against a serial per-key PutInTxn
// loop that pays a round per leaf. Two identically-preloaded trees keep
// the comparison apples-to-apples.
TEST(ViewTest, ColdApplyResolvesLeavesThroughBatchedDescent) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;
  Cluster cluster(opts);
  auto ta = cluster.CreateTree();
  auto tb = cluster.CreateTree();
  ASSERT_TRUE(ta.ok() && tb.ok());
  Proxy& p = cluster.proxy(0);
  constexpr uint64_t kRecords = 1200;
  for (uint64_t i = 0; i < kRecords; i++) {
    ASSERT_TRUE(p.Put(*ta, EncodeUserKey(i), EncodeValue(i)).ok());
    ASSERT_TRUE(p.Put(*tb, EncodeUserKey(i), EncodeValue(i)).ok());
  }

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 16; i++) {
    keys.push_back(EncodeUserKey(i * (kRecords / 16)));
  }
  WriteBatch batch;
  for (const std::string& key : keys) batch.Put(*ta, key, "x");

  net::OpTrace trace;
  trace.Reset(opts.machines);
  cluster.DropProxyCaches();
  net::Fabric::SetThreadTrace(&trace);
  ASSERT_TRUE(p.Apply(batch).ok());
  const uint64_t batched = trace.round_trips;

  cluster.DropProxyCaches();
  trace.Reset(opts.machines);
  ASSERT_TRUE(p.Transaction([&](txn::DynamicTxn& txn) -> Status {
                 for (const std::string& key : keys) {
                   MINUET_RETURN_NOT_OK(
                       p.tree(*tb)->PutInTxn(txn, key, "x"));
                 }
                 return Status::OK();
               }).ok());
  const uint64_t serial = trace.round_trips;
  net::Fabric::SetThreadTrace(nullptr);

  EXPECT_LT(batched, serial);
  // The serial loop descends per key; the batch's leaf resolution is one
  // frontier (both still pay the same copy-on-write re-reads upward).
  EXPECT_GE(serial, batched + keys.size() / 2);

  std::string value;
  for (const std::string& key : keys) {
    ASSERT_TRUE(p.Get(*ta, key, &value).ok());
    EXPECT_EQ(value, "x");
  }
}

// The engine's Aguilera-baseline leg: with dirty traversals OFF, frontier
// levels are kCachedValidated reads (the path joins the read set and
// validates against the replicated seqnum table) — results must match the
// per-key reads, warm and cold, and batched writes must still apply.
TEST(ViewTest, BatchedPathsWorkWithValidatedTraversals) {
  ClusterOptions opts = SmallOptions();
  opts.dirty_traversals = false;  // validated paths + replicated seqnums
  opts.node_size = 512;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  TipView tip = p.Tip(*tree);
  constexpr uint64_t kRecords = 500;
  for (uint64_t i = 0; i < kRecords; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i * 2), EncodeValue(i)).ok());
  }

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 24; i++) {
    keys.push_back(EncodeUserKey(i * 40 + (i % 2)));  // odd ids miss
  }
  for (bool cold : {false, true}) {
    if (cold) cluster.DropProxyCaches();
    std::vector<std::optional<std::string>> values;
    ASSERT_TRUE(tip.MultiGet(keys, &values).ok());
    for (size_t i = 0; i < keys.size(); i++) {
      std::string value;
      Status st = tip.Get(keys[i], &value);
      ASSERT_EQ(st.ok(), values[i].has_value()) << keys[i];
      if (st.ok()) EXPECT_EQ(value, *values[i]);
    }
  }

  WriteBatch batch;
  for (uint64_t i = 0; i < 12; i++) {
    batch.Put(*tree, EncodeUserKey(i * 80), "batched");
  }
  batch.Insert(*tree, EncodeUserKey(999999), "fresh");
  cluster.DropProxyCaches();
  ASSERT_TRUE(p.Apply(batch).ok());
  std::string value;
  for (uint64_t i = 0; i < 12; i++) {
    ASSERT_TRUE(p.Get(*tree, EncodeUserKey(i * 80), &value).ok());
    EXPECT_EQ(value, "batched");
  }
  ASSERT_TRUE(p.Get(*tree, EncodeUserKey(999999), &value).ok());
  EXPECT_EQ(value, "fresh");
}

// Strict-serializability smoke for the batched path: concurrent atomic
// pair-writes (via WriteBatch) are never observed torn by tip MultiGet.
TEST(ViewTest, TipMultiGetNeverObservesTornBatches) {
  ClusterOptions opts = SmallOptions();
  opts.node_size = 512;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& writer_p = cluster.proxy(0);
  Proxy& reader_p = cluster.proxy(1);
  // Preload so the observed pair lands on well-separated leaves.
  for (uint64_t i = 0; i < 400; i++) {
    ASSERT_TRUE(writer_p.Put(*tree, EncodeUserKey(i), EncodeValue(0)).ok());
  }
  const std::string ka = EncodeUserKey(10), kb = EncodeUserKey(390);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t v = 1; !stop.load(std::memory_order_relaxed); v++) {
      WriteBatch batch;
      batch.Put(*tree, ka, EncodeValue(v));
      batch.Put(*tree, kb, EncodeValue(v));
      EXPECT_TRUE(writer_p.Apply(batch).ok());
    }
  });
  TipView tip = reader_p.Tip(*tree);
  const std::vector<std::string> keys = {ka, kb};
  for (int i = 0; i < 200; i++) {
    std::vector<std::optional<std::string>> values;
    ASSERT_TRUE(tip.MultiGet(keys, &values).ok());
    ASSERT_TRUE(values[0].has_value() && values[1].has_value());
    EXPECT_EQ(DecodeValue(*values[0]), DecodeValue(*values[1])) << i;
  }
  stop.store(true);
  writer.join();
}

// Branch-tip writes ride WriteBatch/Transaction: a batch mixing linear-tip
// and branch ops commits atomically, strict writability is enforced inside
// the transaction, and the in-txn entry points compose with other ops.
TEST(ViewTest, WriteBatchAndTransactionReachBranchTips) {
  Cluster cluster(SmallOptions());
  auto linear = cluster.CreateTree(/*branching=*/false);
  auto branchy = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(linear.ok() && branchy.ok());
  Proxy& p = cluster.proxy(0);
  auto v0 = p.Branch(*branchy, 0);
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(v0->Put("stale", "doomed").ok());

  // One atomic batch across a linear tip and a writable branch tip.
  WriteBatch batch;
  batch.Put(*linear, EncodeUserKey(1), "linear");
  batch.BranchPut(*branchy, 0, EncodeUserKey(1), "branched");
  batch.BranchPut(*branchy, 0, EncodeUserKey(2), "branched-too");
  batch.BranchRemove(*branchy, 0, "stale");
  batch.BranchRemove(*branchy, 0, "never-existed");  // blind: tolerated
  ASSERT_TRUE(p.Apply(batch).ok());

  std::string value;
  ASSERT_TRUE(p.Tip(*linear).Get(EncodeUserKey(1), &value).ok());
  EXPECT_EQ(value, "linear");
  ASSERT_TRUE(v0->Get(EncodeUserKey(1), &value).ok());
  EXPECT_EQ(value, "branched");
  ASSERT_TRUE(v0->Get(EncodeUserKey(2), &value).ok());
  EXPECT_EQ(value, "branched-too");
  EXPECT_TRUE(v0->Get("stale", &value).IsNotFound());

  // Mis-addressed batches fail up front: branch ops on a linear tree and
  // linear ops on a branching tree.
  WriteBatch bad;
  bad.BranchPut(*linear, 0, "k", "v");
  EXPECT_TRUE(p.Apply(bad).IsInvalidArgument());
  WriteBatch bad2;
  bad2.Put(*branchy, "k", "v");
  EXPECT_TRUE(p.Apply(bad2).IsInvalidArgument());

  // Forking freezes the parent: the whole batch aborts with ReadOnly.
  auto b1 = p.CreateBranch(*branchy, 0);
  ASSERT_TRUE(b1.ok());
  WriteBatch frozen;
  frozen.BranchPut(*branchy, 0, EncodeUserKey(3), "late");
  EXPECT_TRUE(p.Apply(frozen).IsReadOnly());
  EXPECT_TRUE(v0->Get(EncodeUserKey(3), &value).IsNotFound());

  // The in-txn entry points compose inside Proxy::Transaction: write the
  // fork and the linear tip together, atomically.
  btree::BTree* bt = p.tree(branchy->slot());
  btree::BTree* lt = p.tree(linear->slot());
  ASSERT_TRUE(p.Transaction([&](txn::DynamicTxn& txn) -> Status {
                 MINUET_RETURN_NOT_OK(
                     bt->PutInTxn(txn, EncodeUserKey(4), "forked",
                                  btree::Tip::Branch(*b1)));
                 MINUET_RETURN_NOT_OK(
                     bt->RemoveInTxn(txn, EncodeUserKey(2),
                                     btree::Tip::Branch(*b1)));
                 return lt->PutInTxn(txn, EncodeUserKey(4), "linear-too");
               }).ok());
  auto fork = p.Branch(*branchy, *b1);
  ASSERT_TRUE(fork.ok());
  ASSERT_TRUE(fork->Get(EncodeUserKey(4), &value).ok());
  EXPECT_EQ(value, "forked");
  EXPECT_TRUE(fork->Get(EncodeUserKey(2), &value).IsNotFound());
  ASSERT_TRUE(v0->Get(EncodeUserKey(2), &value).ok());  // parent untouched
  ASSERT_TRUE(p.Get(*linear, EncodeUserKey(4), &value).ok());
  EXPECT_EQ(value, "linear-too");
}

}  // namespace
}  // namespace minuet
