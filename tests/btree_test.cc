// Tests for the distributed B-tree: basic operations, splits and deep
// trees, multi-proxy sharing with incoherent caches, fence-key safety,
// round-trip economy, dirty vs. validated traversals, and concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/key_codec.h"
#include "common/random.h"
#include "test_cluster.h"

namespace minuet::btree {
namespace {

using minuet::testing::TestCluster;

class BTreeTest : public ::testing::Test {
 protected:
  void Build(TestCluster::Config config = {}, TreeOptions topts = {}) {
    cluster_ = std::make_unique<TestCluster>(config);
    trees_ = cluster_->MakeTrees(0, topts);
    ASSERT_TRUE(trees_[0]->CreateTree().ok());
  }

  void SetUp() override { Build(); }

  BTree& tree(uint32_t proxy = 0) { return *trees_[proxy]; }

  std::unique_ptr<TestCluster> cluster_;
  std::vector<std::unique_ptr<BTree>> trees_;
};

TEST_F(BTreeTest, PutGetSingleKey) {
  ASSERT_TRUE(tree().Put("hello", "world").ok());
  std::string value;
  ASSERT_TRUE(tree().Get("hello", &value).ok());
  EXPECT_EQ(value, "world");
}

TEST_F(BTreeTest, GetMissingIsNotFound) {
  std::string value;
  EXPECT_TRUE(tree().Get("nothing", &value).IsNotFound());
}

TEST_F(BTreeTest, PutOverwrites) {
  ASSERT_TRUE(tree().Put("k", "v1").ok());
  ASSERT_TRUE(tree().Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(tree().Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(BTreeTest, RemoveThenGetIsNotFound) {
  ASSERT_TRUE(tree().Put("k", "v").ok());
  ASSERT_TRUE(tree().Remove("k").ok());
  std::string value;
  EXPECT_TRUE(tree().Get("k", &value).IsNotFound());
}

TEST_F(BTreeTest, RemoveMissingIsNotFound) {
  EXPECT_TRUE(tree().Remove("ghost").IsNotFound());
}

TEST_F(BTreeTest, EmptyKeyRejected) {
  EXPECT_TRUE(tree().Put("", "v").IsInvalidArgument());
  std::string value;
  EXPECT_TRUE(tree().Get("", &value).IsInvalidArgument());
}

TEST_F(BTreeTest, OversizedEntryRejected) {
  const std::string big(4096, 'x');
  EXPECT_TRUE(tree().Put("key", big).IsInvalidArgument());
}

TEST_F(BTreeTest, ManyKeysForceSplitsAndStayFindable) {
  // 1 KB nodes with 14-byte keys: several levels of splits.
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i * 7), EncodeValue(i)).ok())
        << "i=" << i;
  }
  EXPECT_GT(tree().stats().splits.Value(), 10u);
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(tree().Get(EncodeUserKey(i * 7), &value).ok()) << "i=" << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
  // Keys never inserted are absent.
  std::string value;
  EXPECT_TRUE(tree().Get(EncodeUserKey(3), &value).IsNotFound());
}

TEST_F(BTreeTest, RandomOrderInsertionMatchesReferenceModel) {
  Rng rng(11);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; i++) {
    const std::string key = EncodeUserKey(rng.Uniform(500));
    if (rng.Chance(0.25) && !model.empty()) {
      Status st = tree().Remove(key);
      const bool existed = model.erase(key) > 0;
      EXPECT_EQ(st.ok(), existed);
      EXPECT_EQ(st.IsNotFound(), !existed);
    } else {
      const std::string value = EncodeValue(rng.Next());
      ASSERT_TRUE(tree().Put(key, value).ok());
      model[key] = value;
    }
  }
  for (const auto& [k, v] : model) {
    std::string value;
    ASSERT_TRUE(tree().Get(k, &value).ok()) << k;
    EXPECT_EQ(value, v);
  }
}

TEST_F(BTreeTest, TipScanReturnsSortedRange) {
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i * 2), EncodeValue(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree().TipScan(EncodeUserKey(100), 50, &out).ok());
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out[0].first, EncodeUserKey(100));
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
  EXPECT_EQ(out.back().first, EncodeUserKey(198));
}

TEST_F(BTreeTest, TipScanStopsAtTreeEnd) {
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree().TipScan(EncodeUserKey(15), 100, &out).ok());
  EXPECT_EQ(out.size(), 5u);
}

TEST_F(BTreeTest, SecondProxySeesCommittedData) {
  ASSERT_TRUE(tree(0).Put("shared", "value").ok());
  std::string value;
  ASSERT_TRUE(tree(1).Get("shared", &value).ok());
  EXPECT_EQ(value, "value");
}

TEST_F(BTreeTest, StaleProxyCacheIsToleratedAfterSplits) {
  // Proxy 1 caches the internal structure, then proxy 0 splits nodes many
  // times. Every kind of operation proxy 1 runs afterwards must still be
  // correct (fence-key aborts + retry refresh the cache). Each operation
  // starts from a freshly staled cache and must count a traversal abort,
  // which shows it really walked a stale path.
  int n_keys = 0;  // keys 0 .. n_keys-1 hold EncodeValue(key) unless noted
  auto grow = [&](int to) {
    for (; n_keys < to; n_keys++) {
      ASSERT_TRUE(tree(0).Put(EncodeUserKey(n_keys), EncodeValue(n_keys)).ok());
    }
  };
  // Warm proxy 1 on the current tree, then grow it through proxy 0.
  auto stale_cache = [&](int to) {
    std::string value;
    ASSERT_TRUE(tree(1).Get(EncodeUserKey(n_keys / 2), &value).ok());
    grow(to);
  };
  auto aborts = [&] { return tree(1).stats().traversal_aborts.Value(); };
  auto run = [&](auto&& body) {
    return txn::RunTransaction(cluster_->coord(), cluster_->cache(1), {}, 64,
                               body);
  };
  grow(50);

  // Get.
  stale_cache(1200);
  uint64_t before = aborts();
  std::string value;
  for (int i : {0, 25, 49, 50, 600, 1199}) {
    ASSERT_TRUE(tree(1).Get(EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
  EXPECT_GT(aborts(), before) << "Get";

  // MultiGet.
  stale_cache(2400);
  before = aborts();
  const std::vector<std::string> keys = {EncodeUserKey(3), EncodeUserKey(1300),
                                         EncodeUserKey(2399),
                                         EncodeUserKey(5000)};
  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(run([&](txn::DynamicTxn& t) {
                return tree(1).MultiGetInTxn(t, keys, &values);
              }).ok());
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(DecodeValue(values[0].value_or("")), 3u);
  EXPECT_EQ(DecodeValue(values[1].value_or("")), 1300u);
  EXPECT_EQ(DecodeValue(values[2].value_or("")), 2399u);
  EXPECT_FALSE(values[3].has_value());
  EXPECT_GT(aborts(), before) << "MultiGet";

  // Put.
  stale_cache(3600);
  before = aborts();
  ASSERT_TRUE(tree(1).Put(EncodeUserKey(3500), EncodeValue(7)).ok());
  EXPECT_GT(aborts(), before) << "Put";
  ASSERT_TRUE(tree(0).Get(EncodeUserKey(3500), &value).ok());
  EXPECT_EQ(DecodeValue(value), 7u);

  // Remove.
  stale_cache(4800);
  before = aborts();
  ASSERT_TRUE(tree(1).Remove(EncodeUserKey(4700)).ok());
  EXPECT_GT(aborts(), before) << "Remove";
  EXPECT_TRUE(tree(0).Get(EncodeUserKey(4700), &value).IsNotFound());

  // WriteBatch (ApplyWritesInTxn).
  stale_cache(6000);
  before = aborts();
  std::vector<BTree::WriteOp> ops(3);
  ops[0] = {BTree::WriteOp::Kind::kPut, EncodeUserKey(10), EncodeValue(11)};
  ops[1] = {BTree::WriteOp::Kind::kPut, EncodeUserKey(5900), EncodeValue(12)};
  ops[2] = {BTree::WriteOp::Kind::kRemove, EncodeUserKey(5950), ""};
  ASSERT_TRUE(run([&](txn::DynamicTxn& t) {
                return tree(1).ApplyWritesInTxn(t, ops);
              }).ok());
  EXPECT_GT(aborts(), before) << "WriteBatch";
  ASSERT_TRUE(tree(0).Get(EncodeUserKey(10), &value).ok());
  EXPECT_EQ(DecodeValue(value), 11u);
  ASSERT_TRUE(tree(0).Get(EncodeUserKey(5900), &value).ok());
  EXPECT_EQ(DecodeValue(value), 12u);
  EXPECT_TRUE(tree(0).Get(EncodeUserKey(5950), &value).IsNotFound());

  // TipScan.
  stale_cache(7200);
  before = aborts();
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree(1).TipScan(EncodeUserKey(7000), 150, &out).ok());
  EXPECT_GT(aborts(), before) << "TipScan";
  ASSERT_EQ(out.size(), 150u);
  for (size_t i = 0; i < out.size(); i++) {
    const int k = static_cast<int>(7000 + i);
    EXPECT_EQ(out[i].first, EncodeUserKey(k));
    EXPECT_EQ(DecodeValue(out[i].second), static_cast<uint64_t>(k));
  }
}

TEST_F(BTreeTest, WarmGetUsesOneRoundTrip) {
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  // Warm up the proxy cache (internal nodes + tip objects).
  std::string value;
  ASSERT_TRUE(tree().Get(EncodeUserKey(200), &value).ok());

  net::OpTrace trace;
  trace.Reset(cluster_->config().n_memnodes);
  net::Fabric::SetThreadTrace(&trace);
  ASSERT_TRUE(tree().Get(EncodeUserKey(201), &value).ok());
  net::Fabric::SetThreadTrace(nullptr);
  // The paper's best case: traverse in-cache, fetch the leaf and validate
  // the path in the same minitransaction → one round trip to one memnode.
  EXPECT_EQ(trace.round_trips, 1u);
  EXPECT_EQ(trace.messages, 1u);
}

TEST_F(BTreeTest, WarmUpdateUsesTwoRoundTrips) {
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(tree().Get(EncodeUserKey(200), &value).ok());

  net::OpTrace trace;
  trace.Reset(cluster_->config().n_memnodes);
  net::Fabric::SetThreadTrace(&trace);
  ASSERT_TRUE(tree().Put(EncodeUserKey(200), EncodeValue(9)).ok());
  net::Fabric::SetThreadTrace(nullptr);
  // Leaf fetch (1 round trip) + one-phase commit at the leaf's memnode
  // (1 round trip), no split involved.
  EXPECT_EQ(trace.round_trips, 2u);
  EXPECT_EQ(trace.messages, 2u);
}

TEST_F(BTreeTest, DirtyTraversalKeepsReadSetSmall) {
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  txn::DynamicTxn txn(cluster_->coord(), cluster_->cache(0));
  std::string value;
  ASSERT_TRUE(tree().GetInTxn(txn, EncodeUserKey(400), &value).ok());
  // Read set: tip id + tip root + leaf = 3, independent of tree depth.
  EXPECT_EQ(txn.read_set_size(), 3u);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(BTreeTest, ValidatedTraversalPutsWholePathInReadSet) {
  TreeOptions topts;
  topts.dirty_traversals = false;
  Build({}, topts);
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  txn::DynamicTxn txn(cluster_->coord(), cluster_->cache(0));
  std::string value;
  ASSERT_TRUE(tree().GetInTxn(txn, EncodeUserKey(400), &value).ok());
  // tip id + tip root + root..leaf path (≥ 2 levels at this size).
  EXPECT_GE(txn.read_set_size(), 4u);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(BTreeTest, BaselineModeIsStillCorrect) {
  TreeOptions topts;
  topts.dirty_traversals = false;
  Build({}, topts);
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  for (int i : {0, 1, 499, 999}) {
    ASSERT_TRUE(tree(1).Get(EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, MultiTreeTransactionIsAtomic) {
  auto trees_b = cluster_->MakeTrees(1);
  ASSERT_TRUE(trees_b[0]->CreateTree().ok());
  BTree& tree_a = tree();
  BTree& tree_b = *trees_b[0];

  // Atomically put into both trees.
  Status st = txn::RunTransaction(
      cluster_->coord(), cluster_->cache(0), {}, 64,
      [&](txn::DynamicTxn& t) -> Status {
        MINUET_RETURN_NOT_OK(tree_a.PutInTxn(t, "ka", "va"));
        return tree_b.PutInTxn(t, "kb", "vb");
      });
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::string value;
  ASSERT_TRUE(tree_a.Get("ka", &value).ok());
  EXPECT_EQ(value, "va");
  ASSERT_TRUE(tree_b.Get("kb", &value).ok());
  EXPECT_EQ(value, "vb");

  // A failing transaction leaves neither write behind.
  st = txn::RunTransaction(cluster_->coord(), cluster_->cache(0), {}, 4,
                           [&](txn::DynamicTxn& t) -> Status {
                             MINUET_RETURN_NOT_OK(
                                 tree_a.PutInTxn(t, "ka", "poison"));
                             MINUET_RETURN_NOT_OK(
                                 tree_b.PutInTxn(t, "kb", "poison"));
                             return Status::Corruption("deliberate failure");
                           });
  EXPECT_TRUE(st.IsCorruption());
  ASSERT_TRUE(tree_a.Get("ka", &value).ok());
  EXPECT_EQ(value, "va");
  ASSERT_TRUE(tree_b.Get("kb", &value).ok());
  EXPECT_EQ(value, "vb");
}

TEST_F(BTreeTest, DualKeyReadIsConsistent) {
  ASSERT_TRUE(tree().Put("x", "1").ok());
  ASSERT_TRUE(tree().Put("y", "1").ok());
  // Writer thread keeps x and y equal, incrementing both atomically;
  // readers must never observe x != y.
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    for (int i = 2; i < 60; i++) {
      Status st = txn::RunTransaction(
          cluster_->coord(), cluster_->cache(0), {}, 10000,
          [&](txn::DynamicTxn& t) -> Status {
            const std::string v = std::to_string(i);
            MINUET_RETURN_NOT_OK(tree(0).PutInTxn(t, "x", v));
            return tree(0).PutInTxn(t, "y", v);
          });
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop) {
      std::string x, y;
      Status st = txn::RunTransaction(
          cluster_->coord(), cluster_->cache(1), {}, 10000,
          [&](txn::DynamicTxn& t) -> Status {
            MINUET_RETURN_NOT_OK(tree(1).GetInTxn(t, "x", &x));
            return tree(1).GetInTxn(t, "y", &y);
          });
      if (st.ok() && x != y) violations++;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_F(BTreeTest, ConcurrentDisjointWritersAllSucceed) {
  constexpr int kThreads = 4, kKeys = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeys; i++) {
        const uint64_t id = static_cast<uint64_t>(t) * 100000 + i;
        ASSERT_TRUE(tree(t % 2).Put(EncodeUserKey(id), EncodeValue(id)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kKeys; i += 37) {
      const uint64_t id = static_cast<uint64_t>(t) * 100000 + i;
      std::string value;
      ASSERT_TRUE(tree().Get(EncodeUserKey(id), &value).ok());
      EXPECT_EQ(DecodeValue(value), id);
    }
  }
}

TEST_F(BTreeTest, ConflictingWriteAbortsAndRetrySucceeds) {
  // Deterministic OCC conflict: a transaction reads the leaf, another
  // proxy updates the same key, then the first transaction tries to write
  // based on its stale read. Its commit must fail validation; a retried
  // operation succeeds.
  ASSERT_TRUE(tree(0).Put("hot", "v0").ok());

  txn::DynamicTxn stale(cluster_->coord(), cluster_->cache(0));
  std::string value;
  ASSERT_TRUE(tree(0).GetInTxn(stale, "hot", &value).ok());
  EXPECT_EQ(value, "v0");

  ASSERT_TRUE(tree(1).Put("hot", "v1").ok());  // concurrent committed write

  Status st = tree(0).PutInTxn(stale, "hot", "stale-write");
  if (st.ok()) st = stale.Commit();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();

  // The standalone Put (with internal retry) still gets through.
  ASSERT_TRUE(tree(0).Put("hot", "v2").ok());
  ASSERT_TRUE(tree(1).Get("hot", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(BTreeTest, ConcurrentUpsertsOnHotKeysStayCorrect) {
  constexpr int kThreads = 4, kOps = 100;
  for (int k = 0; k < 4; k++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(k), EncodeValue(0)).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kOps; i++) {
        const std::string key = EncodeUserKey(rng.Uniform(4));
        ASSERT_TRUE(tree(t % 2).Put(key, EncodeValue(rng.Next())).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::string value;
  for (int k = 0; k < 4; k++) {
    ASSERT_TRUE(tree().Get(EncodeUserKey(k), &value).ok());
    EXPECT_EQ(value.size(), 8u);
  }
}

TEST_F(BTreeTest, StatsTrackSplits) {
  EXPECT_EQ(tree().stats().splits.Value(), 0u);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  EXPECT_GT(tree().stats().splits.Value(), 0u);
}

TEST_F(BTreeTest, WorksWithReplicationEnabled) {
  Build({.n_memnodes = 4, .n_proxies = 2, .node_size = 1024,
         .replication = true, .alloc_batch = 8});
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(tree().Get(EncodeUserKey(150), &value).ok());
  EXPECT_EQ(DecodeValue(value), 150u);
}

TEST_F(BTreeTest, SingleMemnodeClusterWorks) {
  Build({.n_memnodes = 1, .n_proxies = 1, .node_size = 1024,
         .replication = false, .alloc_batch = 8});
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(tree().Get(EncodeUserKey(123), &value).ok());
}

// Parameterized sweep: correctness across node sizes and memnode counts.
struct SweepParam {
  uint32_t node_size;
  uint32_t memnodes;
  bool dirty;
};

class BTreeSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BTreeSweepTest, InsertLookupScanHoldUnderConfig) {
  const SweepParam p = GetParam();
  TestCluster cluster({.n_memnodes = p.memnodes, .n_proxies = 2,
                       .node_size = p.node_size, .replication = false,
                       .alloc_batch = 8});
  TreeOptions topts;
  topts.dirty_traversals = p.dirty;
  auto trees = cluster.MakeTrees(0, topts);
  ASSERT_TRUE(trees[0]->CreateTree().ok());

  constexpr int kKeys = 600;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(trees[i % 2]->Put(EncodeUserKey(i * 3),
                                  EncodeValue(i)).ok());
  }
  std::string value;
  for (int i = 0; i < kKeys; i += 13) {
    ASSERT_TRUE(trees[(i + 1) % 2]->Get(EncodeUserKey(i * 3), &value).ok());
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(trees[0]->TipScan(EncodeUserKey(0), 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BTreeSweepTest,
    ::testing::Values(SweepParam{512, 1, true}, SweepParam{512, 4, true},
                      SweepParam{1024, 2, true}, SweepParam{1024, 8, true},
                      SweepParam{4096, 4, true}, SweepParam{1024, 4, false},
                      SweepParam{512, 4, false}, SweepParam{4096, 8, false}));

}  // namespace
}  // namespace minuet::btree
