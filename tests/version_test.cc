// Tests for writable clones / branching versions (§5): branch creation,
// read-only enforcement, divergence, the version-tree oracle, mainline
// selection, bounded descendant sets with discretionary copies, and
// cross-version reads.
#include <gtest/gtest.h>

#include "common/key_codec.h"
#include "common/random.h"
#include "test_cluster.h"
#include "version/version_manager.h"

namespace minuet::version {
namespace {

using btree::BTree;
using btree::SnapshotRef;
using btree::TreeOptions;
using minuet::testing::SnapshotScanAll;
using minuet::testing::TestCluster;

class VersionTest : public ::testing::Test {
 protected:
  void Build(uint32_t beta = 2) {
    managers_.clear();
    trees_.clear();
    TestCluster::Config config;
    cluster_ = std::make_unique<TestCluster>(config);
    TreeOptions topts;
    topts.beta = beta;
    trees_ = cluster_->MakeTrees(0, topts);
    ASSERT_TRUE(trees_[0]->CreateTree().ok());
    for (auto& t : trees_) {
      managers_.push_back(std::make_unique<VersionManager>(t.get()));
    }
  }

  void SetUp() override { Build(); }

  BTree& tree(uint32_t proxy = 0) { return *trees_[proxy]; }
  VersionManager& vm(uint32_t proxy = 0) { return *managers_[proxy]; }

  // Read `key` in read-only snapshot `sid` through the catalog.
  Status GetAt(uint64_t sid, const std::string& key, std::string* value) {
    auto info = vm().Info(sid);
    if (!info.ok()) return info.status();
    return tree().SnapshotGet(SnapshotRef{sid, info->root}, key, value);
  }

  std::unique_ptr<TestCluster> cluster_;
  std::vector<std::unique_ptr<BTree>> trees_;
  std::vector<std::unique_ptr<VersionManager>> managers_;
};

TEST_F(VersionTest, BranchZeroIsInitiallyWritable) {
  auto info = vm().Info(0);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->writable);
  EXPECT_EQ(info->parent, btree::CatalogEntry::kNoParent);
  ASSERT_TRUE(tree().Put("k", "v", btree::Tip::Branch(0)).ok());
  std::string value;
  ASSERT_TRUE(tree().Get("k", &value, btree::Tip::Branch(0)).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(VersionTest, BranchingFreezesParent) {
  ASSERT_TRUE(tree().Put("k", "v0", btree::Tip::Branch(0)).ok());
  auto b1 = vm().CreateBranch(0);
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(*b1, 1u);

  // Snapshot 0 is read-only now.
  EXPECT_TRUE(tree().Put("k", "poison", btree::Tip::Branch(0)).IsReadOnly());
  auto info = vm().Info(0);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->writable);
  EXPECT_EQ(info->branch_id, 1u);

  // The branch carries the parent's data and accepts writes.
  std::string value;
  ASSERT_TRUE(tree().Get("k", &value, btree::Tip::Branch(*b1)).ok());
  EXPECT_EQ(value, "v0");
  ASSERT_TRUE(tree().Put("k", "v1", btree::Tip::Branch(*b1)).ok());
  ASSERT_TRUE(tree().Get("k", &value, btree::Tip::Branch(*b1)).ok());
  EXPECT_EQ(value, "v1");

  // The frozen snapshot still reads the old value.
  ASSERT_TRUE(GetAt(0, "k", &value).ok());
  EXPECT_EQ(value, "v0");
}

TEST_F(VersionTest, SiblingBranchesDiverge) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i),
                           btree::Tip::Branch(0)).ok());
  }
  auto b1 = vm().CreateBranch(0);
  ASSERT_TRUE(b1.ok());
  auto b2 = vm().CreateBranch(0);
  ASSERT_TRUE(b2.ok());

  ASSERT_TRUE(tree().Put(EncodeUserKey(10), EncodeValue(111),
                         btree::Tip::Branch(*b1)).ok());
  ASSERT_TRUE(tree().Put(EncodeUserKey(10), EncodeValue(222),
                         btree::Tip::Branch(*b2)).ok());
  ASSERT_TRUE(tree().Put("only-b1", "x", btree::Tip::Branch(*b1)).ok());

  std::string value;
  ASSERT_TRUE(tree().Get(EncodeUserKey(10), &value,
                         btree::Tip::Branch(*b1)).ok());
  EXPECT_EQ(DecodeValue(value), 111u);
  ASSERT_TRUE(tree().Get(EncodeUserKey(10), &value,
                         btree::Tip::Branch(*b2)).ok());
  EXPECT_EQ(DecodeValue(value), 222u);
  EXPECT_TRUE(tree().Get("only-b1", &value,
                         btree::Tip::Branch(*b2)).IsNotFound());
  // Untouched keys are shared and visible in both.
  ASSERT_TRUE(tree().Get(EncodeUserKey(20), &value,
                         btree::Tip::Branch(*b1)).ok());
  EXPECT_EQ(DecodeValue(value), 20u);
  ASSERT_TRUE(tree().Get(EncodeUserKey(20), &value,
                         btree::Tip::Branch(*b2)).ok());
  EXPECT_EQ(DecodeValue(value), 20u);
}

TEST_F(VersionTest, BranchingFactorCapEnforced) {
  auto b1 = vm().CreateBranch(0);
  ASSERT_TRUE(b1.ok());
  auto b2 = vm().CreateBranch(0);
  ASSERT_TRUE(b2.ok());
  // β = 2: a third branch from the same snapshot must be refused.
  auto b3 = vm().CreateBranch(0);
  EXPECT_TRUE(b3.status().IsNoSpace());
}

TEST_F(VersionTest, LargerBetaAllowsMoreBranches) {
  Build(/*beta=*/4);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(vm().CreateBranch(0).ok()) << i;
  }
  EXPECT_TRUE(vm().CreateBranch(0).status().IsNoSpace());
}

TEST_F(VersionTest, MainlineFollowsFirstBranches) {
  // Mainline: 0 → 1 → 2 → 3; side branch 4 off snapshot 1.
  ASSERT_TRUE(vm().CreateBranch(0).ok());   // 1
  ASSERT_TRUE(vm().CreateBranch(1).ok());   // 2
  ASSERT_TRUE(vm().CreateBranch(2).ok());   // 3
  auto side = vm().CreateBranch(1);         // 4 (second branch from 1)
  ASSERT_TRUE(side.ok());
  EXPECT_EQ(*side, 4u);

  auto mainline = vm().MainlineTip();
  ASSERT_TRUE(mainline.ok());
  EXPECT_EQ(*mainline, 3u);
}

TEST_F(VersionTest, OracleAncestryMatchesVersionTree) {
  // Build Fig. 8-like structure: 0→1 (mainline), 0→2 (side),
  // 1→3, 1→4, 2→5.
  ASSERT_TRUE(vm().CreateBranch(0).ok());  // 1
  ASSERT_TRUE(vm().CreateBranch(0).ok());  // 2
  ASSERT_TRUE(vm().CreateBranch(1).ok());  // 3
  ASSERT_TRUE(vm().CreateBranch(1).ok());  // 4
  ASSERT_TRUE(vm().CreateBranch(2).ok());  // 5

  const BranchOracle* o = vm().oracle();
  EXPECT_TRUE(o->IsAncestorOrEqual(0, 5));
  EXPECT_TRUE(o->IsAncestorOrEqual(1, 4));
  EXPECT_TRUE(o->IsAncestorOrEqual(3, 3));
  EXPECT_FALSE(o->IsAncestorOrEqual(1, 5));
  EXPECT_FALSE(o->IsAncestorOrEqual(2, 3));
  EXPECT_FALSE(o->IsAncestorOrEqual(3, 1));  // descendant, not ancestor

  EXPECT_EQ(o->Lca(3, 4), 1u);
  EXPECT_EQ(o->Lca(3, 5), 0u);
  EXPECT_EQ(o->Lca(4, 1), 1u);
  EXPECT_EQ(o->Lca(5, 5), 5u);

  EXPECT_EQ(o->Depth(0), 0u);
  EXPECT_EQ(o->Depth(1), 1u);
  EXPECT_EQ(o->Depth(5), 2u);
}

TEST_F(VersionTest, DiscretionaryCopiesBoundDescendantSets) {
  // Version tree: 0 → {1, 2}; 1 → {3, 4}. A node created at snapshot 0 and
  // written at tips 3, 4 and 2 collects three copy targets; with β=2 the
  // third write must fold {3,4} under their LCA 1 via a discretionary copy.
  // Enough keys that the tree has real leaves below the root (the root
  // itself is copied eagerly at branch creation and never folds).
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(0),
                           btree::Tip::Branch(0)).ok());
  }
  ASSERT_TRUE(vm().CreateBranch(0).ok());  // 1
  ASSERT_TRUE(vm().CreateBranch(0).ok());  // 2
  ASSERT_TRUE(vm().CreateBranch(1).ok());  // 3
  ASSERT_TRUE(vm().CreateBranch(1).ok());  // 4

  ASSERT_TRUE(tree().Put(EncodeUserKey(5), EncodeValue(3),
                         btree::Tip::Branch(3)).ok());
  ASSERT_TRUE(tree().Put(EncodeUserKey(5), EncodeValue(4),
                         btree::Tip::Branch(4)).ok());
  const uint64_t disc_before = tree().stats().discretionary_copies.Value();
  ASSERT_TRUE(tree().Put(EncodeUserKey(5), EncodeValue(2),
                         btree::Tip::Branch(2)).ok());
  EXPECT_GT(tree().stats().discretionary_copies.Value(), disc_before);

  // Every version still reads its own value; the frozen interior versions
  // read the original.
  std::string value;
  ASSERT_TRUE(tree().Get(EncodeUserKey(5), &value, btree::Tip::Branch(3)).ok());
  EXPECT_EQ(DecodeValue(value), 3u);
  ASSERT_TRUE(tree().Get(EncodeUserKey(5), &value, btree::Tip::Branch(4)).ok());
  EXPECT_EQ(DecodeValue(value), 4u);
  ASSERT_TRUE(tree().Get(EncodeUserKey(5), &value, btree::Tip::Branch(2)).ok());
  EXPECT_EQ(DecodeValue(value), 2u);
  ASSERT_TRUE(GetAt(0, EncodeUserKey(5), &value).ok());
  EXPECT_EQ(DecodeValue(value), 0u);
  ASSERT_TRUE(GetAt(1, EncodeUserKey(5), &value).ok());
  EXPECT_EQ(DecodeValue(value), 0u);
}

TEST_F(VersionTest, DeepBranchChainsStayCorrect) {
  ASSERT_TRUE(tree().Put("k", "g0", btree::Tip::Branch(0)).ok());
  uint64_t tip = 0;
  for (int gen = 1; gen <= 12; gen++) {
    auto next = vm().CreateBranch(tip);
    ASSERT_TRUE(next.ok());
    tip = *next;
    ASSERT_TRUE(
        tree().Put("k", "g" + std::to_string(gen),
                   btree::Tip::Branch(tip)).ok());
  }
  // Every interior generation preserved its value.
  std::string value;
  for (int gen = 0; gen < 12; gen++) {
    ASSERT_TRUE(GetAt(gen, "k", &value).ok()) << gen;
    EXPECT_EQ(value, "g" + std::to_string(gen));
  }
  ASSERT_TRUE(tree().Get("k", &value, btree::Tip::Branch(tip)).ok());
  EXPECT_EQ(value, "g12");
}

TEST_F(VersionTest, WhatIfAnalysisScenario) {
  // The paper's motivating use: rewrite a fraction of the data in a side
  // branch, compare aggregates, original untouched.
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(
        tree().Put(EncodeUserKey(i), EncodeValue(100),
                   btree::Tip::Branch(0)).ok());
  }
  auto mainline = vm().CreateBranch(0);
  ASSERT_TRUE(mainline.ok());
  auto whatif = vm().CreateBranch(0);
  ASSERT_TRUE(whatif.ok());

  // The what-if branch doubles a subset of values.
  for (int i = 0; i < kKeys; i += 4) {
    ASSERT_TRUE(
        tree().Put(EncodeUserKey(i), EncodeValue(200),
                   btree::Tip::Branch(*whatif)).ok());
  }

  auto sum_at_branch = [&](uint64_t sid) {
    uint64_t sum = 0;
    std::string value;
    for (int i = 0; i < kKeys; i++) {
      EXPECT_TRUE(tree().Get(EncodeUserKey(i), &value,
                             btree::Tip::Branch(sid)).ok());
      sum += DecodeValue(value);
    }
    return sum;
  };
  EXPECT_EQ(sum_at_branch(*mainline), 100u * kKeys);
  EXPECT_EQ(sum_at_branch(*whatif), 100u * kKeys + 100u * (kKeys / 4));
}

TEST_F(VersionTest, SecondProxySeesBranches) {
  ASSERT_TRUE(tree(0).Put("k", "v0", btree::Tip::Branch(0)).ok());
  auto b1 = vm(0).CreateBranch(0);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(tree(0).Put("k", "v1", btree::Tip::Branch(*b1)).ok());

  // Proxy 1 (separate cache, separate oracle) reads both versions.
  std::string value;
  ASSERT_TRUE(tree(1).Get("k", &value, btree::Tip::Branch(*b1)).ok());
  EXPECT_EQ(value, "v1");
  auto info = vm(1).Info(0);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(tree(1).SnapshotGet(SnapshotRef{0, info->root}, "k",
                                    &value).ok());
  EXPECT_EQ(value, "v0");
  // Proxy 1 writing to the frozen snapshot is refused even though its
  // cached catalog entry may be stale (validation catches it).
  EXPECT_TRUE(tree(1).Put("k", "poison", btree::Tip::Branch(0)).IsReadOnly());
}

TEST_F(VersionTest, ScansWorkOnBranches) {
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(tree().Put(EncodeUserKey(i), EncodeValue(i),
                           btree::Tip::Branch(0)).ok());
  }
  auto b1 = vm().CreateBranch(0);
  ASSERT_TRUE(b1.ok());
  for (int i = 150; i < 300; i++) {
    ASSERT_TRUE(
        tree().Put(EncodeUserKey(i), EncodeValue(i),
                   btree::Tip::Branch(*b1)).ok());
  }
  // Scan the frozen parent: exactly the first 150 keys.
  auto info = vm().Info(0);
  ASSERT_TRUE(info.ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(SnapshotScanAll(tree(), SnapshotRef{0, info->root},
                              EncodeUserKey(0), 1000, &out).ok());
  EXPECT_EQ(out.size(), 150u);
  // Scan the branch tip (read-only traversal of its current root): 300.
  auto binfo = vm().Info(*b1);
  ASSERT_TRUE(binfo.ok());
  ASSERT_TRUE(SnapshotScanAll(tree(), SnapshotRef{*b1, binfo->root},
                              EncodeUserKey(0), 1000, &out).ok());
  EXPECT_EQ(out.size(), 300u);
}

TEST_F(VersionTest, RandomizedBranchWorkloadMatchesReferenceModels) {
  Build(/*beta=*/3);
  Rng rng(99);
  // Reference model per writable branch.
  std::map<uint64_t, std::map<std::string, std::string>> models;
  std::map<uint64_t, std::map<std::string, std::string>> frozen;
  std::vector<uint64_t> writable = {0};
  models[0] = {};

  for (int step = 0; step < 400; step++) {
    const uint64_t branch = writable[rng.Uniform(writable.size())];
    if (step % 50 == 49 && writable.size() < 6) {
      auto nb = vm().CreateBranch(branch);
      if (nb.ok()) {
        models[*nb] = models[branch];
        frozen[branch] = models[branch];
        writable.erase(std::find(writable.begin(), writable.end(), branch));
        writable.push_back(*nb);
      }
      continue;
    }
    const std::string key = EncodeUserKey(rng.Uniform(60));
    const std::string value = EncodeValue(rng.Next());
    ASSERT_TRUE(tree().Put(key, value, btree::Tip::Branch(branch)).ok());
    models[branch][key] = value;
  }

  // Writable branches match their models via up-to-date reads.
  for (uint64_t b : writable) {
    for (const auto& [k, v] : models[b]) {
      std::string value;
      ASSERT_TRUE(tree().Get(k, &value, btree::Tip::Branch(b)).ok())
          << "branch " << b << " key " << k;
      EXPECT_EQ(value, v);
    }
  }
  // Frozen snapshots match their state at freeze time.
  for (const auto& [sid, model] : frozen) {
    for (const auto& [k, v] : model) {
      std::string value;
      ASSERT_TRUE(GetAt(sid, k, &value).ok()) << "sid " << sid;
      EXPECT_EQ(value, v) << "sid " << sid << " key " << k;
    }
  }
}

}  // namespace
}  // namespace minuet::version
