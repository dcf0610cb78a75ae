// Tests for the zero-copy node-local hot path: NodeView/Node parity on
// randomized nodes, corrupted-image fuzzing (Corruption, never UB), SIMD
// vs scalar key-compare equivalence, the transaction arena, and the
// "zero decodes on warm reads" property the read path promises.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "btree/node.h"
#include "btree/node_view.h"
#include "common/arena.h"
#include "common/key_codec.h"
#include "common/key_compare.h"
#include "common/random.h"
#include "test_cluster.h"
#include "bench_gates.h"

namespace minuet::btree {
namespace {

std::string RandomKey(Rng& rng, size_t max_len) {
  const size_t len = 1 + rng.Uniform(max_len);
  std::string key(len, '\0');
  for (char& c : key) c = static_cast<char>('a' + rng.Uniform(26));
  return key;
}

Node RandomNode(Rng& rng, bool leaf, size_t n_entries) {
  Node n;
  n.height = leaf ? 0 : static_cast<uint8_t>(1 + rng.Uniform(3));
  n.created_sid = rng.Uniform(1000);
  if (rng.Uniform(2) == 0) n.low_fence = RandomKey(rng, 8);
  if (rng.Uniform(2) == 0) n.high_fence = n.low_fence + "zz";
  const size_t ndesc = rng.Uniform(kMaxDescendants + 1);
  for (size_t i = 0; i < ndesc; i++) {
    n.descendants.push_back(DescendantEntry{
        rng.Uniform(1000),
        Addr{static_cast<uint32_t>(rng.Uniform(8)), rng.Uniform(1 << 20)},
        rng.Uniform(2) == 0});
  }
  std::map<std::string, std::string> kv;
  while (kv.size() < n_entries) {
    // Values may be empty; internal entries carry child pointers instead.
    kv[RandomKey(rng, 12)] =
        leaf ? std::string(rng.Uniform(20), 'v') : std::string();
  }
  for (auto& [k, v] : kv) {
    NodeEntry e;
    e.key = k;
    e.value = v;
    if (!leaf) {
      e.child =
          Addr{static_cast<uint32_t>(rng.Uniform(8)), rng.Uniform(1 << 20)};
    }
    n.entries.push_back(std::move(e));
  }
  return n;
}

// Every query NodeView answers must agree with the decoded Node.
void ExpectParity(const Node& n, const std::string& image, Rng& rng) {
  NodeView v;
  ASSERT_TRUE(v.Init(image).ok());
  EXPECT_EQ(v.height(), n.height);
  EXPECT_EQ(v.is_leaf(), n.is_leaf());
  EXPECT_EQ(v.created_sid(), n.created_sid);
  EXPECT_EQ(v.low_fence().ToString(), n.low_fence);
  EXPECT_EQ(v.high_fence().ToString(), n.high_fence);
  ASSERT_EQ(v.descendant_count(), n.descendants.size());
  for (size_t i = 0; i < n.descendants.size(); i++) {
    const DescendantEntry d = v.descendant(i);
    EXPECT_EQ(d.sid, n.descendants[i].sid);
    EXPECT_EQ(d.copy_addr, n.descendants[i].copy_addr);
    EXPECT_EQ(d.discretionary, n.descendants[i].discretionary);
  }
  ASSERT_EQ(v.num_entries(), n.entries.size());
  for (size_t i = 0; i < n.entries.size(); i++) {
    EXPECT_EQ(v.EntryKey(i).ToString(), n.entries[i].key);
    if (n.is_leaf()) {
      EXPECT_EQ(v.EntryValue(i).ToString(), n.entries[i].value);
    } else {
      EXPECT_EQ(v.EntryChild(i), n.entries[i].child);
    }
  }
  // Probe with present keys, variants of them, and random misses.
  std::vector<std::string> probes;
  for (const NodeEntry& e : n.entries) {
    probes.push_back(e.key);
    probes.push_back(e.key + "x");
    if (!e.key.empty()) probes.push_back(e.key.substr(0, e.key.size() - 1));
  }
  for (int i = 0; i < 32; i++) probes.push_back(RandomKey(rng, 12));
  for (const std::string& p : probes) {
    EXPECT_EQ(v.LowerBound(p), n.LowerBound(p)) << p;
    EXPECT_EQ(v.FindKey(p), n.FindKey(p)) << p;
    EXPECT_EQ(v.InFenceRange(p), n.InFenceRange(p)) << p;
    if (!n.is_leaf() && !n.entries.empty()) {
      EXPECT_EQ(v.ChildIndexFor(p), n.ChildIndexFor(p)) << p;
    }
  }
}

TEST(NodeViewTest, RandomizedParityWithDecodedNode) {
  Rng rng(7);
  for (int round = 0; round < 200; round++) {
    const bool leaf = rng.Uniform(2) == 0;
    const Node n = RandomNode(rng, leaf, rng.Uniform(40));
    ExpectParity(n, n.Encode(), rng);
  }
}

TEST(NodeViewTest, SpillIndexBeyondInlineCapacity) {
  // More entries than the inline offset index holds: the heap spill path
  // must answer identically.
  Rng rng(11);
  const Node n = RandomNode(rng, /*leaf=*/true, NodeView::kInlineEntries + 57);
  ASSERT_GT(n.entries.size(), NodeView::kInlineEntries);
  ExpectParity(n, n.Encode(), rng);
}

TEST(NodeViewTest, EmptyNodeAndEmptyValueParity) {
  Rng rng(13);
  Node n;
  n.height = 0;
  ExpectParity(n, n.Encode(), rng);
  n.Upsert("k", "", sinfonia::kNullAddr);
  ExpectParity(n, n.Encode(), rng);
}

// Point search over one 4 KB-class leaf (120 entries, YCSB-style 14-byte
// keys): validating the image with NodeView::Init and searching it in place
// must be at least 2x faster than materializing it with Node::Decode, the
// cost every descent level paid before the zero-copy path.
TEST(NodeViewTest, ViewSearchAtLeastTwiceAsFastAsDecode) {
  if (testing::kSanitizedBuild) GTEST_SKIP() << "timing ratio, sanitized";
  Node leaf;
  leaf.height = 0;
  for (uint64_t i = 0; i < 120; i++) {
    leaf.Upsert(EncodeUserKey(i * 7), EncodeValue(i), sinfonia::kNullAddr);
  }
  const std::string image = leaf.Encode();
  Rng rng(101);
  std::vector<std::string> probes;
  for (int i = 0; i < 1024; i++) {
    probes.push_back(EncodeUserKey(rng.Uniform(120 * 7)));
  }

  // The summed positions keep both searches observable; both sides must
  // find the same ones.
  size_t decode_sum = 0;
  size_t view_sum = 0;
  const testing::SideMinima m = testing::AlternatingMinima(
      /*passes=*/20, /*iters=*/1024,
      [&](uint64_t i) {
        auto n = Node::Decode(image);
        decode_sum += n.ok() ? n->FindKey(probes[i]) : 1000;
      },
      [&](uint64_t i) {
        NodeView v;
        view_sum += v.Init(image).ok() ? v.FindKey(probes[i]) : 1000;
      });
  EXPECT_EQ(view_sum, decode_sum);
  const double speedup = m.a_ns / m.b_ns;
  std::printf("[ MEASURED ] decode+find=%.0f ns view_init+find=%.0f ns "
              "speedup=%.2fx\n",
              m.a_ns, m.b_ns, speedup);
  EXPECT_GE(speedup, 2.0) << "decode " << m.a_ns << " ns, view " << m.b_ns
                          << " ns";
}

// Exercise every accessor of a successfully initialized view so a fuzzed
// image that slips past Init would trip ASan/UBSan rather than silently
// misbehave.
void DrainView(const NodeView& v) {
  volatile size_t sink = 0;
  sink += v.height() + v.descendant_count() + v.num_entries();
  sink += v.low_fence().size() + v.high_fence().size();
  for (size_t i = 0; i < v.descendant_count(); i++) {
    sink += v.descendant(i).copy_addr.memnode;
  }
  for (size_t i = 0; i < v.num_entries(); i++) {
    sink += v.EntryKey(i).size();
    if (v.is_leaf()) {
      sink += v.EntryValue(i).size();
    } else {
      sink += v.EntryChild(i).memnode;
    }
  }
  sink += v.LowerBound("probe");
  sink += v.FindKey("probe");
  (void)sink;
}

TEST(NodeViewTest, TruncatedImagesNeverMisbehave) {
  Rng rng(17);
  for (int round = 0; round < 20; round++) {
    const Node n = RandomNode(rng, rng.Uniform(2) == 0, 1 + rng.Uniform(20));
    const std::string image = n.Encode();
    for (size_t len = 0; len < image.size(); len++) {
      const std::string cut = image.substr(0, len);
      NodeView v;
      if (v.Init(cut).ok()) DrainView(v);  // shorter yet well-formed: fine
    }
  }
}

TEST(NodeViewTest, BitFlippedImagesNeverMisbehave) {
  Rng rng(19);
  for (int round = 0; round < 40; round++) {
    const Node n = RandomNode(rng, rng.Uniform(2) == 0, 1 + rng.Uniform(20));
    const std::string image = n.Encode();
    for (int flip = 0; flip < 200; flip++) {
      std::string bad = image;
      bad[rng.Uniform(bad.size())] ^= static_cast<char>(1 << rng.Uniform(8));
      NodeView v;
      if (v.Init(bad).ok()) DrainView(v);
    }
  }
}

TEST(NodeViewTest, GarbageImagesRejected) {
  NodeView v;
  EXPECT_TRUE(v.Init(Slice()).IsCorruption());
  EXPECT_TRUE(v.Init(Slice("short", 5)).IsCorruption());
  const std::string zeros(64, '\0');
  EXPECT_TRUE(v.Init(zeros).IsCorruption());
}

TEST(NodeViewTest, ToNodeCountsAsDecode) {
  Node n;
  n.height = 0;
  n.Upsert("a", "1", sinfonia::kNullAddr);
  const std::string image = n.Encode();
  NodeView v;
  ASSERT_TRUE(v.Init(image).ok());
  const uint64_t before = Node::DecodeCalls();
  auto owned = v.ToNode();
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(Node::DecodeCalls(), before + 1);
  EXPECT_EQ(owned->entries.size(), 1u);
}

// ---------------------------------------------------------------------------
// Key compare: the dispatched (possibly SIMD) implementation must agree
// with the scalar reference on every boundary the vector path has.

int Sign(int x) { return x < 0 ? -1 : x > 0 ? 1 : 0; }

TEST(KeyCompareTest, MatchesScalarOnVectorBoundaries) {
  const std::string base(48, 'q');
  const size_t lens[] = {0, 1, 7, 15, 16, 17, 31, 32, 33, 47, 48};
  for (size_t la : lens) {
    for (size_t lb : lens) {
      std::string a = base.substr(0, la);
      std::string b = base.substr(0, lb);
      EXPECT_EQ(Sign(CompareKeys(a, b)), Sign(CompareKeysScalar(a, b)))
          << la << " vs " << lb;
      // Diverge at every position of the shorter string.
      for (size_t pos = 0; pos < std::min(la, lb); pos++) {
        std::string c = b;
        c[pos] = 'r';
        EXPECT_EQ(Sign(CompareKeys(a, c)), Sign(CompareKeysScalar(a, c)))
            << la << "/" << lb << " diverge at " << pos;
        c[pos] = 'p';
        EXPECT_EQ(Sign(CompareKeys(a, c)), Sign(CompareKeysScalar(a, c)))
            << la << "/" << lb << " diverge at " << pos;
      }
    }
  }
}

TEST(KeyCompareTest, RandomizedAgreementWithScalar) {
  Rng rng(23);
  for (int i = 0; i < 5000; i++) {
    std::string a = RandomKey(rng, 40);
    std::string b = rng.Uniform(3) == 0 ? a : RandomKey(rng, 40);
    if (rng.Uniform(4) == 0) b = a + RandomKey(rng, 8);  // prefix relation
    EXPECT_EQ(Sign(CompareKeys(a, b)), Sign(CompareKeysScalar(a, b)));
    EXPECT_EQ(Sign(CompareKeys(b, a)), -Sign(CompareKeys(a, b)));
  }
}

TEST(KeyCompareTest, HandlesEmbeddedNulAndHighBytes) {
  const std::string a("a\0b\xff", 4);
  const std::string b("a\0b\x01", 4);
  EXPECT_GT(CompareKeys(a, b), 0);
  EXPECT_EQ(Sign(CompareKeys(a, b)), Sign(CompareKeysScalar(a, b)));
  EXPECT_EQ(CompareKeys(a, a), 0);
}

// ---------------------------------------------------------------------------
// Arena

TEST(ArenaTest, AllocationsAreAlignedAndStable) {
  Arena arena;
  std::vector<std::pair<char*, std::string>> blocks;
  Rng rng(29);
  for (int i = 0; i < 500; i++) {
    const size_t n = 1 + rng.Uniform(300);
    char* p = arena.Allocate(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    std::string fill(n, static_cast<char>('a' + i % 26));
    std::memcpy(p, fill.data(), n);
    blocks.emplace_back(p, std::move(fill));
  }
  // Earlier allocations must be untouched by later ones (stable addresses).
  for (const auto& [p, fill] : blocks) {
    EXPECT_EQ(std::string(p, fill.size()), fill);
  }
  EXPECT_GE(arena.bytes_requested(), 500u);
}

TEST(ArenaTest, OversizeAllocationsAndReset) {
  Arena arena;
  char* big = arena.Allocate(64 * 1024);  // far beyond one block
  ASSERT_NE(big, nullptr);
  std::memset(big, 'x', 64 * 1024);
  Slice dup = arena.Dup(Slice("hello"));
  EXPECT_EQ(dup.ToString(), "hello");
  EXPECT_GT(arena.block_count(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_requested(), 0u);
  char* after = arena.Allocate(16);
  ASSERT_NE(after, nullptr);
}

TEST(ArenaTest, DupEmptySlice) {
  Arena arena;
  const Slice empty = arena.Dup(Slice());
  EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------------------
// The tentpole's acceptance property: a WARM read-only descent performs no
// full node decode — every level is answered by NodeView over pinned bytes.

TEST(ZeroDecodeTest, WarmGetAndMultiGetDecodeNoNodes) {
  testing::TestCluster cluster;
  auto trees = cluster.MakeTrees(/*tree_slot=*/0);
  BTree& tree = *trees[0];
  ASSERT_TRUE(tree.CreateTree().ok());

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 200; i++) {
    keys.push_back(EncodeUserKey(i));
    ASSERT_TRUE(tree.Put(keys.back(), "v" + std::to_string(i)).ok());
  }

  // Warm the proxy cache for every path once.
  std::string value;
  for (const std::string& key : keys) {
    ASSERT_TRUE(tree.Get(key, &value).ok());
  }

  const uint64_t before = Node::DecodeCalls();
  for (const std::string& key : keys) {
    ASSERT_TRUE(tree.Get(key, &value).ok());
  }
  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(txn::RunTransaction(cluster.coord(), cluster.cache(0), {}, 4,
                                  [&](txn::DynamicTxn& t) {
                                    return tree.MultiGetInTxn(t, keys,
                                                              &values);
                                  })
                  .ok());
  for (const auto& v : values) ASSERT_TRUE(v.has_value());
  EXPECT_EQ(Node::DecodeCalls(), before)
      << "read-only warm descents must not materialize nodes";
}

}  // namespace
}  // namespace minuet::btree
