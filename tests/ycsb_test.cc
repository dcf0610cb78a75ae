// Tests for the YCSB-style workload generator: mix proportions,
// distribution behaviour, insert sequencing, determinism, and op execution
// against a reference KV — plus the ProxyKV adapter under GC pressure.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "minuet/cluster.h"
#include "minuet/proxy_kv.h"
#include "ycsb/workload.h"

namespace minuet::ycsb {
namespace {

std::map<OpType, int> Sample(const WorkloadSpec& spec, int n,
                             InsertSequence* seq, uint64_t seed = 1) {
  WorkloadGenerator gen(spec, seq, seed);
  std::map<OpType, int> counts;
  for (int i = 0; i < n; i++) counts[gen.Next().type]++;
  return counts;
}

TEST(WorkloadSpecTest, PresetsSumToOne) {
  for (const WorkloadSpec& s :
       {WorkloadSpec::A(10), WorkloadSpec::B(10), WorkloadSpec::C(10),
        WorkloadSpec::D(10), WorkloadSpec::E(10), WorkloadSpec::F(10),
        WorkloadSpec::LoadPhase(10), WorkloadSpec::ReadOnly(10, Distribution::kUniform),
        WorkloadSpec::UpdateOnly(10, Distribution::kUniform),
        WorkloadSpec::InsertOnly(10), WorkloadSpec::ScanOnly(10, 5)}) {
    EXPECT_NEAR(s.read + s.update + s.insert + s.scan + s.rmw, 1.0, 1e-9);
  }
}

TEST(WorkloadGeneratorTest, MixMatchesProportions) {
  InsertSequence seq(1000);
  const int n = 20000;
  auto counts = Sample(WorkloadSpec::A(1000), n, &seq);
  EXPECT_NEAR(counts[OpType::kRead] / double(n), 0.5, 0.03);
  EXPECT_NEAR(counts[OpType::kUpdate] / double(n), 0.5, 0.03);

  InsertSequence seq2(1000);
  counts = Sample(WorkloadSpec::B(1000), n, &seq2);
  EXPECT_NEAR(counts[OpType::kRead] / double(n), 0.95, 0.02);
  EXPECT_NEAR(counts[OpType::kUpdate] / double(n), 0.05, 0.02);
}

TEST(WorkloadGeneratorTest, PureWorkloadsArePure) {
  InsertSequence seq(100);
  auto counts = Sample(WorkloadSpec::UpdateOnly(100, Distribution::kUniform),
                       5000, &seq);
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[OpType::kUpdate], 5000);
}

TEST(WorkloadGeneratorTest, DeterministicPerSeed) {
  InsertSequence seq_a(100), seq_b(100);
  WorkloadGenerator a(WorkloadSpec::A(100), &seq_a, 42);
  WorkloadGenerator b(WorkloadSpec::A(100), &seq_b, 42);
  for (int i = 0; i < 1000; i++) {
    const Op oa = a.Next(), ob = b.Next();
    EXPECT_EQ(oa.type, ob.type);
    EXPECT_EQ(oa.record, ob.record);
  }
}

TEST(WorkloadGeneratorTest, InsertsAreUniqueAcrossGenerators) {
  InsertSequence seq(500);
  WorkloadGenerator a(WorkloadSpec::InsertOnly(0), &seq, 1);
  WorkloadGenerator b(WorkloadSpec::InsertOnly(0), &seq, 2);
  std::set<uint64_t> ids;
  for (int i = 0; i < 500; i++) {
    EXPECT_TRUE(ids.insert(a.Next().record).second);
    EXPECT_TRUE(ids.insert(b.Next().record).second);
  }
  EXPECT_EQ(*ids.begin(), 500u);  // starts at the preload boundary
}

TEST(WorkloadGeneratorTest, RecordsInRange) {
  InsertSequence seq(1000);
  for (Distribution d : {Distribution::kUniform, Distribution::kZipfian,
                         Distribution::kLatest}) {
    WorkloadGenerator gen(WorkloadSpec::ReadOnly(1000, d), &seq, 7);
    for (int i = 0; i < 5000; i++) {
      EXPECT_LT(gen.Next().record, 1000u);
    }
  }
}

TEST(WorkloadGeneratorTest, ZipfianIsSkewedUniformIsNot) {
  InsertSequence seq(1000);
  auto top_share = [&](Distribution d) {
    WorkloadGenerator gen(WorkloadSpec::ReadOnly(1000, d), &seq, 3);
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 20000; i++) counts[gen.Next().record]++;
    int max_count = 0;
    for (auto& [k, c] : counts) max_count = std::max(max_count, c);
    return max_count / 20000.0;
  };
  EXPECT_LT(top_share(Distribution::kUniform), 0.005);
  EXPECT_GT(top_share(Distribution::kZipfian), 0.02);
}

TEST(WorkloadGeneratorTest, ScanLengthsWithinBounds) {
  InsertSequence seq(100);
  WorkloadSpec spec = WorkloadSpec::E(100);
  WorkloadGenerator gen(spec, &seq, 5);
  for (int i = 0; i < 2000; i++) {
    const Op op = gen.Next();
    if (op.type == OpType::kScan) {
      EXPECT_GE(op.scan_len, spec.min_scan_len);
      EXPECT_LE(op.scan_len, spec.max_scan_len);
    }
  }
}

// Reference in-memory KV for ExecuteOp plumbing.
class MapKV : public KVInterface {
 public:
  Status Read(const std::string& key, std::string* value) override {
    auto it = map_.find(key);
    if (it == map_.end()) return Status::NotFound("");
    *value = it->second;
    reads_++;
    return Status::OK();
  }
  Status Update(const std::string& key, const std::string& value) override {
    map_[key] = value;
    updates_++;
    return Status::OK();
  }
  Status Insert(const std::string& key, const std::string& value) override {
    map_[key] = value;
    inserts_++;
    return Status::OK();
  }
  Status Scan(const std::string& start, uint32_t count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    out->clear();
    for (auto it = map_.lower_bound(start);
         it != map_.end() && out->size() < count; ++it) {
      out->emplace_back(it->first, it->second);
    }
    scans_++;
    return Status::OK();
  }
  std::map<std::string, std::string> map_;
  int reads_ = 0, updates_ = 0, inserts_ = 0, scans_ = 0;
};

TEST(ExecuteOpTest, DispatchesToTarget) {
  MapKV kv;
  Rng rng(1);
  ASSERT_TRUE(ExecuteOp(&kv, Op{OpType::kInsert, 7, 0}, &rng).ok());
  EXPECT_EQ(kv.inserts_, 1);
  EXPECT_EQ(kv.map_.count(EncodeUserKey(7)), 1u);

  ASSERT_TRUE(ExecuteOp(&kv, Op{OpType::kRead, 7, 0}, &rng).ok());
  EXPECT_EQ(kv.reads_, 1);
  // Missing reads are still OK per YCSB semantics.
  ASSERT_TRUE(ExecuteOp(&kv, Op{OpType::kRead, 999, 0}, &rng).ok());

  ASSERT_TRUE(ExecuteOp(&kv, Op{OpType::kUpdate, 7, 0}, &rng).ok());
  EXPECT_EQ(kv.updates_, 1);

  ASSERT_TRUE(ExecuteOp(&kv, Op{OpType::kScan, 0, 10}, &rng).ok());
  EXPECT_EQ(kv.scans_, 1);

  ASSERT_TRUE(ExecuteOp(&kv, Op{OpType::kReadModifyWrite, 7, 0}, &rng).ok());
  EXPECT_EQ(kv.updates_, 2);
}

TEST(ExecuteOpTest, FullWorkloadRunAgainstReferenceKV) {
  MapKV kv;
  InsertSequence seq(200);
  for (uint64_t i = 0; i < 200; i++) {
    kv.map_[EncodeUserKey(i)] = EncodeValue(i);
  }
  WorkloadGenerator gen(WorkloadSpec::E(200), &seq, 9);
  Rng rng(9);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(ExecuteOp(&kv, gen.Next(), &rng).ok());
  }
  EXPECT_GT(kv.scans_, 1500);
  EXPECT_GT(kv.inserts_, 20);
}

// The regression the refresh_lease wiring fixes: YCSB E long scans run on
// UNPINNED policy snapshots (ProxyKV's snapshot scan mode never blocks GC),
// so when snapshot churn plus garbage collection push the horizon past a
// scan's snapshot mid-flight, the cursor must re-lease and finish instead
// of dying with InvalidArgument.
TEST(ProxyKVTest, YcsbEScansSurviveGcPressure) {
  minuet::ClusterOptions opts;
  opts.machines = 4;
  opts.node_size = 1024;
  opts.retain_snapshots = 1;  // the horizon rides right behind the newest
  minuet::Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  minuet::Proxy& p = cluster.proxy(0);
  constexpr uint64_t kRecords = 400;
  {
    minuet::TipView tip = p.Tip(*tree);
    for (uint64_t i = 0; i < kRecords; i++) {
      ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
    }
  }

  // Single-pair chunks: every scan takes hundreds of cursor steps, each a
  // chance for the churn thread to have moved the horizon underneath it.
  minuet::Cursor::Options copts = minuet::ProxyKV::DefaultScanOptions();
  copts.chunk_size = 1;
  minuet::ProxyKV kv(&p, *tree, minuet::ProxyKV::ScanMode::kSnapshot, copts);

  // Snapshot storm + CoW churn + eager GC: old epochs are reclaimed as
  // fast as they freeze.
  auto* scs = cluster.snapshot_service(*tree);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    minuet::TipView tip = cluster.proxy(1).Tip(*tree);
    Rng crng(3);
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); i++) {
      for (int j = 0; j < 30; j++) {
        IgnoreStatus(
            tip.Put(EncodeUserKey(crng.Uniform(kRecords)), EncodeValue(i)));
      }
      IgnoreStatus(scs->CreateSnapshot());
      IgnoreStatus(cluster.CollectGarbage(*tree));
    }
  });

  InsertSequence seq(kRecords);
  WorkloadGenerator gen(WorkloadSpec::ScanOnly(kRecords, 300), &seq, 11);
  Rng rng(11);
  for (int i = 0; i < 120; i++) {
    const Op op = gen.Next();
    Status st = ExecuteOp(&kv, op, &rng);
    EXPECT_TRUE(st.ok()) << OpTypeName(op.type) << ": " << st.ToString();
  }
  stop.store(true);
  churn.join();
}

}  // namespace
}  // namespace minuet::ycsb
