// Tests for the observability layer: metric primitives under concurrency,
// registry link semantics, the stable JSON shape of Cluster::DumpStatsJson
// and the registry gauges behind it, trace span ordering, the abort
// taxonomy, registry-backed re-assertions of the two hot-path efficiency
// claims (warm Gets decode nothing; a cold 16-key MultiGet batches into at
// most depth + 2 coordinator rounds), and the registry's < 5% warm-Get cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/key_codec.h"
#include "minuet/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "bench_gates.h"

namespace minuet {
namespace {

ClusterOptions SmallOptions() {
  ClusterOptions opts;
  opts.machines = 4;
  opts.node_size = 1024;
  return opts;
}

// Registry-side read of one sample, the way dashboards consume it.
int64_t SampleValue(const obs::MetricsRegistry& reg, const std::string& sub,
                    const std::string& name) {
  for (const obs::Sample& s : reg.Snapshot()) {
    if (s.subsystem == sub && s.name == name) return s.value;
  }
  ADD_FAILURE() << "no sample " << sub << "." << name;
  return -1;
}

TEST(MetricsTest, CounterConcurrentIncrements) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; i++) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsTest, HistogramConcurrentObserve) {
  obs::HistogramMetric h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; i++) {
        h.Observe(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  Histogram merged = h.Merged();
  EXPECT_EQ(merged.count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(merged.max(), kThreads * kPerThread - 1.0);
}

TEST(MetricsTest, LinksAreLastWins) {
  obs::MetricsRegistry reg;
  reg.LinkGauge("sub", "depth", [] { return 7; });
  reg.LinkGauge("sub", "depth", [] { return 11; });  // last link wins
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(SampleValue(reg, "sub", "depth"), 11);

  obs::Counter first, second;
  first.Add(3);
  second.Add(5);
  reg.LinkCounter("sub", "ext", &first);
  reg.LinkCounter("sub", "ext", &second);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(SampleValue(reg, "sub", "ext"), 5);
}

TEST(MetricsTest, SnapshotSortedAndJsonStable) {
  obs::MetricsRegistry reg;
  obs::Counter zb, ay, za, ax;
  obs::HistogramMetric ah;
  zb.Add(2);
  ay.Add(1);
  za.Add(4);
  ax.Add(3);
  ah.Observe(10.0);
  // Linked deliberately out of order; Snapshot/ToJson must sort.
  reg.LinkCounter("zeta", "b", &zb);
  reg.LinkCounter("alpha", "y", &ay);
  reg.LinkCounter("zeta", "a", &za);
  reg.LinkCounter("alpha", "x", &ax);
  reg.LinkHistogram("alpha", "h", &ah);

  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (size_t i = 1; i < snap.size(); i++) {
    const bool ordered =
        snap[i - 1].subsystem < snap[i].subsystem ||
        (snap[i - 1].subsystem == snap[i].subsystem &&
         snap[i - 1].name < snap[i].name);
    EXPECT_TRUE(ordered) << snap[i - 1].subsystem << "." << snap[i - 1].name
                         << " !< " << snap[i].subsystem << "." << snap[i].name;
  }

  const std::string json = reg.ToJson();
  // Shape: {"subsystem":{"name":value,...},...}, subsystems sorted.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_LT(json.find("\"x\""), json.find("\"y\""));
  EXPECT_NE(json.find("\"b\":2"), std::string::npos);
  // Histogram summary object with the five documented fields.
  for (const char* field : {"\"count\"", "\"mean\"", "\"p50\"", "\"p99\"",
                            "\"max\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Identical registry state renders to identical bytes.
  EXPECT_EQ(json, reg.ToJson());
}

TEST(MetricsTest, DumpStatsJsonShape) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }

  // One label, then the registry: every number lives under "metrics".
  const std::string json = cluster.DumpStatsJson();
  const std::string head =
      "{\"cluster\":{\"durability\":\"none\"},\"metrics\":";
  ASSERT_EQ(json.compare(0, head.size(), head), 0) << json.substr(0, 80);
  EXPECT_EQ(json.substr(head.size()),
            cluster.metrics_registry().ToJson() + "}");
  // Registry section carries the coordinator + per-op rollups.
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"executions\""), std::string::npos);
  EXPECT_NE(json.find("\"aborts.validation_conflict\""), std::string::npos);
  // The text rendering is the same registry under the same label.
  EXPECT_EQ(cluster.DumpStats(),
            "durability=none\n" + cluster.metrics_registry().ToText());

  // An unbound cluster dumps only the label.
  ClusterOptions unbound = SmallOptions();
  unbound.metrics = false;
  Cluster quiet(unbound);
  EXPECT_EQ(quiet.DumpStatsJson(),
            "{\"cluster\":{\"durability\":\"none\"},\"metrics\":{}}");
  EXPECT_EQ(quiet.DumpStats(), "durability=none\n");
}

// The structural facts the dump used to hand-build beside the registry —
// membership, liveness, tree kind, WAL positions — are registry gauges, and
// every field of the old per-member sections has a registry key. Also
// writes the dump as STATS_metrics_test.json into the working directory,
// where the statsdump_check ctest validates its shape.
TEST(MetricsTest, DumpCarriesMembershipAndDurabilityFacts) {
  ClusterOptions opts = SmallOptions();
  opts.retain_snapshots = 2;
  opts.durability = wal::DurabilityMode::kSync;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  ASSERT_TRUE(cluster.RemoveProxy(1).ok());
  ASSERT_TRUE(cluster.RemoveMemnode(3).ok());
  auto forked = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(forked.ok());

  const obs::MetricsRegistry& reg = cluster.metrics_registry();
  EXPECT_EQ(SampleValue(reg, "proxy1", "detached"), 1);
  EXPECT_EQ(SampleValue(reg, "proxy0", "detached"), 0);
  EXPECT_EQ(SampleValue(reg, "memnode3", "retired"), 1);
  EXPECT_EQ(SampleValue(reg, "memnode3", "up"), 0);
  EXPECT_EQ(SampleValue(reg, "memnode0", "retired"), 0);
  EXPECT_EQ(SampleValue(reg, "memnode0", "up"), 1);
  EXPECT_EQ(SampleValue(reg, "tree0", "branching"), 0);
  EXPECT_EQ(SampleValue(reg, "tree1", "branching"), 1);
  EXPECT_EQ(SampleValue(reg, "cluster", "live_memnodes"), 3);
  EXPECT_EQ(SampleValue(reg, "cluster", "trees"), 2);
  EXPECT_EQ(SampleValue(reg, "fabric", "nodes"), 4);

  // Sync durability acknowledges a Put only after its log records are
  // synced, so the synced LSNs of the live memnodes advance with it.
  auto synced_total = [&] {
    int64_t total = 0;
    for (uint32_t i = 0; i < 3; i++) {
      total += SampleValue(reg, "memnode" + std::to_string(i) + ".wal",
                           "synced_lsn");
    }
    return total;
  };
  const int64_t synced_before = synced_total();
  ASSERT_TRUE(tip.Put(EncodeUserKey(7), EncodeValue(70)).ok());
  EXPECT_GT(synced_total(), synced_before);

  std::set<std::string> keys;
  for (const obs::Sample& s : reg.Snapshot()) {
    keys.insert(s.subsystem + "." + s.name);
  }
  // The old "cluster" section's numbers.
  std::vector<std::string> want = {"fabric.nodes", "cluster.live_memnodes",
                                   "cluster.trees", "fabric.total_messages"};
  // Old memnodes[i]: id (the index, gone), retired, up, messages; for a
  // live memnode its lock totals; for a durable one its WAL and store.
  for (uint32_t i = 0; i < cluster.n_memnodes(); i++) {
    const std::string m = "memnode" + std::to_string(i);
    for (const char* f : {".retired", ".up", ".messages"}) {
      want.push_back(m + f);
    }
    if (cluster.coordinator()->retired(i)) continue;
    for (const char* f : {".locks.total.acquires", ".locks.total.contended",
                          ".locks.total.timeouts", ".wal.appends",
                          ".wal.append_bytes", ".wal.fsyncs",
                          ".wal.truncations", ".wal.current_lsn",
                          ".wal.synced_lsn", ".store.checkpoint_lsn",
                          ".store.checkpoints", ".store.replayed",
                          ".store.recoveries_local",
                          ".store.recoveries_reseed"}) {
      want.push_back(m + f);
    }
  }
  // Old proxies[i]: id (gone), detached, cache.
  for (uint32_t i = 0; i < cluster.n_proxies(); i++) {
    const std::string p = "proxy" + std::to_string(i);
    for (const char* f : {".detached", ".cache.hits", ".cache.misses",
                          ".cache.evictions", ".cache.size"}) {
      want.push_back(p + f);
    }
  }
  // Old trees[slot]: slot (gone), branching, stats, snapshots, gc_freed.
  for (uint32_t slot = 0; slot < cluster.n_trees(); slot++) {
    const std::string t = "tree" + std::to_string(slot);
    for (const char* f : {".branching", ".op_aborts", ".traversal_aborts",
                          ".cow_copies", ".discretionary_copies", ".splits",
                          ".redirects", ".migrations", ".snapshots.created",
                          ".snapshots.borrowed", ".snapshots.stale_reuses",
                          ".snapshots.pinned", ".snapshots.horizon",
                          ".gc.slabs_freed"}) {
      want.push_back(t + f);
    }
  }
  for (const std::string& key : want) {
    EXPECT_EQ(keys.count(key), 1u) << key;
  }

  // The old proxies / live_proxies fields are counts over the per-proxy
  // detached gauges.
  uint32_t proxies = 0, live_proxies = 0;
  for (const obs::Sample& s : reg.Snapshot()) {
    if (s.name != "detached") continue;
    proxies++;
    if (s.value == 0) live_proxies++;
  }
  EXPECT_EQ(proxies, cluster.n_proxies());
  EXPECT_EQ(live_proxies, cluster.n_live_proxies());
  EXPECT_EQ(live_proxies, 3u);

  const std::string json = cluster.DumpStatsJson();
  EXPECT_NE(json.find("{\"cluster\":{\"durability\":\"sync\"}"),
            std::string::npos);
  std::ofstream("STATS_metrics_test.json") << json << "\n";
}

TEST(MetricsTest, TraceSpanOrdering) {
  obs::TraceContext trace;
  trace.RecordRound("1pc", 1, 2, Status::OK(), 100);
  trace.RecordRound("2pc", 3, 17, Status::Busy("lock"), 200);
  trace.RecordAttemptEnd(Status::Busy("lock"));
  trace.RecordRound("2pc", 3, 17, Status::OK(), 300);
  trace.RecordAttemptEnd(Status::OK());

  EXPECT_EQ(trace.rounds(), 3);
  EXPECT_EQ(trace.attempts(), 2);
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u);
  // Rounds are stamped with the attempt they ran under, and each attempt
  // span closes after its rounds.
  EXPECT_EQ(spans[0].kind, obs::TraceSpan::Kind::kRound);
  EXPECT_EQ(spans[0].attempt, 0);
  EXPECT_EQ(spans[1].attempt, 0);
  EXPECT_EQ(spans[2].kind, obs::TraceSpan::Kind::kAttempt);
  EXPECT_EQ(spans[2].reason, AbortReason::kLockBusy);
  EXPECT_EQ(spans[3].kind, obs::TraceSpan::Kind::kRound);
  EXPECT_EQ(spans[3].attempt, 1);
  EXPECT_EQ(spans[4].kind, obs::TraceSpan::Kind::kAttempt);
  EXPECT_EQ(spans[4].reason, AbortReason::kNone);

  const std::string timeline = trace.ToString();
  EXPECT_NE(timeline.find("round 0.0 1pc"), std::string::npos);
  // Round indices reset per attempt: the retry's first round is 1.0.
  EXPECT_NE(timeline.find("round 1.0 2pc"), std::string::npos);
  EXPECT_NE(timeline.find("attempt 0 outcome="), std::string::npos);

  trace.Clear();
  EXPECT_EQ(trace.rounds(), 0);
  EXPECT_TRUE(trace.spans().empty());
}

TEST(MetricsTest, AbortTaxonomyClassification) {
  EXPECT_EQ(obs::ClassifyAbort(Status::OK()), AbortReason::kNone);
  EXPECT_EQ(obs::ClassifyAbort(Status::Busy("x")), AbortReason::kLockBusy);
  EXPECT_EQ(obs::ClassifyAbort(
                Status::Aborted(AbortReason::kValidationConflict)),
            AbortReason::kValidationConflict);
  EXPECT_EQ(obs::ClassifyAbort(
                Status::Aborted(AbortReason::kStaleCachePointer)),
            AbortReason::kStaleCachePointer);
  EXPECT_EQ(obs::ClassifyAbort(Status::Aborted("untagged")),
            AbortReason::kOther);
  EXPECT_EQ(obs::ClassifyAbort(Status::NotFound("k")), AbortReason::kNone);
}

TEST(MetricsTest, SlowOpLogThreshold) {
  obs::SlowOpLog log;
  EXPECT_FALSE(log.armed());
  obs::TraceContext trace;
  trace.RecordRound("1pc", 1, 1, Status::OK(), 50);
  log.MaybeEmit("get", trace, 1000000);  // disarmed: nothing emitted
  EXPECT_EQ(log.emitted(), 0u);

  log.set_threshold_ns(500);
  EXPECT_TRUE(log.armed());
  log.MaybeEmit("get", trace, 499);  // below threshold
  EXPECT_EQ(log.emitted(), 0u);
  log.MaybeEmit("get", trace, 501);
  EXPECT_EQ(log.emitted(), 1u);
}

// Registry-backed re-assertion of the PR 8 hot-path claim: once the proxy
// cache is warm, Gets touch zero Node::Decode calls (all reads go through
// the zero-copy NodeView path).
TEST(MetricsTest, WarmGetZeroDecodesViaRegistry) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  for (uint64_t i = 0; i < 64; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  for (uint64_t i = 0; i < 64; i++) {  // warm the cache
    ASSERT_TRUE(tip.Get(EncodeUserKey(i), &value).ok());
  }

  const auto& reg = cluster.metrics_registry();
  const int64_t decodes_before = SampleValue(reg, "btree", "node_decodes");
  const int64_t views_before = SampleValue(reg, "btree", "view_inits");
  for (uint64_t i = 0; i < 64; i++) {
    ASSERT_TRUE(tip.Get(EncodeUserKey(i), &value).ok());
  }
  EXPECT_EQ(SampleValue(reg, "btree", "node_decodes"), decodes_before);
  EXPECT_GT(SampleValue(reg, "btree", "view_inits"), views_before);
}

// Trace-backed re-assertion of the cold-descent batching bound: a cold
// 16-key MultiGet completes in at most depth + 2 coordinator rounds.
TEST(MetricsTest, ColdMultiGetRoundsBoundedByDepth) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  for (uint64_t i = 0; i < 512; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto depth = cluster.service_tree(tree->slot())->Depth();
  ASSERT_TRUE(depth.ok());
  ASSERT_GE(*depth, 2u);  // the bound is only interesting on a real tree

  cluster.DropProxyCaches();
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 16; i++) keys.push_back(EncodeUserKey(i * 31));
  std::vector<std::optional<std::string>> values;
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(tip.MultiGet(keys, &values).ok());
  }
  ASSERT_EQ(values.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(values[i].has_value()) << i;
  }
  EXPECT_GT(trace.rounds(), 0);
  EXPECT_LE(trace.rounds(), static_cast<int>(*depth) + 2)
      << trace.ToString();
}

// Warm-Get cost of binding the registry, as a fraction: warm Gets on a
// fresh registry-bound cluster against a fresh unbound one, in alternating
// passes, compared by per-side minima.
double WarmGetRegistryOverhead() {
  constexpr uint64_t kKeys = 2000;
  ClusterOptions bound_opts;
  bound_opts.machines = 4;
  ClusterOptions unbound_opts = bound_opts;
  unbound_opts.metrics = false;
  Cluster bound(bound_opts);
  Cluster unbound(unbound_opts);
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < kKeys; i++) keys.push_back(EncodeUserKey(i));
  std::vector<TipView> tips;
  for (Cluster* c : {&bound, &unbound}) {
    auto tree = c->CreateTree();
    EXPECT_TRUE(tree.ok());
    if (!tree.ok()) return 1.0;
    tips.push_back(c->proxy(0).Tip(*tree));
    for (uint64_t i = 0; i < kKeys; i++) {
      EXPECT_TRUE(tips.back().Put(keys[i], EncodeValue(i)).ok());
    }
  }

  uint64_t misses = 0;
  std::string value;
  auto get = [&](TipView& tip, uint64_t i) {
    if (!tip.Get(keys[(i * 7919) % kKeys], &value).ok()) misses++;
  };
  for (uint64_t i = 0; i < kKeys; i++) {  // warm both proxy caches
    get(tips[0], i);
    get(tips[1], i);
  }
  const testing::SideMinima m = testing::AlternatingMinima(
      /*passes=*/200, /*iters=*/50, [&](uint64_t i) { get(tips[0], i); },
      [&](uint64_t i) { get(tips[1], i); });
  EXPECT_EQ(misses, 0u);
  const double overhead = (m.a_ns - m.b_ns) / m.b_ns;
  std::printf("[ MEASURED ] warm_get bound=%.0f ns unbound=%.0f ns "
              "overhead=%+.1f%%\n",
              m.a_ns, m.b_ns, overhead * 100);
  return overhead;
}

// Binding the registry costs < 5% on the warm-Get path. Counters count
// whether or not they are bound (there is no metrics-off branch on the data
// path), so the two clusters run the same read code; the gate catches a
// change that puts registry work on it. Heap layout alone moves one fresh
// cluster's cost against the other's by up to about 6% in either
// direction, so the gate takes the median of three cluster pairs.
TEST(MetricsTest, RegistryCostsUnderFivePercentOnWarmGet) {
  if (testing::kSanitizedBuild) GTEST_SKIP() << "timing ratio, sanitized";
  std::vector<double> overheads;
  for (int pair = 0; pair < 3; pair++) {
    overheads.push_back(WarmGetRegistryOverhead());
  }
  std::sort(overheads.begin(), overheads.end());
  EXPECT_LT(overheads[1], 0.05) << "median of three pairs";
}

}  // namespace
}  // namespace minuet
