// Shared setup helpers for the figure benchmarks: cluster construction,
// preloading, and gnuplot-friendly table printing.
#pragma once

#include <cstdio>
#include <memory>

#include "bench/harness/runner.h"
#include "cdb/cdb.h"
#include "common/key_codec.h"
#include "minuet/cluster.h"
#include "ycsb/workload.h"

namespace minuet::bench {

inline std::unique_ptr<Cluster> MakeCluster(uint32_t machines,
                                            bool dirty = true,
                                            double k_seconds = 0,
                                            uint64_t retain = 16,
                                            uint32_t node_size = 4096) {
  ClusterOptions opts;
  opts.machines = machines;
  opts.node_size = node_size;  // paper default: 4 KB tree nodes
  opts.dirty_traversals = dirty;
  opts.replication = true;
  opts.snapshot_min_interval_seconds = k_seconds;
  opts.retain_snapshots = retain;
  return std::make_unique<Cluster>(opts);
}

// Insert records [0, n) through proxy 0.
inline void Preload(Cluster& cluster, const TreeHandle& tree, uint64_t n) {
  TipView tip = cluster.proxy(0).Tip(tree);
  for (uint64_t i = 0; i < n; i++) {
    Status st = tip.Put(EncodeUserKey(i), EncodeValue(i));
    if (!st.ok()) {
      std::fprintf(stderr, "preload failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
}

inline void PreloadCdb(cdb::CdbCluster& cdb, uint32_t table, uint64_t n) {
  for (uint64_t i = 0; i < n; i++) {
    IgnoreStatus(cdb.Insert(table, EncodeUserKey(i), EncodeValue(i)));
  }
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("# %s\n", title);
  std::printf(
      "# Real protocol execution; time via the calibrated cost model "
      "(bench/harness/cost_model.h; docs/ARCHITECTURE.md).\n");
  std::printf("%s\n", columns);
}

// Counters one benchmark run also reports, so modeled numbers are auditable.
inline void PrintAudit(const char* label, const Aggregate& a) {
  std::printf(
      "#   audit[%s]: ops=%llu failed=%llu rounds/op=%.2f msgs/op=%.2f "
      "retries=%llu val_aborts=%llu cow=%llu\n",
      label, static_cast<unsigned long long>(a.ops),
      static_cast<unsigned long long>(a.failed), a.mean_rounds(),
      a.mean_msgs(), static_cast<unsigned long long>(a.retries),
      static_cast<unsigned long long>(a.validation_aborts),
      static_cast<unsigned long long>(a.nodes_copied));
}

}  // namespace minuet::bench
