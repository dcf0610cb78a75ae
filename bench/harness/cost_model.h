// The benchmark cost model: maps measured protocol behaviour (messages,
// round trips) to time, and measured per-memnode message demand to capacity
// limits. Every protocol action in a benchmark run is executed for real;
// ONLY the mapping to seconds is modeled here (docs/ARCHITECTURE.md, "The
// coordinator-round cost model").
//
// Calibration targets (constants fixed once against the paper's observed
// absolute operating points, then used unchanged for every experiment):
//   - Minuet read: cached traversal + 1 round trip  → ~0.25 ms
//     (paper: "below 0.4 ms at load levels up to 90% of peak").
//   - Minuet update: +1 commit round trip           → ~0.4–0.5 ms
//     (paper: "less than 1 ms on average for 20–80% peak").
//   - Per-machine read peak ≈ 35–50 K ops/s
//     (paper: ~1.3 M reads/s on 35 machines).
//   - CDB single-key ops carry a stored-procedure dispatch cost an order
//     of magnitude above Minuet's round trip (paper Fig. 11: CDB latency
//     ~10× Minuet's).
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/fabric.h"

namespace minuet::bench {

struct CostModel {
  // One network round trip, client-observed (switch + kernel + wire).
  double rtt_ms = 0.12;
  // Memnode CPU per message (request parsing, lock table, copy).
  double service_ms = 0.04;
  // Proxy-side CPU per B-tree operation (cache traversal, encode/decode).
  double proxy_ms = 0.08;
  // CDB stored-procedure dispatch (SQL layer, plan cache, session) per op.
  double cdb_dispatch_ms = 1.8;
  // Service threads per memnode (the paper pins memnodes to two cores).
  double memnode_threads = 2.0;
  // Closed-loop clients per machine (the paper runs 64 YCSB threads).
  double clients_per_machine = 64.0;

  // Unloaded latency of one operation from its trace.
  double OpLatencyMs(const net::OpTrace& t, bool cdb = false) const {
    return proxy_ms + t.round_trips * rtt_ms + t.messages * service_ms +
           (cdb ? cdb_dispatch_ms : 0.0);
  }

  // Messages/second one memnode can absorb.
  double MemnodeCapacity() const { return memnode_threads / (service_ms / 1000.0); }
};

// Aggregated measurements over a run of operations.
struct Aggregate {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double sum_latency_ms = 0;
  double sum_rounds = 0;
  double sum_msgs = 0;
  uint64_t retries = 0;
  uint64_t validation_aborts = 0;
  uint64_t nodes_copied = 0;
  std::vector<double> per_node_msgs;  // demand per memnode

  void Add(const net::OpTrace& t, double latency_ms) {
    ops++;
    sum_latency_ms += latency_ms;
    sum_rounds += t.round_trips;
    sum_msgs += t.messages;
    retries += t.retries;
    validation_aborts += t.validation_aborts;
    nodes_copied += t.nodes_copied;
    if (per_node_msgs.size() < t.per_node.size()) {
      per_node_msgs.resize(t.per_node.size(), 0);
    }
    for (size_t i = 0; i < t.per_node.size(); i++) {
      per_node_msgs[i] += t.per_node[i];
    }
  }

  void Merge(const Aggregate& o) {
    ops += o.ops;
    failed += o.failed;
    sum_latency_ms += o.sum_latency_ms;
    sum_rounds += o.sum_rounds;
    sum_msgs += o.sum_msgs;
    retries += o.retries;
    validation_aborts += o.validation_aborts;
    nodes_copied += o.nodes_copied;
    if (per_node_msgs.size() < o.per_node_msgs.size()) {
      per_node_msgs.resize(o.per_node_msgs.size(), 0);
    }
    for (size_t i = 0; i < o.per_node_msgs.size(); i++) {
      per_node_msgs[i] += o.per_node_msgs[i];
    }
  }

  double mean_latency_ms() const {
    return ops == 0 ? 0 : sum_latency_ms / ops;
  }
  double mean_rounds() const { return ops == 0 ? 0 : sum_rounds / ops; }
  double mean_msgs() const { return ops == 0 ? 0 : sum_msgs / ops; }

  // Demand the busiest memnode sees per operation.
  double max_node_msgs_per_op() const {
    double mx = 0;
    for (double v : per_node_msgs) mx = std::max(mx, v);
    return ops == 0 ? 0 : mx / ops;
  }
};

// Peak closed-loop throughput at `machines`: bounded by client think time
// (clients / latency) and by the busiest memnode's message capacity.
inline double ModeledPeakThroughput(const CostModel& m, const Aggregate& a,
                                    uint32_t machines) {
  if (a.ops == 0) return 0;
  const double demand_bound =
      machines * m.clients_per_machine / (a.mean_latency_ms() / 1000.0);
  const double hot = a.max_node_msgs_per_op();
  const double capacity_bound =
      hot > 0 ? m.MemnodeCapacity() / hot : demand_bound;
  return std::min(demand_bound, capacity_bound);
}

// Latency at a given offered load: unloaded latency with the memnode
// service component inflated by M/M/1 queueing at the busiest memnode.
inline double ModeledLatencyMs(const CostModel& m, const Aggregate& a,
                               double offered_ops_s, bool cdb = false,
                               bool p95 = false) {
  if (a.ops == 0) return 0;
  const double hot = a.max_node_msgs_per_op();
  double rho = hot > 0 ? offered_ops_s * hot / m.MemnodeCapacity() : 0;
  rho = std::min(rho, 0.99);
  const double queue_factor = 1.0 / (1.0 - rho);
  const double base = m.proxy_ms + a.mean_rounds() * m.rtt_ms +
                      (cdb ? m.cdb_dispatch_ms : 0.0);
  double lat = base + a.mean_msgs() * m.service_ms * queue_factor;
  if (p95) {
    // Exponential service: p95 of the queueing component is ~3x its mean.
    lat = base + a.mean_msgs() * m.service_ms * queue_factor * 3.0;
  }
  return lat;
}

}  // namespace minuet::bench
