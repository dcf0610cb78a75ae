// The cluster-wide metrics registry (PR 9 observability layer).
//
// Zero-dependency (common/ only): every subsystem that wants a counter owns
// an obs::Counter / obs::HistogramMetric VALUE and increments it
// unconditionally — the types are cheap enough (sharded relaxed atomics)
// that there is no "metrics off" branch on hot paths. The registry is pure
// bookkeeping on top: the Cluster's Bind*Metrics functions LINK
// component-owned metrics (and callback gauges over existing state) under
// "subsystem.name" keys, and Snapshot()/ToText()/ToJson() render the whole
// inventory. A component used outside a cluster (unit tests constructing a
// Fabric or LockTable directly) simply never registers — its counters still
// count, nothing dumps them.
//
// Thread-safety: Counter is lock-free; HistogramMetric stripes a mutex per
// shard (common/histogram.h is not thread-safe); linking and snapshotting
// take the registry mutex (cold paths only). Snapshot() runs gauge
// callbacks under that mutex, so a callback may read only atomics or
// immutable state — never take a lock that is held while linking.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace minuet::obs {

// Sharded lock-free counter: increments land on a per-thread shard (relaxed
// fetch_add on a cacheline-private atomic), reads sum the shards. Monotonic
// non-decreasing except for Reset().
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t n) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };

  static size_t ShardIndex();

  Shard shards_[kShards];
};

// Mutex-striped histogram over common/histogram.h (which is not itself
// thread-safe): Observe locks one stripe, Merged() folds the stripes.
class HistogramMetric {
 public:
  static constexpr size_t kShards = 4;

  void Observe(double v) {
    Shard& s = shards_[ShardIndex()];
    std::lock_guard<std::mutex> g(s.mu);
    s.h.Add(v);
  }

  Histogram Merged() const {
    Histogram out;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> g(s.mu);
      out.Merge(s.h);
    }
    return out;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    Histogram h;
  };

  static size_t ShardIndex();

  Shard shards_[kShards];
};

// One rendered metric in a registry snapshot.
struct Sample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string subsystem;
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;  // counter / gauge reading
  // Histogram summary (kind == kHistogram only).
  uint64_t count = 0;
  double mean = 0, p50 = 0, p99 = 0, max = 0;
};

// Name+subsystem keyed inventory of LINKED metrics: a component-owned
// counter or histogram, or a read callback. Linking a key twice is
// last-wins.
class MetricsRegistry {
 public:
  // Expose a component-owned counter / histogram. The pointee must outlive
  // the registry (in a Cluster both die together; the registry member is
  // declared first so it is destroyed last).
  void LinkCounter(const std::string& subsystem, const std::string& name,
                   const Counter* counter);
  void LinkHistogram(const std::string& subsystem, const std::string& name,
                     const HistogramMetric* hist);
  // Gauge sampled at snapshot time (cache sizes, horizon lag, pin counts).
  void LinkGauge(const std::string& subsystem, const std::string& name,
                 std::function<int64_t()> read);

  // Every metric, sorted by (subsystem, name) — the stable order the JSON
  // shape tests rely on.
  std::vector<Sample> Snapshot() const;

  // "[subsystem]" headers, then "  name = value" lines. Cluster::DumpStats
  // is this text under one durability label line.
  std::string ToText() const;
  // Stable JSON: {"subsystem": {"name": value, ...}, ...} with keys sorted;
  // histograms render as {"count":..,"mean":..,"p50":..,"p99":..,"max":..}.
  std::string ToJson() const;

  size_t size() const;

 private:
  struct Entry {
    std::string subsystem;
    std::string name;
    Sample::Kind kind;
    // Exactly one of these is set.
    const Counter* counter = nullptr;
    const HistogramMetric* hist = nullptr;
    std::function<int64_t()> read;
  };

  Entry* Find(const std::string& subsystem, const std::string& name);
  Entry& Upsert(const std::string& subsystem, const std::string& name,
                Sample::Kind kind);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

// Minimal JSON string escaping (the dump surface hand-builds its JSON, as
// the bench harness always has).
void AppendJsonString(std::string* out, const std::string& s);

}  // namespace minuet::obs
