// Proxy-side object cache (paper §2.3): caches internal B-tree nodes at the
// proxy "lazily", with NO coherence across proxies or across entries — the
// traversal safety checks (fence keys, heights, copied-snapshot ids) detect
// staleness instead. Bounded by entry count with CLOCK eviction.
//
// The cache is SHARDED by address hash: client threads sharing a proxy
// (point operations, range walks, level-synchronized batch descents) hit
// its cache concurrently, and a single global mutex would serialize them
// all. Each
// shard has its own mutex, map, CLOCK hand and hit/miss/eviction counters;
// Stats() sums the shards. Small caches collapse to one shard so per-shard
// capacity (and the CLOCK behavior tests rely on) stays meaningful.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sinfonia/addr.h"

namespace minuet::txn {

class ObjectCache {
 public:
  // Payloads are held and handed out by shared_ptr: Lookup costs a refcount
  // bump instead of a byte copy, and the pointer pins the bytes even if a
  // concurrent eviction drops the entry while a descent is still reading
  // the image (the cache is incoherent by design, but must never be
  // use-after-free by design).
  struct Entry {
    uint64_t seqnum = 0;
    std::shared_ptr<const std::string> payload;
  };

  // Aggregated counters across all shards (monitoring, tests, benches).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t size = 0;
  };

  static constexpr size_t kMaxShards = 16;
  // Below this per-shard capacity, sharding would distort eviction more
  // than it relieves contention: use fewer shards.
  static constexpr size_t kMinShardCapacity = 256;

  explicit ObjectCache(size_t capacity = 1 << 16) {
    size_t shards = capacity / kMinShardCapacity;
    if (shards < 1) shards = 1;
    if (shards > kMaxShards) shards = kMaxShards;
    const size_t per_shard = (capacity + shards - 1) / shards;
    for (size_t s = 0; s < shards; s++) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  bool Lookup(const sinfonia::Addr& addr, Entry* out) {
    return ShardFor(addr).Lookup(addr, out);
  }

  void Insert(const sinfonia::Addr& addr, uint64_t seqnum,
              std::shared_ptr<const std::string> payload) {
    if (disabled_.load(std::memory_order_acquire)) return;
    ShardFor(addr).Insert(addr, seqnum, std::move(payload));
  }
  void Insert(const sinfonia::Addr& addr, uint64_t seqnum,
              const std::string& payload) {
    Insert(addr, seqnum, std::make_shared<const std::string>(payload));
  }

  // Drop a stale entry (called when a traversal detects an inconsistency
  // that implicates this cached node).
  void Invalidate(const sinfonia::Addr& addr) {
    ShardFor(addr).Invalidate(addr);
  }

  void Clear() {
    for (auto& shard : shards_) shard->Clear();
  }

  // Permanent drain: drop everything and refuse refills, used when the
  // owning proxy is detached from its cluster (Cluster::RemoveProxy) — a
  // removed proxy must not keep node payloads alive, and in-flight
  // fetches must not repopulate it. An Insert that read the flag just
  // before it flipped may land after the sweep; that lone entry is
  // correctness-neutral (the cache is incoherent by design) and ages out
  // through normal eviction.
  void Disable() {
    disabled_.store(true, std::memory_order_release);
    Clear();
  }
  bool disabled() const {
    return disabled_.load(std::memory_order_acquire);
  }

  Stats TotalStats() const {
    Stats total;
    for (const auto& shard : shards_) {
      const Stats s = shard->ShardStats();
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
      total.size += s.size;
    }
    return total;
  }

  size_t size() const { return TotalStats().size; }
  uint64_t hits() const { return TotalStats().hits; }
  uint64_t misses() const { return TotalStats().misses; }
  uint64_t evictions() const { return TotalStats().evictions; }
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Slot {
    uint64_t seqnum = 0;
    std::shared_ptr<const std::string> payload;
    bool referenced = false;
    std::list<sinfonia::Addr>::iterator clock_pos;
  };

  class Shard {
   public:
    explicit Shard(size_t capacity) : capacity_(capacity) {}

    bool Lookup(const sinfonia::Addr& addr, Entry* out) {
      std::lock_guard<std::mutex> g(mu_);
      auto it = map_.find(addr);
      if (it == map_.end()) {
        misses_++;
        return false;
      }
      it->second.referenced = true;
      *out = Entry{it->second.seqnum, it->second.payload};
      hits_++;
      return true;
    }

    void Insert(const sinfonia::Addr& addr, uint64_t seqnum,
                std::shared_ptr<const std::string> payload) {
      std::lock_guard<std::mutex> g(mu_);
      auto it = map_.find(addr);
      if (it != map_.end()) {
        // Never replace a newer cached version with an older fetch racing
        // in.
        if (seqnum >= it->second.seqnum) {
          it->second.seqnum = seqnum;
          it->second.payload = std::move(payload);
          it->second.referenced = true;
        }
        return;
      }
      if (map_.size() >= capacity_) EvictOne();
      Slot s;
      s.seqnum = seqnum;
      s.payload = std::move(payload);
      // Fresh entries start unreferenced (classic CLOCK): an entry earns
      // its second chance by being looked up, not by being inserted.
      s.referenced = false;
      clock_.push_back(addr);
      s.clock_pos = std::prev(clock_.end());
      map_.emplace(addr, std::move(s));
    }

    void Invalidate(const sinfonia::Addr& addr) {
      std::lock_guard<std::mutex> g(mu_);
      auto it = map_.find(addr);
      if (it != map_.end()) {
        clock_.erase(it->second.clock_pos);
        map_.erase(it);
      }
    }

    void Clear() {
      std::lock_guard<std::mutex> g(mu_);
      map_.clear();
      clock_.clear();
    }

    Stats ShardStats() const {
      std::lock_guard<std::mutex> g(mu_);
      Stats s;
      s.hits = hits_;
      s.misses = misses_;
      s.evictions = evictions_;
      s.size = map_.size();
      return s;
    }

   private:
    void EvictOne() {
      // CLOCK: sweep, clearing reference bits, until an unreferenced entry.
      while (!clock_.empty()) {
        sinfonia::Addr victim = clock_.front();
        clock_.pop_front();
        auto it = map_.find(victim);
        if (it == map_.end()) continue;
        if (it->second.referenced) {
          it->second.referenced = false;
          clock_.push_back(victim);
          it->second.clock_pos = std::prev(clock_.end());
        } else {
          map_.erase(it);
          evictions_++;
          return;
        }
      }
    }

    mutable std::mutex mu_;
    size_t capacity_;
    std::unordered_map<sinfonia::Addr, Slot, sinfonia::AddrHash> map_;
    std::list<sinfonia::Addr> clock_;
    uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  };

  Shard& ShardFor(const sinfonia::Addr& addr) {
    return *shards_[sinfonia::AddrHash{}(addr) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> disabled_{false};
};

}  // namespace minuet::txn
