// Sharded, striped range-lock table used by each memnode to lock the memory
// regions touched by a minitransaction (Sinfonia's phase-one locking).
//
// The byte space is cut into fixed-size lock units (a memnode uses its
// B-tree node size, so one node read covers exactly one unit); each unit
// hashes onto one of n_stripes stripes, and a range locks every stripe of
// every unit it covers. A stripe is held either SHARED, by any number of
// transactions (compare and read items), or EXCLUSIVE, by one (write
// items). Holds are owned by a transaction id so they can span the
// prepare/commit boundary of two-phase commit. Acquisition is either
// try-lock (ordinary minitransactions abort on a busy stripe) or bounded
// blocking (the blocking minitransactions of paper §4.1): one deadline
// covers the whole call, and while a blocking exclusive acquisition waits
// on a stripe no new acquisition takes that stripe ahead of it, so a
// stream of shared try-lockers cannot starve it past its deadline.
//
// Stripes and the per-transaction held bookkeeping are split across
// kMaxShards-bounded shards (global stripe id s lives in shard s %
// n_shards), so concurrent minitransactions touching different regions do
// not serialize on one global held-set mutex. Deadlock avoidance: stripes
// are acquired in sorted GLOBAL id order, a total order every caller
// shares. Each shard carries acquire/contend/timeout counters surfaced
// through the cluster metrics registry.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace minuet::obs {
class MetricsRegistry;
}  // namespace minuet::obs

namespace minuet::sinfonia {

using TxId = uint64_t;

class LockTable {
 public:
  static constexpr uint32_t kMaxShards = 16;

  // `unit` is the number of bytes covered by one lock unit before hashing;
  // objects sharing a unit (or whose units collide on a stripe) share a
  // lock, which is safe (coarser locking) but can cause spurious Busy
  // results. `n_shards` is clamped to [1, min(kMaxShards, n_stripes)].
  explicit LockTable(uint32_t n_stripes = 4096, uint32_t unit = 64,
                     uint32_t n_shards = 8);

  enum class Mode : uint8_t { kShared, kExclusive };  // ordered by strength

  struct Range {
    uint64_t offset;
    uint64_t len;
    Mode mode = Mode::kExclusive;
  };

  // Acquire every stripe covering `ranges` for `tx`, in sorted global-id
  // order (deadlock avoidance within a memnode). A stripe wanted in both
  // modes by one call is taken exclusive. A stripe `tx` already holds
  // exclusive is re-entered for free; a shared re-entry counts as another
  // hold. If `max_wait` == 0, fails immediately with Busy when any stripe
  // conflicts; otherwise waits until `max_wait` after entry — one deadline
  // for the whole call — and fails with TimedOut on expiry. On failure
  // every stripe taken by this call is released.
  Status Lock(TxId tx, const std::vector<Range>& ranges,
              std::chrono::microseconds max_wait = std::chrono::microseconds(0));

  // Release every stripe held by `tx`.
  void Unlock(TxId tx);

  // True if any stripe covering `r` is currently held, in either mode (test
  // hook; `r.mode` is ignored).
  bool IsLocked(const Range& r);

  // --- Observability -------------------------------------------------------
  struct ShardStats {
    uint64_t acquires = 0;   // stripes successfully acquired
    uint64_t contended = 0;  // acquisitions that found the stripe held
    uint64_t timeouts = 0;   // blocking waits that expired
  };
  uint32_t shard_count() const { return n_shards_; }
  ShardStats StatsForShard(uint32_t shard) const;
  ShardStats TotalStats() const;

  // Link the per-shard counters (and totals) into `registry` under
  // `subsystem`, e.g. "memnode3.locks" → "shard0.acquires", ....
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& subsystem) const;

 private:
  struct Stripe {
    std::mutex mu;
    std::condition_variable cv;
    TxId owner = 0;                // exclusive holder, 0 = none
    uint32_t readers = 0;          // shared holds
    uint32_t waiting_writers = 0;  // blocking exclusive acquisitions waiting
  };

  // One stripe of a call's want/taken list (global id) or of a held list
  // (local index), with the mode it is or was taken in.
  struct Hold {
    uint32_t stripe;
    Mode mode;
  };

  struct Shard {
    std::vector<Stripe> stripes;  // global id s at local index s / n_shards
    // Which local stripes each transaction holds in THIS shard, and how.
    std::mutex held_mu;
    std::unordered_map<TxId, std::vector<Hold>> held;
    obs::Counter acquires;
    obs::Counter contended;
    obs::Counter timeouts;
  };

  uint32_t GlobalStripeFor(uint64_t slot) const {
    // Mix to avoid adjacent slots mapping to adjacent stripes.
    uint64_t h = slot * 0x9E3779B97F4A7C15ULL;
    return static_cast<uint32_t>(h >> 32) % n_stripes_;
  }
  Stripe& StripeAt(uint32_t global) {
    return shards_[global % n_shards_].stripes[global / n_shards_];
  }

  // Collect the sorted, deduplicated global stripe set for `ranges`; a
  // stripe wanted in both modes keeps the stronger one.
  std::vector<Hold> StripesFor(const std::vector<Range>& ranges) const;

  // Drop one hold of `st` by `tx` in `mode`; caller holds st.mu.
  static void ReleaseLocked(Stripe& st, TxId tx, Mode mode);

  uint32_t n_stripes_;
  uint32_t unit_;
  uint32_t n_shards_;
  std::vector<Shard> shards_;
};

}  // namespace minuet::sinfonia
