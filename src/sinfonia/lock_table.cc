#include "sinfonia/lock_table.h"

#include <algorithm>

namespace minuet::sinfonia {

LockTable::LockTable(uint32_t n_stripes, uint32_t unit, uint32_t n_shards)
    : n_stripes_(std::max<uint32_t>(1, n_stripes)),
      unit_(unit),
      n_shards_(std::clamp<uint32_t>(n_shards, 1,
                                     std::min(kMaxShards, n_stripes_))),
      shards_(n_shards_) {
  // Shard s holds global ids {s, s + n_shards, s + 2*n_shards, ...}.
  for (uint32_t s = 0; s < n_shards_; s++) {
    const uint32_t count = (n_stripes_ - s + n_shards_ - 1) / n_shards_;
    shards_[s].stripes = std::vector<Stripe>(count);
  }
}

std::vector<LockTable::Hold> LockTable::StripesFor(
    const std::vector<Range>& ranges) const {
  std::vector<Hold> out;
  for (const Range& r : ranges) {
    if (r.len == 0) continue;
    const uint64_t first = r.offset / unit_;
    const uint64_t last = (r.offset + r.len - 1) / unit_;
    for (uint64_t u = first; u <= last; u++) {
      out.push_back({GlobalStripeFor(u), r.mode});
    }
  }
  std::sort(out.begin(), out.end(), [](const Hold& a, const Hold& b) {
    return a.stripe < b.stripe;
  });
  // Deduplicate, keeping the stronger mode of each stripe.
  size_t n = 0;
  for (const Hold& h : out) {
    if (n > 0 && out[n - 1].stripe == h.stripe) {
      out[n - 1].mode = std::max(out[n - 1].mode, h.mode);
    } else {
      out[n++] = h;
    }
  }
  out.resize(n);
  return out;
}

void LockTable::ReleaseLocked(Stripe& st, TxId tx, Mode mode) {
  if (mode == Mode::kExclusive) {
    if (st.owner != tx) return;
    st.owner = 0;
  } else {
    if (st.readers == 0) return;
    if (--st.readers > 0) return;
  }
  st.cv.notify_all();
}

Status LockTable::Lock(TxId tx, const std::vector<Range>& ranges,
                       std::chrono::microseconds max_wait) {
  const auto deadline = std::chrono::steady_clock::now() + max_wait;
  std::vector<Hold> want = StripesFor(ranges);
  std::vector<Hold> taken;
  taken.reserve(want.size());

  Status failure = Status::OK();
  for (const Hold& w : want) {
    Shard& shard = shards_[w.stripe % n_shards_];
    Stripe& st = shard.stripes[w.stripe / n_shards_];
    const bool exclusive = w.mode == Mode::kExclusive;
    std::unique_lock<std::mutex> lk(st.mu);
    // Re-entrant within a transaction: an exclusive hold covers both modes.
    if (st.owner == tx) continue;
    // A new acquisition never overtakes a waiting blocking writer.
    bool got = st.owner == 0 && st.waiting_writers == 0 &&
               (!exclusive || st.readers == 0);
    if (!got) {
      shard.contended.Increment();
      if (max_wait.count() == 0) {
        failure = Status::Busy("lock stripe busy");
      } else {
        // Blocking minitransaction: wait, but only up to the call's
        // deadline so a stuck holder cannot wedge the memnode (§4.1).
        if (exclusive) {
          st.waiting_writers++;
          got = st.cv.wait_until(lk, deadline, [&st] {
            return st.owner == 0 && st.readers == 0;
          });
          // Shared waiters may proceed once no writer waits.
          if (--st.waiting_writers == 0 && !got) st.cv.notify_all();
        } else {
          got = st.cv.wait_until(lk, deadline, [&st] {
            return st.owner == 0 && st.waiting_writers == 0;
          });
        }
        if (!got) {
          shard.timeouts.Increment();
          failure = Status::TimedOut("lock wait threshold exceeded");
        }
      }
    }
    if (got) {
      if (exclusive) {
        st.owner = tx;
      } else {
        st.readers++;
      }
      shard.acquires.Increment();
      taken.push_back(w);
      continue;
    }
    // Failure: roll back everything this call acquired.
    lk.unlock();
    for (const Hold& t : taken) {
      Stripe& rt = StripeAt(t.stripe);
      std::lock_guard<std::mutex> g(rt.mu);
      ReleaseLocked(rt, tx, t.mode);
    }
    return failure;
  }

  // Record what this call took, splicing each shard's part into its held
  // map under one acquisition of its mutex.
  for (uint32_t s = 0; s < n_shards_ && !taken.empty(); s++) {
    std::vector<Hold>* mine = nullptr;
    std::unique_lock<std::mutex> g(shards_[s].held_mu, std::defer_lock);
    for (const Hold& t : taken) {
      if (t.stripe % n_shards_ != s) continue;
      if (mine == nullptr) {
        g.lock();
        mine = &shards_[s].held[tx];
      }
      mine->push_back({t.stripe / n_shards_, t.mode});
    }
  }
  return Status::OK();
}

void LockTable::Unlock(TxId tx) {
  for (Shard& shard : shards_) {
    std::vector<Hold> local;
    {
      std::lock_guard<std::mutex> g(shard.held_mu);
      auto it = shard.held.find(tx);
      if (it == shard.held.end()) continue;
      local = std::move(it->second);
      shard.held.erase(it);
    }
    for (const Hold& h : local) {
      Stripe& st = shard.stripes[h.stripe];
      std::lock_guard<std::mutex> g(st.mu);
      ReleaseLocked(st, tx, h.mode);
    }
  }
}

bool LockTable::IsLocked(const Range& r) {
  for (const Hold& h : StripesFor({r})) {
    Stripe& st = StripeAt(h.stripe);
    std::lock_guard<std::mutex> g(st.mu);
    if (st.owner != 0 || st.readers > 0) return true;
  }
  return false;
}

LockTable::ShardStats LockTable::StatsForShard(uint32_t shard) const {
  ShardStats out;
  if (shard >= n_shards_) return out;
  out.acquires = shards_[shard].acquires.Value();
  out.contended = shards_[shard].contended.Value();
  out.timeouts = shards_[shard].timeouts.Value();
  return out;
}

LockTable::ShardStats LockTable::TotalStats() const {
  ShardStats out;
  for (uint32_t s = 0; s < n_shards_; s++) {
    const ShardStats ss = StatsForShard(s);
    out.acquires += ss.acquires;
    out.contended += ss.contended;
    out.timeouts += ss.timeouts;
  }
  return out;
}

void LockTable::BindMetrics(obs::MetricsRegistry* registry,
                            const std::string& subsystem) const {
  for (uint32_t s = 0; s < n_shards_; s++) {
    const std::string prefix = "shard" + std::to_string(s) + ".";
    registry->LinkCounter(subsystem, prefix + "acquires",
                          &shards_[s].acquires);
    registry->LinkCounter(subsystem, prefix + "contended",
                          &shards_[s].contended);
    registry->LinkCounter(subsystem, prefix + "timeouts",
                          &shards_[s].timeouts);
  }
  registry->LinkGauge(subsystem, "total.acquires", [this] {
    return static_cast<int64_t>(TotalStats().acquires);
  });
  registry->LinkGauge(subsystem, "total.contended", [this] {
    return static_cast<int64_t>(TotalStats().contended);
  });
  registry->LinkGauge(subsystem, "total.timeouts", [this] {
    return static_cast<int64_t>(TotalStats().timeouts);
  });
}

}  // namespace minuet::sinfonia
