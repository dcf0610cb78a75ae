#include "mvcc/snapshot_service.h"

#include <algorithm>
#include <thread>

namespace minuet::mvcc {

SnapshotService::SnapshotService(BTree* tree, Options options,
                                 std::function<double()> clock)
    : tree_(tree), options_(options), clock_(std::move(clock)) {
  if (!clock_) {
    clock_ = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  }
}

Result<SnapshotRef> SnapshotService::CreateLocked(bool pin,
                                                  LeaseOwner owner) {
  // Runs with mutex_ held. Fig. 6: the snapshot materializes when the
  // dynamic transaction commits; the tip update uses a blocking
  // minitransaction so snapshot storms degrade to queueing, not livelock.
  //
  // Back-to-back creations leave the tip stable for as long as the last
  // creation took. Every update compares the tip id when it commits, so a
  // lone creator looping on the memnodes' shared-lock fast path would
  // otherwise re-bump the tip faster than a Put can read it and commit,
  // and the Put would starve.
  while (std::chrono::steady_clock::now() < next_creation_at_) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  txn::DynamicTxn::Options topts;
  topts.blocking_commit = true;
  SnapshotRef snap;
  MINUET_RETURN_NOT_OK(txn::RunTransaction(
      tree_->coordinator(), tree_->cache(), topts,
      txn::kMaxOpAttempts, [&](txn::DynamicTxn& txn) -> Status {
        auto created = tree_->CreateSnapshotInTxn(txn);
        if (!created.ok()) return created.status();
        snap = *created;
        return Status::OK();
      }));
  const auto end = std::chrono::steady_clock::now();
  next_creation_at_ = end + (end - start);
  {
    std::lock_guard<std::mutex> g(last_mu_);
    last_ = snap;
    last_created_at_ = clock_();
    // Pin before last_mu_ drops: LowestRetained (which also takes last_mu_
    // first) can never see the new horizon without the pin.
    if (pin) Pin(snap.sid, owner);
  }
  num_snapshots_.fetch_add(1, std::memory_order_release);
  created_.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

Result<SnapshotRef> SnapshotService::CreateSnapshot(bool pin,
                                                    LeaseOwner owner) {
  // Fig. 7: read the counter before and after entering the critical
  // section; an advance of >= 2 proves a complete creation within this
  // call's window, making the latest snapshot borrowable.
  const uint64_t tmp1 = num_snapshots_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> g(mutex_);
  const uint64_t tmp2 = num_snapshots_.load(std::memory_order_acquire);
  if (tmp2 >= tmp1 + 2 && last_.sid >= released_below_) {
    borrowed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lg(last_mu_);
    if (pin) Pin(last_.sid, owner);
    return last_;
  }
  return CreateLocked(pin, owner);
}

Result<SnapshotRef> SnapshotService::AcquireForScan(bool pin,
                                                    LeaseOwner owner) {
  if (options_.min_interval_seconds > 0) {
    std::lock_guard<std::mutex> lg(last_mu_);
    if (last_created_at_ + options_.min_interval_seconds > clock_() &&
        num_snapshots_.load(std::memory_order_acquire) > 0 &&
        last_.sid >= released_below_) {
      stale_reuses_.fetch_add(1, std::memory_order_relaxed);
      if (pin) Pin(last_.sid, owner);
      return last_;
    }
  }
  return CreateSnapshot(pin, owner);
}

void SnapshotService::Pin(uint64_t sid, LeaseOwner owner) {
  std::lock_guard<std::mutex> g(pins_mu_);
  if (released_owners_.count(owner) != 0) return;
  pins_[sid]++;
  owner_pins_[owner][sid]++;
}

void SnapshotService::Unpin(uint64_t sid, LeaseOwner owner) {
  std::lock_guard<std::mutex> g(pins_mu_);
  // Route through the owner slice first: an Unpin whose lease was already
  // bulk-released (the owner left via ReleaseOwner) must be a no-op, not
  // eat some other owner's pin.
  auto oit = owner_pins_.find(owner);
  if (oit == owner_pins_.end()) return;
  auto sit = oit->second.find(sid);
  if (sit == oit->second.end()) return;
  if (--sit->second == 0) oit->second.erase(sit);
  if (oit->second.empty()) owner_pins_.erase(oit);
  auto it = pins_.find(sid);
  if (it != pins_.end() && --it->second == 0) pins_.erase(it);
}

uint64_t SnapshotService::ReleaseOwner(LeaseOwner owner) {
  std::lock_guard<std::mutex> g(pins_mu_);
  released_owners_.insert(owner);
  auto oit = owner_pins_.find(owner);
  if (oit == owner_pins_.end()) return 0;
  uint64_t released = 0;
  for (const auto& [sid, count] : oit->second) {
    released += count;
    auto it = pins_.find(sid);
    if (it == pins_.end()) continue;
    it->second = it->second > count ? it->second - count : 0;
    if (it->second == 0) pins_.erase(it);
  }
  owner_pins_.erase(oit);
  return released;
}

uint64_t SnapshotService::pinned_count() const {
  std::lock_guard<std::mutex> g(pins_mu_);
  uint64_t n = 0;
  for (const auto& [sid, count] : pins_) n += count;
  return n;
}

uint64_t SnapshotService::owner_pinned_count(LeaseOwner owner) const {
  std::lock_guard<std::mutex> g(pins_mu_);
  auto oit = owner_pins_.find(owner);
  if (oit == owner_pins_.end()) return 0;
  uint64_t n = 0;
  for (const auto& [sid, count] : oit->second) n += count;
  return n;
}

uint64_t SnapshotService::LowestRetained() const {
  uint64_t horizon;
  {
    std::lock_guard<std::mutex> lg(last_mu_);
    const uint64_t newest = last_.sid;
    horizon = newest > options_.retain_last ? newest - options_.retain_last
                                            : 0;
    horizon = std::max(horizon, released_below_);
  }
  std::lock_guard<std::mutex> g(pins_mu_);
  if (!pins_.empty()) horizon = std::min(horizon, pins_.begin()->first);
  return horizon;
}

Status SnapshotService::ReleaseUnpinned() {
  // Holding mutex_ keeps creations out, so the tip id read here stays the
  // tip until the new horizon is published.
  std::lock_guard<std::mutex> g(mutex_);
  uint64_t tip = 0;
  MINUET_RETURN_NOT_OK(txn::RunTransaction(
      tree_->coordinator(), /*cache=*/nullptr, {},
      txn::kMaxOpAttempts, [&](txn::DynamicTxn& txn) -> Status {
        auto raw = txn.Read(tree_->layout().TipIdRef(tree_->tree_slot()),
                            txn::ReadMode::kValidated);
        if (!raw.ok()) return raw.status();
        tip = btree::DecodeTipId(raw->data);
        return Status::OK();
      }));
  std::lock_guard<std::mutex> lg(last_mu_);
  released_below_ = std::max(released_below_, tip);
  return Status::OK();
}

SnapshotRef SnapshotService::latest() const {
  std::lock_guard<std::mutex> lg(last_mu_);
  return last_;
}

}  // namespace minuet::mvcc
