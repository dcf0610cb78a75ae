#include "alloc/allocator.h"

#include <algorithm>

namespace minuet::alloc {

using txn::ReadMode;

namespace {

struct Meta {
  uint64_t bump;
  uint64_t free_head;   // 0 = empty
  uint64_t free_count;  // slabs on the free list (occupancy accounting)
};

Meta ParseMeta(Slice payload, const Layout& layout) {
  Meta m;
  if (payload.size() >= 16) {
    m.bump = DecodeFixed64(payload.data());
    m.free_head = DecodeFixed64(payload.data() + 8);
  } else {
    m.bump = 0;
    m.free_head = 0;
  }
  m.free_count = payload.size() >= 24 ? DecodeFixed64(payload.data() + 16) : 0;
  if (m.bump < layout.slab_base()) m.bump = layout.slab_base();
  return m;
}

std::string SerializeMeta(const Meta& m) {
  std::string out;
  PutFixed64(&out, m.bump);
  PutFixed64(&out, m.free_head);
  PutFixed64(&out, m.free_count);
  return out;
}

// Free-list link: [next u64][run u32][run × offset u64], zero-padded to the
// slab payload so nothing of the node it replaces survives. A plain link
// (run = 0) is just `next` followed by zeros.
constexpr size_t kLinkHeader = 12;

std::string EncodeLink(uint64_t next, const uint64_t* run, size_t run_len,
                       size_t payload_len) {
  std::string link;
  PutFixed64(&link, next);
  PutFixed32(&link, static_cast<uint32_t>(run_len));
  for (size_t i = 0; i < run_len; i++) PutFixed64(&link, run[i]);
  link.resize(payload_len, '\0');
  return link;
}

uint64_t LinkNext(Slice link) {
  return link.size() >= 8 ? DecodeFixed64(link.data()) : 0;
}

// The link's run, clipped to none when the payload cannot hold what it
// claims (not a run this allocator wrote; treat the link as plain).
std::vector<uint64_t> LinkRun(Slice link) {
  std::vector<uint64_t> run;
  if (link.size() < kLinkHeader) return run;
  const uint32_t n = DecodeFixed32(link.data() + 8);
  if (n > (link.size() - kLinkHeader) / 8) return run;
  run.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    run.push_back(DecodeFixed64(link.data() + kLinkHeader + 8 * i));
  }
  return run;
}

}  // namespace

NodeAllocator::NodeAllocator(Layout layout, sinfonia::Coordinator* coord,
                             Options options)
    : layout_(layout),
      coord_(coord),
      options_(options),
      n_memnodes_(layout.n_memnodes) {
  options_.batch = std::max<uint32_t>(options_.batch, 1);
  const uint32_t capacity = layout_.memnode_capacity();
  reserved_.reserve(capacity);
  live_.reserve(capacity);
  states_.reserve(capacity);
  for (uint32_t i = 0; i < capacity; i++) {
    reserved_.push_back(std::make_unique<Reservation>());
    live_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    states_.push_back(std::make_unique<std::atomic<uint8_t>>(
        static_cast<uint8_t>(PlacementState::kActive)));
  }
}

Status NodeAllocator::AddMemnode() {
  uint32_t n = n_memnodes_.load(std::memory_order_acquire);
  while (true) {
    if (n >= layout_.memnode_capacity()) {
      return Status::NoSpace("allocator at its layout memnode capacity");
    }
    if (n_memnodes_.compare_exchange_weak(n, n + 1,
                                          std::memory_order_acq_rel)) {
      return Status::OK();
    }
  }
}

MemnodeId NodeAllocator::NextPlacement() {
  const uint32_t n = n_memnodes();
  // Rotation candidate: the next ACTIVE memnode (draining and retired ids
  // are placement holes the rotation steps over).
  MemnodeId rr =
      static_cast<MemnodeId>(rr_.fetch_add(1, std::memory_order_relaxed) % n);
  for (uint32_t i = 0;
       i < n && placement_state(rr) != PlacementState::kActive; i++) {
    rr = static_cast<MemnodeId>((rr + 1) % n);
  }
  // Two-choice refinement: take the least-loaded active memnode only when
  // it is strictly lighter than the rotation candidate.
  MemnodeId lightest = rr;
  uint64_t lightest_live = live_[rr]->load(std::memory_order_relaxed);
  for (MemnodeId m = 0; m < n; m++) {
    if (placement_state(m) != PlacementState::kActive) continue;
    const uint64_t l = live_[m]->load(std::memory_order_relaxed);
    if (l < lightest_live) {
      lightest = m;
      lightest_live = l;
    }
  }
  return lightest;
}

Result<uint64_t> NodeAllocator::MetaLiveSlabs(MemnodeId m) {
  if (m < states_.size() && placement_state(m) == PlacementState::kRetired) {
    // A retired memnode is unreachable (its fabric id is rejected) and by
    // the retire invariant held nothing; report the zero directly so means
    // computed over the id space stay honest.
    return uint64_t{0};
  }
  uint64_t live = 0;
  Status st = txn::RunTransaction(
      coord_, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
        auto raw = t.Read(layout_.MetaRef(m), ReadMode::kValidated);
        if (!raw.ok()) return raw.status();
        const Meta meta = ParseMeta(raw->data, layout_);
        const uint64_t bumped =
            (meta.bump - layout_.slab_base()) / layout_.node_size;
        live = bumped > meta.free_count ? bumped - meta.free_count : 0;
        return Status::OK();
      });
  MINUET_RETURN_NOT_OK(st);
  return live;
}

Status NodeAllocator::ResyncLiveCounters() {
  const uint32_t n = n_memnodes();
  for (uint32_t m = 0; m < n; m++) {
    if (placement_state(m) == PlacementState::kRetired) continue;
    auto live = MetaLiveSlabs(m);
    if (!live.ok()) return live.status();
    live_[m]->store(*live, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status NodeAllocator::BeginDrain(MemnodeId m) {
  if (m >= n_memnodes()) {
    return Status::InvalidArgument("no such memnode");
  }
  if (placement_state(m) == PlacementState::kDraining) {
    // Idempotent (a re-drain after an aborted scale-in) — but re-attempt
    // the flush: a first call that failed AFTER setting the state would
    // otherwise strand its pooled slabs in the occupancy count forever.
    return FlushReservation(m);
  }
  if (placement_state(m) == PlacementState::kRetired) {
    return Status::InvalidArgument("memnode already retired");
  }
  uint32_t active = 0;
  for (uint32_t i = 0; i < n_memnodes(); i++) {
    if (placement_state(i) == PlacementState::kActive) active++;
  }
  if (active <= 1) {
    return Status::InvalidArgument("cannot drain the last active memnode");
  }
  states_[m]->store(static_cast<uint8_t>(PlacementState::kDraining),
                    std::memory_order_release);
  // Reserved-but-unused slabs count against the node's authoritative
  // occupancy; give them back so the drain can reach zero.
  return FlushReservation(m);
}

Status NodeAllocator::CancelDrain(MemnodeId m) {
  if (m >= n_memnodes() ||
      placement_state(m) != PlacementState::kDraining) {
    return Status::InvalidArgument("memnode is not draining");
  }
  states_[m]->store(static_cast<uint8_t>(PlacementState::kActive),
                    std::memory_order_release);
  return Status::OK();
}

Status NodeAllocator::Retire(MemnodeId m) {
  if (m >= n_memnodes() ||
      placement_state(m) != PlacementState::kDraining) {
    return Status::InvalidArgument("retire requires a draining memnode");
  }
  // Verify-and-zero in one transaction: the occupancy check and the wipe of
  // the ghost capacity ({bump, free_head, free_count} of a fully drained
  // node describe only recycled history) commit atomically, so a racing
  // FreeBatch cannot slip a live slab past the check.
  bool occupied = false;
  Status st = txn::RunTransaction(
      coord_, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
        occupied = false;
        auto raw = t.Read(layout_.MetaRef(m), ReadMode::kValidated);
        if (!raw.ok()) return raw.status();
        const Meta meta = ParseMeta(raw->data, layout_);
        const uint64_t bumped =
            (meta.bump - layout_.slab_base()) / layout_.node_size;
        if (bumped > meta.free_count) {
          // Commit read-only: the conclusion "still occupied" validates
          // against the meta seqnum like any other answer.
          occupied = true;
          return Status::OK();
        }
        Meta zero;
        zero.bump = layout_.slab_base();
        zero.free_head = 0;
        zero.free_count = 0;
        return t.Write(layout_.MetaRef(m), SerializeMeta(zero));
      });
  MINUET_RETURN_NOT_OK(st);
  if (occupied) {
    return Status::Busy("live slabs remain on the draining memnode");
  }
  states_[m]->store(static_cast<uint8_t>(PlacementState::kRetired),
                    std::memory_order_release);
  live_[m]->store(0, std::memory_order_relaxed);
  return Status::OK();
}

Status NodeAllocator::FlushReservation(MemnodeId m) {
  Reservation& r = *reserved_[m];
  std::lock_guard<std::mutex> g(r.mu);
  if (r.pool.empty()) return Status::OK();
  std::vector<PooledSlab> pool = std::move(r.pool);
  r.pool.clear();
  Status st = txn::RunTransaction(
      coord_, nullptr, {}, 64,
      [&](txn::DynamicTxn& t) -> Status {
        auto meta_raw = t.Read(layout_.MetaRef(m), ReadMode::kValidated);
        if (!meta_raw.ok()) return meta_raw.status();
        Meta meta = ParseMeta(meta_raw->data, layout_);
        for (const PooledSlab& slab : pool) {
          // Same linking discipline as FreeBatch: the head pointer goes into
          // the slab, whose seqnum advance invalidates any cached copy
          // forever.
          const std::string link = EncodeLink(meta.free_head, nullptr, 0,
                                              layout_.slab_payload_len());
          const ObjectRef ref = layout_.SlabRef(Addr{m, slab.offset});
          MINUET_RETURN_NOT_OK(slab.seqnum
                                   ? t.WriteNew(ref, link, *slab.seqnum)
                                   : t.Write(ref, link));
          meta.free_head = slab.offset;
          meta.free_count++;
        }
        return t.Write(layout_.MetaRef(m), SerializeMeta(meta));
      },
      // A carried seqnum is trusted once: after a failed attempt, fetch.
      [&] {
        for (PooledSlab& slab : pool) slab.seqnum.reset();
      });
  if (!st.ok()) {
    // Nothing committed: put the reservation back so the slabs are not
    // stranded outside both the pool and the free list.
    r.pool = std::move(pool);
  }
  return st;
}

Result<NodeAllocator::PooledSlab> NodeAllocator::TakeReserved(
    MemnodeId memnode) {
  Reservation& r = *reserved_[memnode];
  std::lock_guard<std::mutex> g(r.mu);
  if (r.pool.empty()) {
    // Replenish with one standalone transaction: drain the shared free
    // list first (reusing garbage-collected slabs), then advance the bump
    // pointer for the remainder of the batch. Every recycled slab joins the
    // read set, so the commit validates the seqnum the pool keeps.
    std::vector<PooledSlab> taken;
    uint64_t recycled = 0;
    Status st = txn::RunTransaction(
        coord_, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
          taken.clear();
          auto meta_raw =
              t.Read(layout_.MetaRef(memnode), ReadMode::kValidated);
          if (!meta_raw.ok()) return meta_raw.status();
          Meta meta = ParseMeta(meta_raw->data, layout_);
          uint64_t head = meta.free_head;
          while (head != 0 && taken.size() < options_.batch) {
            const ObjectRef head_ref = layout_.SlabRef(Addr{memnode, head});
            auto link = t.Read(head_ref, ReadMode::kValidated);
            if (!link.ok()) return link.status();
            taken.push_back(PooledSlab{head, t.ReadSeqnum(head_ref)});
            head = LinkNext(link->data);
            // The run lists the slabs behind this link in chain order: take
            // as many as the batch still needs with one batched read.
            std::vector<uint64_t> run = LinkRun(link->data);
            run.resize(std::min<size_t>(run.size(),
                                        options_.batch - taken.size()));
            if (run.empty() || run[0] != head) continue;
            std::vector<ObjectRef> refs;
            refs.reserve(run.size());
            for (uint64_t off : run) {
              refs.push_back(layout_.SlabRef(Addr{memnode, off}));
            }
            auto links = t.Read(refs, ReadMode::kValidated);
            if (!links.ok()) return links.status();
            // Follow `next` through the run and stop where the two disagree:
            // only a verified chain prefix leaves the list.
            for (size_t i = 0; i < run.size() && run[i] == head; i++) {
              taken.push_back(PooledSlab{head, t.ReadSeqnum(refs[i])});
              head = LinkNext((*links)[i].data);
            }
          }
          recycled = taken.size();
          meta.free_head = head;
          meta.free_count -= std::min<uint64_t>(meta.free_count, recycled);
          while (taken.size() < options_.batch) {
            taken.push_back(PooledSlab{meta.bump, 0});
            meta.bump += layout_.node_size;
          }
          return t.Write(layout_.MetaRef(memnode), SerializeMeta(meta));
        });
    MINUET_RETURN_NOT_OK(st);
    metrics_.refills.Increment();
    metrics_.recycled_slabs.Add(recycled);
    r.pool = std::move(taken);
  }
  const PooledSlab slab = r.pool.back();
  r.pool.pop_back();
  return slab;
}

Result<AllocatedSlab> NodeAllocator::Allocate(txn::DynamicTxn& txn,
                                              MemnodeId memnode) {
  if (memnode >= n_memnodes()) {
    return Status::InvalidArgument("allocation on an unregistered memnode");
  }
  if (placement_state(memnode) != PlacementState::kActive) {
    // Drain-only/retired: nothing new may land here, or the drain would
    // chase a moving target (and a retired id is unreachable anyway).
    return Status::InvalidArgument(
        "allocation on a draining or retired memnode");
  }
  allocated_.fetch_add(1, std::memory_order_relaxed);
  live_[memnode]->fetch_add(1, std::memory_order_relaxed);
  auto taken = TakeReserved(memnode);
  if (!taken.ok()) {
    live_[memnode]->fetch_sub(1, std::memory_order_relaxed);
    return taken.status();
  }
  // An attempt that installs nothing hands the slab back; otherwise it
  // would stay counted by MetaLiveSlabs yet be no node the GC can free.
  txn.OnDiscard([this, memnode, slab = *taken] { Unreserve(memnode, slab); });
  AllocatedSlab slab;
  slab.ref = layout_.SlabRef(Addr{memnode, taken->offset});
  slab.known_seqnum = taken->seqnum;
  return slab;
}

Result<AllocatedSlab> NodeAllocator::AllocateAnywhere(txn::DynamicTxn& txn) {
  return Allocate(txn, NextPlacement());
}

Status NodeAllocator::FreeBatch(txn::DynamicTxn& txn, MemnodeId memnode,
                                const std::vector<uint64_t>& offsets) {
  if (offsets.empty()) return Status::OK();
  auto meta_raw = txn.Read(layout_.MetaRef(memnode), ReadMode::kValidated);
  if (!meta_raw.ok()) return meta_raw.status();
  Meta meta = ParseMeta(meta_raw->data, layout_);

  // Chain the batch in order in front of the old head. Each link carries
  // the slabs behind it in the batch, as many as its payload holds.
  const size_t payload_len = layout_.slab_payload_len();
  const size_t max_run = (payload_len - kLinkHeader) / 8;
  for (size_t i = 0; i < offsets.size(); i++) {
    const size_t behind = offsets.size() - i - 1;
    const uint64_t next = behind > 0 ? offsets[i + 1] : meta.free_head;
    MINUET_RETURN_NOT_OK(txn.Write(
        layout_.SlabRef(Addr{memnode, offsets[i]}),
        EncodeLink(next, offsets.data() + i + 1, std::min(behind, max_run),
                   payload_len)));
  }
  meta.free_head = offsets[0];
  meta.free_count += offsets.size();
  MINUET_RETURN_NOT_OK(
      txn.Write(layout_.MetaRef(memnode), SerializeMeta(meta)));
  DecrementLiveFor(txn, memnode, offsets.size());
  return Status::OK();
}

void NodeAllocator::DecrementLiveFor(txn::DynamicTxn& txn, MemnodeId m,
                                     uint64_t n) {
  if (m >= n_memnodes()) return;
  const uint64_t taken = DecrementLive(m, n);
  if (taken == 0) return;
  // A free whose attempt installs nothing freed nothing: give the count
  // back, or the two-choice placement in NextPlacement drifts.
  txn.OnDiscard([this, m, taken] {
    live_[m]->fetch_add(taken, std::memory_order_relaxed);
  });
}

uint64_t NodeAllocator::DecrementLive(MemnodeId m, uint64_t n) {
  auto& live = *live_[m];
  uint64_t cur = live.load(std::memory_order_relaxed);
  uint64_t take = std::min(cur, n);
  // compare_exchange_weak reloads `cur` on failure.
  while (take > 0 && !live.compare_exchange_weak(cur, cur - take,
                                                 std::memory_order_relaxed)) {
    take = std::min(cur, n);
  }
  return take;
}

void NodeAllocator::Unreserve(MemnodeId m, PooledSlab slab) {
  DecrementLive(m);
  // The attempt may have failed on this very seqnum: fetch it next time.
  slab.seqnum.reset();
  {
    Reservation& r = *reserved_[m];
    std::lock_guard<std::mutex> g(r.mu);
    r.pool.push_back(slab);
  }
  // BeginDrain flushed this node's pool before the slab came back: pass it
  // on to the free list too. If that fails the slab stays pooled, and the
  // next (idempotent) BeginDrain flushes it.
  if (placement_state(m) != PlacementState::kActive) {
    IgnoreStatus(FlushReservation(m));
  }
}

}  // namespace minuet::alloc
