// Distributed B-tree node allocator (paper §2.3: "a distributed memory
// allocator decides the placement of B-tree nodes in a way that balances
// load. The allocator itself is a data structure implemented using dynamic
// transactions").
//
// Per memnode, the allocator keeps one metadata object {bump, free_head,
// free_count} and a free list threaded through freed slabs. Each link is a
// slab payload [next u64][run u32][run × offset u64]: `next` is the
// following free slab, and the run lists, in chain order, the slabs behind
// this one that were freed in the same batch (FreeBatch). A plain link has
// run = 0 — Free, FlushReservation and every image written before runs
// existed — so a walker that follows `next` alone stays correct. The run is
// accurate while the link is on the list: slabs leave the list only at the
// head, and putting one back rewrites its link. Allocation and free run
// inside the caller's dynamic transaction, so they commit or abort
// atomically with the operation that needed the node.
//
// To keep concurrent splits from serializing on the metadata object's
// sequence number, proxies may reserve slabs in batches: a small standalone
// transaction (a refill) advances the bump pointer by `batch` slabs, or
// takes recycled slabs off the free list, and the proxy hands them out
// locally. The refill reads the metadata, the head link, then the link's
// whole run in one batched read, so taking a run of recycled slabs costs
// three reads and a commit rather than a read per slab. The refill's commit validates every taken
// slab's seqnum, and the pool keeps it: the writer installs a recycled slab
// with a known-base write instead of fetching it again. A slab handed to a
// transaction attempt that installs nothing (aborted before commit, or a
// commit that failed a compare or found its locks Busy) comes back to the
// pool; it was never linked into the tree, so no other proxy can have seen
// it. It comes back without its seqnum — a carried seqnum is trusted once —
// and is fetched on its next use, so a slab whose seqnum changed behind the
// pool's back (a wiped or restored memnode) cannot fail validation forever.
//
// Placement is LOAD-AWARE: the allocator tracks an in-process live-slab
// count per memnode (handed out minus freed) and NextPlacement compares the
// round-robin candidate against the currently least-loaded memnode. On a
// balanced cluster this degenerates to exact round-robin; after an elastic
// scale-out (AddMemnode) new allocations flow to the fresh, empty memnodes
// until the counts even out. The authoritative occupancy — {bump,
// free_count} in the per-memnode metadata object — is exported for the
// rebalancer and monitoring via MetaLiveSlabs.
//
// Placement follows a per-memnode LIFECYCLE (elastic scale-in, see
// Cluster::RemoveMemnode and docs/ARCHITECTURE.md):
//   kActive   — receives placements (the only state NextPlacement returns).
//   kDraining — entered via BeginDrain: excluded from placement and from
//               explicit Allocate, outstanding proxy reservations returned
//               to the free list, but Free and MetaLiveSlabs keep working —
//               the live counters stay authoritative while the rebalancer
//               migrates the population off and the GC reclaims the
//               sources. Reversible with CancelDrain.
//   kRetired  — entered via Retire once MetaLiveSlabs reaches zero: the
//               metadata object is zeroed ({bump, free_head, free_count} —
//               ghost high-water capacity must not skew rebalancer means)
//               and the memnode drops out of MetaLiveSlabs /
//               ResyncLiveCounters permanently. Irreversible; the id is
//               never reused.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "alloc/layout.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "txn/txn.h"

namespace minuet::alloc {

struct AllocatedSlab {
  ObjectRef ref;
  // The slab's current seqnum when the allocator knows it and the
  // transaction has not read the slab: 0 for a virgin slab, or the value a
  // reservation refill validated for a recycled one. Install it with
  // WriteNew(ref, payload, *known_seqnum): one compare at commit, no fetch.
  // nullopt when the recycled slab is already in the transaction's read set
  // (unbatched path) or must be fetched (a slab an aborted attempt handed
  // back); install those with Write.
  std::optional<uint64_t> known_seqnum = 0;
};

class NodeAllocator {
 public:
  struct Options {
    // Slabs reserved per batch; 0 disables batching (every allocation goes
    // through the shared metadata object transactionally).
    uint32_t batch = 32;
  };

  NodeAllocator(Layout layout, sinfonia::Coordinator* coord)
      : NodeAllocator(layout, coord, Options()) {}
  NodeAllocator(Layout layout, sinfonia::Coordinator* coord, Options options);

  const Layout& layout() const { return layout_; }

  // Registered memnode id space. Starts at the layout's n_memnodes and
  // grows with AddMemnode (never past memnode_capacity); retired ids stay
  // inside it but receive no placements.
  uint32_t n_memnodes() const {
    return n_memnodes_.load(std::memory_order_acquire);
  }
  // Open one more memnode for placement (elastic scale-out). The caller
  // must have registered the memnode with the coordinator/fabric first.
  Status AddMemnode();

  // --- Placement lifecycle (elastic scale-in) ------------------------------
  enum class PlacementState : uint8_t { kActive, kDraining, kRetired };
  PlacementState placement_state(MemnodeId m) const {
    return static_cast<PlacementState>(
        states_[m]->load(std::memory_order_acquire));
  }
  // Mark `m` drain-only: no placement, no explicit Allocate; outstanding
  // proxy reservations are returned to the free list so the metadata
  // occupancy can reach zero. Idempotent while draining. Refuses to drain
  // the last active memnode (InvalidArgument).
  Status BeginDrain(MemnodeId m);
  // Re-open a draining memnode for placement (an aborted scale-in).
  Status CancelDrain(MemnodeId m);
  // Permanently retire a DRAINED memnode: verifies the authoritative
  // occupancy is zero, zeroes the metadata object ({bump, free_head,
  // free_count} — the rebalancer's means must not see ghost capacity), and
  // excludes `m` from MetaLiveSlabs / ResyncLiveCounters from then on.
  // InvalidArgument unless the node is draining; Busy while live slabs
  // remain (wait for the GC horizon and retry).
  Status Retire(MemnodeId m);

  // Allocate one slab on `memnode` inside `txn`.
  Result<AllocatedSlab> Allocate(txn::DynamicTxn& txn, MemnodeId memnode);

  // Allocate on a memnode chosen by the load-aware placement rotation.
  Result<AllocatedSlab> AllocateAnywhere(txn::DynamicTxn& txn);

  // Return a slab to the memnode's free list inside `txn`. The slab's
  // content is replaced by a free-list link; its seqnum keeps advancing, so
  // stale cached copies can never validate again.
  Status Free(txn::DynamicTxn& txn, Addr slab);

  // Free every slab in `offsets` on `memnode` inside `txn`, with one write
  // of the metadata object: the slabs are chained in order in front of the
  // old head, and each link carries the run of slabs behind it, so a refill
  // takes them back in one batched read. Read the slabs and MetaRef into
  // `txn` first (one kValidated Read) or each write fetches on its own.
  Status FreeBatch(txn::DynamicTxn& txn, MemnodeId memnode,
                   const std::vector<uint64_t>& offsets);

  // Next memnode in the placement rotation (exposed so callers that must
  // allocate several nodes in one transaction can spread them): the
  // round-robin candidate, displaced by the least-loaded memnode when that
  // one is strictly lighter. Ties go to round-robin, so a balanced cluster
  // sees the classic rotation.
  MemnodeId NextPlacement();

  // Slabs handed out since construction (monitoring/tests).
  uint64_t allocated_count() const {
    return allocated_.load(std::memory_order_relaxed);
  }

  // --- Occupancy (placement weighting, rebalancer, monitoring) ------------
  // In-process estimate of live slabs on `m`: handed out minus freed,
  // adjusted eagerly (before the enclosing transaction commits). An
  // allocation or free whose attempt installs nothing is taken back; only
  // in-doubt commits leave residual drift. Cheap and monotone
  // with real load between ResyncLiveCounters calls, which re-anchor it.
  uint64_t ApproxLiveSlabs(MemnodeId m) const {
    return live_[m]->load(std::memory_order_relaxed);
  }
  std::vector<uint64_t> ApproxLiveSlabsAll() const;

  // Authoritative occupancy from the memnode's allocator metadata object:
  // slabs under the bump pointer minus slabs on the free list (outstanding
  // proxy reservations, at most `batch` per proxy, count as occupied).
  // Reads the metadata in a standalone transaction.
  Result<uint64_t> MetaLiveSlabs(MemnodeId m);

  // Slabs waiting in this allocator's reservation pool for `m`: counted by
  // MetaLiveSlabs, but not (yet) nodes.
  size_t ReservedSlabs(MemnodeId m) const {
    std::lock_guard<std::mutex> g(reserved_[m]->mu);
    return reserved_[m]->pool.size();
  }

  // Re-anchor every live counter to MetaLiveSlabs, erasing the drift that
  // in-doubt commits accumulate in the eager adjustments.
  // The rebalancer calls this once per round; callers with long-lived
  // clusters and no rebalancer may want to as well.
  Status ResyncLiveCounters();

  struct Metrics {
    obs::Counter refills;         // reservation refill transactions
    obs::Counter recycled_slabs;  // slabs refills took off the free list
  };
  Metrics& metrics() { return metrics_; }

 private:
  // A slab in a reservation pool. `seqnum` is the value the refill
  // validated (0 for a virgin slab); nullopt means fetch it on use.
  struct PooledSlab {
    uint64_t offset;
    std::optional<uint64_t> seqnum;
  };

  // Take one slab from the proxy-local reservation for `memnode`,
  // replenishing it with a standalone transaction when empty. The
  // replenishment drains the shared free list first (so garbage-collected
  // slabs are reused), then falls back to the bump pointer.
  Result<PooledSlab> TakeReserved(MemnodeId memnode);

  // Take back a reserved slab whose transaction installed nothing
  // (DynamicTxn::OnDiscard): into the pool without its seqnum, or on to the
  // free list when `m` is draining.
  void Unreserve(MemnodeId m, PooledSlab slab);
  // Eager live-count decrement by up to `n` for a free in `txn`; an
  // attempt that installs nothing adds the decrement back (OnDiscard).
  void DecrementLiveFor(txn::DynamicTxn& txn, MemnodeId m, uint64_t n);
  // Saturating decrement of the in-process live count by up to `n`;
  // returns how much it took.
  uint64_t DecrementLive(MemnodeId m, uint64_t n = 1);

  // Return every slab in `m`'s reservation pool to the shared free list
  // (one standalone transaction). BeginDrain calls this so reserved-but-
  // unused slabs stop counting against the drained node's occupancy.
  Status FlushReservation(MemnodeId m);

  Layout layout_;
  sinfonia::Coordinator* coord_;
  Options options_;
  std::atomic<uint32_t> n_memnodes_;
  std::atomic<uint64_t> rr_{0};
  std::atomic<uint64_t> allocated_{0};
  Metrics metrics_;

  struct Reservation {
    mutable std::mutex mu;
    // Slabs awaiting hand-out: bump-pointer slabs and recycled ones the
    // refill took off the shared free list.
    std::vector<PooledSlab> pool;
  };
  // Sized to memnode_capacity at construction; indexes past n_memnodes()
  // exist but receive no placements until AddMemnode opens them.
  std::vector<std::unique_ptr<Reservation>> reserved_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> live_;
  std::vector<std::unique_ptr<std::atomic<uint8_t>>> states_;
};

}  // namespace minuet::alloc
