// Snapshot garbage collection (paper §4.4).
//
// Minuet records a global lowest retained snapshot id; a background pass
// walks the B-tree slabs stored at each memnode and frees every node that
// has been copied to a snapshot at or below that horizon — such a node
// serves only snapshots older than any still queryable. Freed slabs return
// to the allocator free lists; their sequence numbers keep advancing, so
// stale cached pointers can never validate against a recycled slab.
//
// The pass is batch-shaped. It reads kBatchSlabs slabs of a memnode in one
// minitransaction (no read set), judges each from a NodeView, and frees the
// batch's garbage in one transaction: the candidates and the allocator
// metadata object are read in one round, so the commit validates every
// freed slab, and NodeAllocator::FreeBatch writes the metadata once. A
// batch whose commit loses a race is read and judged again, through the
// txn::RunTransaction retry loop.
#pragma once

#include <cstdint>
#include <vector>

#include "btree/tree.h"

namespace minuet::mvcc {

class GarbageCollector {
 public:
  // Slabs read per minitransaction and freed per transaction.
  static constexpr uint64_t kBatchSlabs = 64;
  // Attempts at one batch's free transaction; a batch that loses every one
  // is left for the next pass.
  static constexpr uint32_t kFreeAttempts = 8;

  struct Report {
    uint64_t scanned = 0;
    uint64_t freed = 0;
    uint64_t skipped_live = 0;
    uint64_t skipped_non_node = 0;  // free-list links, unused slabs
  };

  explicit GarbageCollector(btree::BTree* tree) : tree_(tree) {}

  // One full pass over every memnode's slab region. `lowest_sid` is the GC
  // horizon (typically SnapshotService::LowestRetained()). Also publishes
  // the horizon to the replicated lowest-sid object so other proxies can
  // observe it.
  Result<Report> CollectOnce(uint64_t lowest_sid);

  // As above, but the effective horizon is min(lowest_sid, reclaim_floor).
  // With durability on, the cluster passes the snapshot horizon as of the
  // last COMPLETE checkpoint pass as the floor: a recovered memnode image
  // is only as new as its checkpoint + WAL, and must never find a slab it
  // references reclaimed (reused) by a pass the durable state predates.
  Result<Report> CollectOnce(uint64_t lowest_sid, uint64_t reclaim_floor);

  uint64_t total_freed() const { return total_freed_.Value(); }

 private:
  // Scan one batch of slabs on memnode `m` and free its garbage.
  Status CollectBatch(sinfonia::MemnodeId m,
                      const std::vector<txn::ObjectRef>& slabs,
                      uint64_t lowest_sid, Report* report);
  // Free `candidates` (offsets on `m`) in one transaction, re-checking each
  // against the horizon. A batch that runs out of attempts counts its
  // candidates as skipped_live.
  Status FreeCandidates(sinfonia::MemnodeId m,
                        const std::vector<uint64_t>& candidates,
                        uint64_t lowest_sid, Report* report);

  btree::BTree* tree_;
  // Counter (not a plain integer): the metrics registry samples it from
  // whatever thread runs DumpStats while a GC pass is incrementing it.
  obs::Counter total_freed_;
};

}  // namespace minuet::mvcc
