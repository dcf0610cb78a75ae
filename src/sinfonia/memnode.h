// A Sinfonia memnode: an unstructured byte-addressable storage space plus
// the server half of the minitransaction commit protocol (Prepare: lock,
// compare, read and vote; then Commit or Abort). Also hosts the backup
// images of peer memnodes when primary-backup replication is enabled, and
// supports crash/recovery fault injection.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sinfonia/addr.h"
#include "sinfonia/lock_table.h"
#include "sinfonia/minitxn.h"
#include "store/slab_store.h"

namespace minuet::sinfonia {

// The memnode byte space lives behind store::SlabStore now; the historical
// name stays as an alias for the RAM implementation (tests and the GC use
// it directly).
using ByteSpace = store::RamSlabStore;

class Memnode {
 public:
  // Lock-table sizing.
  static constexpr uint32_t kLockStripes = 4096;
  static constexpr uint32_t kLockShards = 8;  // LockTable shard count
  // Lock-wait threshold for blocking minitransactions (paper §4.1: "the
  // waiting time is bounded by a threshold small enough so that blocking
  // minitransactions do not trigger Sinfonia's recovery mechanism").
  static constexpr std::chrono::microseconds kBlockingWait{2000};

  // `node_size` is the lock unit: the B-tree node (slab) size, to which
  // slabs are aligned, so a minitransaction reading one node and comparing
  // its seqnum locks one stripe. Smaller objects sharing a unit (the
  // per-tree tip objects, 64 catalog entries) share its lock.
  explicit Memnode(MemnodeId id, uint32_t node_size = 4096);

  MemnodeId id() const { return id_; }

  // ---- Commit protocol ---------------------------------------------------
  // The memnode's whole commit surface: the coordinator's pipeline calls
  // these three for one participant and for many alike.
  //
  // Lock every touched range, evaluate compares and, if all match, perform
  // the reads. The memnode then votes yes and HOLDS its locks until
  // Commit/Abort, so the coordinator can log and replicate the write set
  // inside the lock window: conflicting transactions reach the WAL and the
  // backup in commit order. A yes vote also raises the extent over the
  // write ranges, so a fuzzy checkpoint that starts once the write set is
  // logged dumps those ranges (waiting on the held locks until Commit
  // applies them). A false `*vote` (compare mismatch) releases
  // the locks at once: the outcome is decided. Busy/TimedOut if the locks
  // could not be acquired; nothing is then held.
  Status Prepare(TxId tx, const std::vector<MiniTxn::CompareItem>& compares,
                 const std::vector<MiniTxn::ReadItem>& reads,
                 const std::vector<MiniTxn::WriteItem>& writes, bool blocking,
                 bool* vote, std::vector<std::string>* read_results,
                 std::vector<uint32_t>* failed_compares);
  // Apply `writes` and release a yes-voter's locks.
  void Commit(TxId tx, const std::vector<MiniTxn::WriteItem>& writes);
  // Release a yes-voter's locks, applying nothing.
  void Abort(TxId tx);

  // ---- Replication & fault injection ------------------------------------
  // Apply `writes` (addressed at `primary`) to this node's backup image of
  // that primary. Called by the coordinator during commit, while the
  // primary still holds the transaction's range locks — conflicting write
  // sets therefore arrive here already serialized, in commit order. The
  // whole batch runs under backup_mu_ so it is also atomic against
  // RestoreFrom reading the image. `lsn` (when nonzero) advances the ring's
  // durability watermark for `primary`: recovery compares it against the
  // local WAL to pick the local-log vs peer-re-seed path.
  void ApplyBackupWrites(MemnodeId primary,
                         const std::vector<MiniTxn::WriteItem>& writes,
                         uint64_t lsn = 0);

  // Highest LSN this node has seen replicated for `primary` (0 = none).
  uint64_t BackupLsn(MemnodeId primary) const;
  // Force the watermark (backup-ring rewires and post-recovery re-anchor).
  void SetBackupLsn(MemnodeId primary, uint64_t lsn);

  // Wipe this node's primary space (simulates a crash losing main memory).
  void LoseState();
  // Drop every hosted backup image (full-cluster crash simulation).
  void LoseBackups();
  // Reload this node's primary space from the backup image held by `peer`.
  void RestoreFrom(const Memnode& peer);

  // ---- Elastic membership ------------------------------------------------
  // Copy [0, min(limit, src extent)) of `src`'s primary space into this
  // node's primary space (seeding the replicated region of a node added at
  // runtime). Caller guarantees quiescence (the coordinator's exclusive
  // membership lock).
  void ClonePrimaryRegion(const Memnode& src, uint64_t limit);
  // Install a backup image of `primary` cloned from `peer`'s live primary
  // space (the backup-ring rewire when a node joins). Same quiescence
  // contract as ClonePrimaryRegion.
  void SeedBackupFrom(MemnodeId primary, const Memnode& peer);
  // Drop a hosted backup image this node is no longer responsible for.
  void DropBackup(MemnodeId primary);

  // Snapshot the hosted backup image of `primary` into *out (byte-for-byte,
  // [0, image extent)). False if no image is hosted. Test/verification
  // helper: recovery proofs compare this against the recovered primary.
  bool CopyBackupImage(MemnodeId primary, std::string* out) const;

  // ---- Direct access (garbage collector, recovery, tests) ---------------
  // Raw read that bypasses the minitransaction protocol. The GC uses this
  // under its own slab locking discipline.
  void RawRead(uint64_t offset, uint32_t len, std::string* out) const {
    space_.Read(offset, len, out);
  }
  void RawWrite(uint64_t offset, const std::string& data) {
    space_.Write(offset, data.data(), static_cast<uint32_t>(data.size()));
  }
  uint64_t Extent() const { return space_.Extent(); }

  // The primary byte space itself — recovery streams checkpoint images and
  // WAL redo into it while the node is fenced off the fabric.
  store::SlabStore* mutable_space() { return &space_; }

  LockTable& lock_table() { return locks_; }

 private:
  static std::vector<LockTable::Range> TouchedRanges(
      const std::vector<MiniTxn::CompareItem>& compares,
      const std::vector<MiniTxn::ReadItem>& reads,
      const std::vector<MiniTxn::WriteItem>& writes);

  MemnodeId id_;
  ByteSpace space_;
  LockTable locks_;

  // Backup images of peer primaries (primary-backup replication), plus the
  // highest replicated LSN per primary (the ring durability watermark).
  mutable std::mutex backup_mu_;
  std::unordered_map<MemnodeId, std::unique_ptr<ByteSpace>> backups_;
  std::unordered_map<MemnodeId, uint64_t> backup_lsns_;
};

}  // namespace minuet::sinfonia
