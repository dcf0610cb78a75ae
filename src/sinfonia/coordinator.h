// The Sinfonia application library: executes minitransactions against the
// memnode set. Implements the paper's commit protocol (§2.1) as one commit
// pipeline over the sorted participant list (RunCommit):
//   1. lock, compare, read and vote at every participant (one round),
//   2. on any no vote, Busy or Unavailable: release the yes-voters,
//   3. otherwise, per writing participant: log, replicate, then apply and
//      release. A write applies only once it is logged.
// Two-phase commit is the general case; one participant (1PC) is the same
// pipeline with the commit riding phase 1's message. Around it:
//   - automatic, transparent retry when a lock is busy (compare failures
//     are returned to the application instead),
//   - blocking minitransactions that wait (bounded) at the memnode,
//   - optional primary-backup replication of committed writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sinfonia/memnode.h"
#include "sinfonia/minitxn.h"
#include "store/checkpointed_store.h"
#include "wal/wal.h"

namespace minuet::sinfonia {

// Crash-injection points on the durability path. Arm one per memnode with
// ArmCrashPoint; when the commit or checkpoint protocol reaches it, the
// node "crashes": its WAL loses appended-but-unsynced bytes (page cache),
// it drops off the fabric, and the in-flight operation returns Unavailable.
// The recovery test matrix proves each point recovers to a correct image.
enum class CrashPoint : uint8_t {
  kNone = 0,
  kBeforeWalAppend,            // commit acked nowhere, record lost
  kAfterWalAppendBeforeSync,   // record in page cache only
  kAfterWalSyncBeforeAck,      // record durable, ack (and ring) missed
  kMidCheckpoint,              // staged image half-dumped, root unflipped
  kAfterRootFlipBeforeTruncate,  // new root live, covered WAL not yet gone
};

class Coordinator {
 public:
  // Protocol-outcome counters, owned here and LINKED into the cluster's
  // MetricsRegistry at bind time (obs/metrics.h). The txn_* members are the
  // accounting of the one optimistic retry loop above the coordinator
  // (txn::RunTransaction) — the loop already holds a coordinator pointer,
  // so per-attempt abort taxonomy lands here without extra plumbing.
  struct Metrics {
    obs::Counter executions;       // Execute() calls
    obs::Counter one_phase;        // single-memnode collapsed executions
    obs::Counter two_phase;        // multi-memnode two-phase executions
    obs::Counter committed;        // minitransactions that committed
    obs::Counter compare_aborts;   // decided aborts (compare mismatch)
    obs::Counter busy_retries;     // busy-lock re-executions inside Execute
    obs::Counter txn_attempts;     // optimistic attempts seen by retry loops
    obs::Counter txn_retries;      // attempts that ended retryable
    obs::Counter txn_aborts[kNumAbortReasons];  // indexed by AbortReason
  };

  // Give up after this many busy-lock re-executions. The paper's library
  // retries "automatically and transparently"; the cap only bounds
  // pathological livelock.
  static constexpr uint32_t kMaxBusyRetries = 256;

  struct Options {
    bool replication = false;  // primary-backup mirroring of writes
    // WAL durability of committed write sets (wal/wal.h). Requires a
    // CheckpointedStore per memnode (SetDurableStore) to take effect.
    wal::DurabilityMode durability = wal::DurabilityMode::kNone;
  };

  Coordinator(net::Fabric* fabric, std::vector<Memnode*> memnodes)
      : Coordinator(fabric, std::move(memnodes), Options()) {}
  Coordinator(net::Fabric* fabric, std::vector<Memnode*> memnodes,
              Options options);

  // Execute a minitransaction to completion. Returns:
  //   OK           — protocol ran; inspect result->committed / failed_compares
  //   Busy         — lock contention persisted past kMaxBusyRetries
  //   Unavailable  — a participant memnode is down
  // Holds the membership lock (shared) end to end, so the memnode set —
  // including the expansion of all-node writes — is stable per execution.
  Status Execute(const MiniTxn& mtx, MiniResult* result);

  // Memnode ids ever registered: the id space is [0, n_memnodes()), dense
  // and append-only. Retired ids stay inside it (addresses embed memnode
  // ids, so ids are never compacted or reused); check retired() before
  // treating an id as a live participant.
  uint32_t n_memnodes() const {
    return n_memnodes_.load(std::memory_order_acquire);
  }
  // Memnodes currently serving (registered minus retired).
  uint32_t n_live() const { return n_live_.load(std::memory_order_acquire); }
  // The fabric's registry is the single source of truth for retirement
  // (set under the exclusive membership lock in RetireMemnode).
  bool retired(MemnodeId id) const { return fabric_->IsRetired(id); }
  Memnode* memnode(MemnodeId id) { return memnodes_[id]; }
  net::Fabric* fabric() { return fabric_; }
  const Options& options() const { return options_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  // Per-attempt outcome accounting for the optimistic retry loops: counts
  // the attempt, classifies a retryable failure into the abort taxonomy,
  // and closes the attempt span on the thread's TraceContext, if armed.
  void RecordTxnAttempt(const Status& st) {
    metrics_.txn_attempts.Increment();
    const AbortReason r = obs::ClassifyAbort(st);
    if (r != AbortReason::kNone) {
      metrics_.txn_retries.Increment();
      metrics_.txn_aborts[static_cast<unsigned>(r)].Increment();
    }
    if (obs::TraceContext* t = obs::TraceContext::Current()) {
      t->RecordAttemptEnd(st);
    }
  }

  // The live node hosting `id`'s backup image: the next live node on the
  // ring (retired ids are skipped — the ring closes around the gap).
  MemnodeId BackupOf(MemnodeId id) const { return NextLive(id); }

  // A live memnode to serve a replicated-object read from. `hint` spreads
  // the choice; the result is `hint % n_memnodes()` unless that node has
  // been retired, in which case the next live id is returned.
  MemnodeId ReplicaHome(MemnodeId hint) const {
    return NextLive(static_cast<MemnodeId>((hint + n_memnodes() - 1) %
                                           n_memnodes()));
  }

  // --- Durability -------------------------------------------------------
  // Attach `id`'s durable state bundle (WAL + checkpoint images). Must be
  // installed before the node serves writes (cluster construction, or under
  // AddMemnode's quiescence). Ownership stays with the caller.
  void SetDurableStore(MemnodeId id, store::CheckpointedStore* store) {
    durable_stores_[id] = store;
  }
  store::CheckpointedStore* durable_store(MemnodeId id) {
    return durable_stores_[id];
  }

  // Arm a one-shot crash injection on `id`'s durability path (see
  // CrashPoint). The next protocol step that reaches the armed point fires
  // it: the node drops off the fabric with its unsynced WAL bytes lost.
  void ArmCrashPoint(MemnodeId id, CrashPoint point) {
    crash_points_[id].store(static_cast<uint8_t>(point),
                            std::memory_order_release);
  }

  // Take a fuzzy checkpoint of `id`: capture the WAL position, dump the
  // byte space through minitransaction reads (range locks serialize each
  // block against writers), fsync the image, flip the superblock root, and
  // truncate covered WAL segments. Busy if a checkpoint is already in
  // flight for the node; Unavailable if the node is down or crashes
  // mid-dump. Does NOT hold the membership lock across the dump — each
  // block read is its own minitransaction.
  Status CheckpointMemnode(MemnodeId id);

  // Crash-inject `id`: mark it down on the fabric and wipe its primary
  // space. Takes the membership lock exclusively so in-flight executions
  // drain first — the wipe lands between minitransactions, never under a
  // half-applied write. No-op for a retired id. Durable state survives up
  // to its synced watermark (the WAL drops page-cache-only bytes).
  void Crash(MemnodeId id);
  // Full-cluster power failure: every live node goes down, losing its
  // primary space, hosted backup images, and unsynced WAL bytes. Recovery
  // must come from checkpoints + WAL alone (Recover per node).
  void CrashAll();
  // Bring a crashed memnode back. With a durable store attached the local
  // log is tried first: checkpoint image + WAL redo. If the recovered LSN
  // is at least the backup ring's watermark for `id`, the local image wins
  // and the peer's backup image is re-seeded from it; otherwise (local log
  // behind the ring, discarded, or unreadable) the node is re-seeded from
  // its backup peer and a quiesced checkpoint re-anchors the durable state.
  // No-op for a retired id (retirement is permanent).
  void Recover(MemnodeId id);
  // Make the next Recover(id) re-seed from the backup peer (with
  // replication on), for when `id` holds bytes that no checkpoint image
  // or log record of its own captured. A successful re-anchor clears it.
  void RequireReseed(MemnodeId id);

  // --- Elastic membership (online scale-out) ------------------------------
  // Register `node` (id must be the next free one) while NO minitransaction
  // is in flight: takes the membership lock exclusively, seeds the new
  // node's primary space with the first `replicated_bytes` of memnode 0's
  // (the replicated-data region and seqnum-table mirrors live below that
  // bound at identical offsets on every memnode), rewires the backup ring
  // (node n backs up node n-1; node 0 backs up node n), and only then
  // publishes the new count to the fabric and to n_memnodes(). Ownership of
  // `node` stays with the caller, exactly as for the constructor's set.
  Status AddMemnode(Memnode* node, uint64_t replicated_bytes);

  // --- Elastic membership (online scale-in) -------------------------------
  // Retire memnode `id` while NO minitransaction is in flight: takes the
  // membership lock exclusively, re-homes the backup image of `id`'s ring
  // predecessor onto its ring successor (seeded from the predecessor's live
  // primary — consistent, as no writes run under the exclusive lock), drops
  // the successor's now-orphaned image of `id`, marks the id retired (so
  // all-node replicated writes stop expanding to it and BackupOf/ReplicaHome
  // route around the gap), and deregisters it from the fabric so every later
  // message to the id is rejected. The id is never reused.
  //
  // The caller must have DRAINED the node first (zero live slabs: the
  // rebalancer's drain pass plus the MVCC GC past the horizon — see
  // Cluster::RemoveMemnode); the coordinator only performs the membership
  // mechanics. Refuses to retire the last live memnode, and — when
  // replication is on — requires both ring neighbors up (re-homing from a
  // crashed peer would install a wiped image as the last good backup).
  Status RetireMemnode(MemnodeId id);

 private:
  // Next/previous live (non-retired) id on the ring, cyclic over the
  // registered id space, excluding `id` itself. Returns `id` when it is the
  // only live node.
  MemnodeId NextLive(MemnodeId id) const;
  MemnodeId PrevLive(MemnodeId id) const;
  struct PerNode {
    MemnodeId node;
    std::vector<MiniTxn::CompareItem> compares;
    std::vector<uint32_t> compare_index;  // original index per compare
    std::vector<MiniTxn::ReadItem> reads;
    std::vector<uint32_t> read_index;  // original index per read
    std::vector<MiniTxn::WriteItem> writes;
  };

  // Expands all-node writes over the CURRENT memnode count; the caller
  // must hold membership_mu_ (shared suffices).
  std::vector<PerNode> Partition(const MiniTxn& mtx) const;

  // One attempt of the commit pipeline over `parts` (see the file header).
  // `one_phase` is parts.size() == 1, decided once by Execute. Busy means
  // no participant kept its locks and nothing applied.
  Status RunCommit(TxId tx, const std::vector<PerNode>& parts, bool one_phase,
                   bool blocking, MiniResult* result);
  void ReplicateWrites(const PerNode& pn, uint64_t lsn);

  // Append pn's write set to its node's WAL (inside the lock window) and,
  // in sync mode, group-commit fsync it. *lsn = 0 when nothing was logged
  // (durability off, no store, read-only). Fires the commit-path crash
  // points.
  Status LogDurable(const PerNode& pn, uint64_t* lsn);
  // True (and the node is down, WAL rolled to its synced watermark) iff
  // `point` was armed for `id`. One-shot: disarms on fire.
  bool FireCrashPoint(MemnodeId id, CrashPoint point);
  Status CheckpointNode(MemnodeId id, bool quiesced);
  Status RunCheckpoint(MemnodeId id, store::CheckpointedStore* ds,
                       bool quiesced);

  net::Fabric* fabric_;
  // Reserved to the fabric's max_nodes at construction so concurrent
  // indexed reads never race a reallocation; only [0, n_memnodes_) is live.
  std::vector<Memnode*> memnodes_;
  // Indexed like memnodes_, sized to the fabric's max up front (stable
  // under concurrent indexed reads); nullptr = no durable state attached.
  std::vector<store::CheckpointedStore*> durable_stores_;
  // One armed CrashPoint per node slot (kNone = disarmed).
  std::unique_ptr<std::atomic<uint8_t>[]> crash_points_;
  std::atomic<uint32_t> n_memnodes_;
  std::atomic<uint32_t> n_live_;
  Options options_;
  Metrics metrics_;
  std::atomic<TxId> next_tx_{1};
  // Held shared by Execute, exclusively by AddMemnode: a membership change
  // happens only between minitransactions, never under one.
  mutable std::shared_mutex membership_mu_;
};

}  // namespace minuet::sinfonia
