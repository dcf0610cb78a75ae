#include "sinfonia/coordinator.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace minuet::sinfonia {

namespace {

// A ring watermark no local log reaches: recovery of the primary it is set
// for takes the peer path.
constexpr uint64_t kReseedOnNextRecovery = ~uint64_t{0};

// Lay the bytes `earlier` writes over *image, the bytes `w` covers.
void OverlayWrite(const MiniTxn::WriteItem& earlier,
                  const MiniTxn::WriteItem& w, std::string* image) {
  const uint64_t begin = std::max(earlier.addr.offset, w.addr.offset);
  const uint64_t end = std::min(earlier.addr.offset + earlier.data.size(),
                                w.addr.offset + image->size());
  if (begin >= end) return;
  std::memcpy(image->data() + (begin - w.addr.offset),
              earlier.data.data() + (begin - earlier.addr.offset),
              end - begin);
}

}  // namespace

Coordinator::Coordinator(net::Fabric* fabric, std::vector<Memnode*> memnodes,
                         Options options)
    : fabric_(fabric),
      memnodes_(std::move(memnodes)),
      durable_stores_(fabric->max_nodes(), nullptr),
      crash_points_(new std::atomic<uint8_t>[fabric->max_nodes()]()),
      n_memnodes_(static_cast<uint32_t>(memnodes_.size())),
      n_live_(static_cast<uint32_t>(memnodes_.size())),
      options_(options) {
  // Indexed reads of memnodes_ run without the membership lock; reserving
  // the fabric's capacity up front means AddMemnode's push_back never
  // reallocates under them.
  memnodes_.reserve(fabric_->max_nodes());
}

MemnodeId Coordinator::NextLive(MemnodeId id) const {
  const uint32_t n = n_memnodes();
  MemnodeId m = static_cast<MemnodeId>((id + 1) % n);
  for (uint32_t i = 0; i + 1 < n; i++, m = (m + 1) % n) {
    if (!retired(m)) return m;
  }
  return id;
}

MemnodeId Coordinator::PrevLive(MemnodeId id) const {
  const uint32_t n = n_memnodes();
  MemnodeId m = static_cast<MemnodeId>((id + n - 1) % n);
  for (uint32_t i = 0; i + 1 < n; i++, m = (m + n - 1) % n) {
    if (!retired(m)) return m;
  }
  return id;
}

std::vector<Coordinator::PerNode> Coordinator::Partition(
    const MiniTxn& mtx) const {
  std::vector<PerNode> parts;
  auto find = [&parts](MemnodeId node) -> PerNode& {
    for (auto& p : parts) {
      if (p.node == node) return p;
    }
    parts.push_back(PerNode{node, {}, {}, {}, {}, {}});
    return parts.back();
  };
  for (uint32_t i = 0; i < mtx.compares.size(); i++) {
    PerNode& p = find(mtx.compares[i].addr.memnode);
    p.compares.push_back(mtx.compares[i]);
    p.compare_index.push_back(i);
  }
  for (uint32_t i = 0; i < mtx.reads.size(); i++) {
    PerNode& p = find(mtx.reads[i].addr.memnode);
    p.reads.push_back(mtx.reads[i]);
    p.read_index.push_back(i);
  }
  const uint32_t n = n_memnodes();
  for (const auto& w : mtx.writes) {
    if (w.all_nodes) {
      // Replicated object: one write per LIVE memnode, expanded against the
      // membership in force for this execution (retired ids left the
      // replication group permanently).
      for (MemnodeId m = 0; m < n; m++) {
        if (retired(m)) continue;
        find(m).writes.push_back(
            MiniTxn::WriteItem{Addr{m, w.addr.offset}, w.data, false});
      }
    } else {
      find(w.addr.memnode).writes.push_back(w);
    }
  }
  std::sort(parts.begin(), parts.end(),
            [](const PerNode& a, const PerNode& b) { return a.node < b.node; });
  return parts;
}

std::vector<MemnodeId> MiniTxn::Participants() const {
  std::vector<MemnodeId> ids;
  for (const auto& c : compares) ids.push_back(c.addr.memnode);
  for (const auto& r : reads) ids.push_back(r.addr.memnode);
  for (const auto& w : writes) ids.push_back(w.addr.memnode);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Status Coordinator::Execute(const MiniTxn& mtx, MiniResult* result) {
  // Membership is stable for the whole execution: all-node writes expand
  // over exactly the set that will receive them, and BackupOf cannot flip
  // mid-replication.
  std::shared_lock<std::shared_mutex> membership(membership_mu_);
  const std::vector<PerNode> parts = Partition(mtx);
  metrics_.executions.Increment();
  if (parts.empty()) {
    result->committed = true;
    return Status::OK();
  }
  obs::TraceContext* const trace = obs::TraceContext::Current();
  int items = 0;
  if (trace != nullptr) {
    for (const PerNode& pn : parts) {
      items += static_cast<int>(pn.compares.size() + pn.reads.size() +
                                pn.writes.size());
    }
  }

  const bool one_phase =
      parts.size() == 1 ||
      (mtx.piecewise && mtx.compares.empty() && mtx.writes.empty());
  Status last = Status::OK();
  for (uint32_t attempt = 0; attempt <= kMaxBusyRetries; attempt++) {
    if (attempt > 0) {
      metrics_.busy_retries.Increment();
      if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->retries++;
      // Busy means a real write conflict: reads share their node locks,
      // so another transaction holds a node this one writes, or writes a
      // node this one reads. Give that holder a chance to finish. On a
      // machine with fewer cores than threads, it can sit preempted
      // mid-commit for a whole scheduling quantum; yield alone then
      // degenerates into a retry storm, so back off for real after a few
      // attempts. (In the paper's deployment the holder is a memnode
      // executing a minitransaction to completion — this wait stands in
      // for the lock hold time a busy lock implies there.)
      if (attempt < 4) {
        std::this_thread::yield();
      } else {
        // lint:allow(sleep-in-src): bounded backoff standing in for the
        // lock-hold time of the blocking minitransaction's conflicting
        // holder; there is no local event to wait on.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const TxId tx = next_tx_.fetch_add(1, std::memory_order_relaxed);
    result->committed = false;
    result->failed_compares.clear();
    result->read_results.assign(mtx.reads.size(), std::string());

    (one_phase ? metrics_.one_phase : metrics_.two_phase).Increment();
    const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
    Status st = RunCommit(tx, parts, one_phase, mtx.blocking, result);
    if (trace != nullptr) {
      // A decided compare mismatch returns OK with committed=false; stamp
      // the span with the abort it means rather than a bare OK.
      const Status span_outcome =
          st.ok() && !result->committed
              ? Status::Aborted(AbortReason::kValidationConflict)
              : st;
      trace->RecordRound(one_phase ? "1pc" : "2pc",
                         static_cast<int>(parts.size()), items, span_outcome,
                         obs::NowNs() - t0);
    }
    if (st.ok()) {
      (result->committed ? metrics_.committed : metrics_.compare_aborts)
          .Increment();
      return Status::OK();
    }
    if (!st.IsRetryable()) return st;  // Unavailable etc.
    last = st;
  }
  return last.ok() ? Status::Busy("retries exhausted") : last;
}

Status Coordinator::RunCommit(TxId tx, const std::vector<PerNode>& parts,
                              bool one_phase, bool blocking,
                              MiniResult* result) {
  bool read_only = true;
  for (const PerNode& pn : parts) read_only &= pn.writes.empty();
  // A read-only one-phase participant (the lone one, or each of a
  // piecewise read) has nothing to log or apply: its vote message also
  // releases it, so a piecewise read holds no lock while it reads the
  // next participant.
  const bool release_on_vote = one_phase && read_only;

  // Phase 1: lock, compare, read and vote at every participant. The
  // messages overlap on the wire, so they share one round trip. The first
  // `voted` participants answered: those in `no` voted no and released
  // their locks, the rest hold theirs until phase 2 or 3 (unless released
  // on their vote). (Listing the no-voters keeps the common all-yes path
  // free of an allocation.)
  size_t voted = 0;
  std::vector<const PerNode*> no;
  Status failure = Status::OK();
  {
    net::RoundTripScope rt;
    std::vector<std::string> reads;
    std::vector<uint32_t> failed;
    for (const PerNode& pn : parts) {
      bool vote = false;
      reads.clear();
      failed.clear();
      failure = fabric_->ChargeMessage(pn.node);
      if (failure.ok()) {
        failure = memnodes_[pn.node]->Prepare(tx, pn.compares, pn.reads,
                                              pn.writes, blocking, &vote,
                                              &reads, &failed);
      }
      if (!failure.ok()) break;  // Busy, TimedOut or Unavailable
      voted++;
      if (vote) {
        for (uint32_t i = 0; i < reads.size(); i++) {
          result->read_results[pn.read_index[i]] = std::move(reads[i]);
        }
        if (release_on_vote) memnodes_[pn.node]->Commit(tx, pn.writes);
      } else {
        no.push_back(&pn);
        for (uint32_t idx : failed) {
          result->failed_compares.push_back(pn.compare_index[idx]);
        }
      }
    }
  }

  // Phase 2: decided abort, releasing the yes-voters. When a read-only
  // minitransaction aborts on a compare mismatch, the outcome is in hand
  // after the votes, so the release leaves the critical path (charged, but
  // not as a round trip). A minitransaction with writes keeps the charge:
  // its retry waits on the release, as does every Busy/Unavailable abort.
  if (!failure.ok() || !no.empty()) {
    const bool async = failure.ok() && read_only;
    net::RoundTripScope rt;
    for (size_t i = 0; i < voted && !release_on_vote; i++) {
      const PerNode& pn = parts[i];
      if (std::find(no.begin(), no.end(), &pn) != no.end()) continue;
      // Local cleanup even if the node is down.
      IgnoreStatus(async ? fabric_->ChargeMessageAsync(pn.node)
                         : fabric_->ChargeMessage(pn.node));
      memnodes_[pn.node]->Abort(tx);
    }
    if (!failure.ok()) return failure;
    std::sort(result->failed_compares.begin(), result->failed_compares.end());
    return Status::OK();  // compare mismatch: committed=false is final
  }

  // Phase 3: commit. Each writing participant logs, then replicates, then
  // applies and releases: log and backup image see conflicting write sets
  // in commit order, because the locks are still held, and a write applies
  // only once it is logged. One participant (1PC) commits on phase 1's
  // message; with several, a read-only commit cannot fail, so its release
  // leaves the critical path. A participant that crashes after voting yes
  // does not stop the others: Sinfonia's recovery would replay from the
  // backup.
  if (release_on_vote) {
    result->committed = true;
    return Status::OK();
  }
  Status commit_failure = Status::OK();
  {
    net::RoundTripScope rt;
    for (const PerNode& pn : parts) {
      if (!one_phase) {
        IgnoreStatus(read_only ? fabric_->ChargeMessageAsync(pn.node)
                               : fabric_->ChargeMessage(pn.node));
      }
      uint64_t lsn = 0;
      const Status logged = LogDurable(pn, &lsn);
      if (!logged.ok()) {
        // Crashed at its durability point: nothing applies here and the
        // commit is not acknowledged. With other participants this is the
        // torn cross-node commit 2PC leaves (docs/ARCHITECTURE.md,
        // Durability: known limitation); recovery decides whether the
        // record survived.
        memnodes_[pn.node]->Abort(tx);
        commit_failure = logged;
        continue;
      }
      if (options_.replication && !pn.writes.empty()) {
        ReplicateWrites(pn, lsn);
      }
      memnodes_[pn.node]->Commit(tx, pn.writes);
    }
  }
  if (!commit_failure.ok()) return commit_failure;
  result->committed = true;
  return Status::OK();
}

Status Coordinator::LogDurable(const PerNode& pn, uint64_t* lsn) {
  *lsn = 0;
  store::CheckpointedStore* ds = durable_stores_[pn.node];
  if (ds == nullptr || options_.durability == wal::DurabilityMode::kNone ||
      pn.writes.empty()) {
    return Status::OK();
  }
  if (FireCrashPoint(pn.node, CrashPoint::kBeforeWalAppend)) {
    return Status::Unavailable("crash injected before WAL append");
  }
  // Log only the bytes this commit changes. The participant holds every
  // write range exclusively and Commit has not applied it, so the space
  // still reads the pre-image; an earlier item of the write set that
  // overlaps is laid over it, as Commit applies items in order. Recovery
  // rebuilds every omitted byte from the checkpoint image and earlier
  // records (docs/ARCHITECTURE.md, "Record format"). A write set that
  // changes nothing still appends its (empty) record.
  std::vector<wal::WalWrite> writes;
  std::string pre;
  for (size_t i = 0; i < pn.writes.size(); i++) {
    const MiniTxn::WriteItem& w = pn.writes[i];
    memnodes_[pn.node]->RawRead(w.addr.offset,
                                static_cast<uint32_t>(w.data.size()), &pre);
    for (size_t j = 0; j < i; j++) OverlayWrite(pn.writes[j], w, &pre);
    wal::AppendChangedRanges(w.addr.offset, pre, w.data, &writes);
  }
  auto appended = ds->wal().Append(writes);
  MINUET_RETURN_NOT_OK(appended.status());
  *lsn = *appended;
  if (FireCrashPoint(pn.node, CrashPoint::kAfterWalAppendBeforeSync)) {
    return Status::Unavailable("crash injected after WAL append");
  }
  if (options_.durability == wal::DurabilityMode::kSync) {
    MINUET_RETURN_NOT_OK(ds->wal().Sync(*lsn));
  }
  if (FireCrashPoint(pn.node, CrashPoint::kAfterWalSyncBeforeAck)) {
    // The record IS durable; the ack (and the ring replication that
    // follows) never happens. Recovery's local log runs ahead of the
    // ring's watermark here — the local path must win.
    return Status::Unavailable("crash injected after WAL sync");
  }
  return Status::OK();
}

bool Coordinator::FireCrashPoint(MemnodeId id, CrashPoint point) {
  uint8_t expected = static_cast<uint8_t>(point);
  if (crash_points_[id].load(std::memory_order_acquire) != expected) {
    return false;
  }
  if (!crash_points_[id].compare_exchange_strong(
          expected, static_cast<uint8_t>(CrashPoint::kNone),
          std::memory_order_acq_rel)) {
    return false;
  }
  // The "machine" loses power: page-cache WAL bytes are gone and the node
  // stops answering. (The RAM image is NOT wiped here — recovery Resets it
  // before rebuilding; wiping under a shared membership lock could race a
  // concurrent reader on another range.)
  if (store::CheckpointedStore* ds = durable_stores_[id]) {
    ds->CrashLoseVolatile();
  }
  fabric_->SetUp(id, false);
  return true;
}

void Coordinator::ReplicateWrites(const PerNode& pn, uint64_t lsn) {
  const MemnodeId backup = BackupOf(pn.node);
  if (backup == pn.node) return;  // single-memnode cluster: no peer
  IgnoreStatus(fabric_->ChargeMessage(backup));
  memnodes_[backup]->ApplyBackupWrites(pn.node, pn.writes, lsn);
}

void Coordinator::Crash(MemnodeId id) {
  // Exclusive: the wipe lands at a quiescent instant. An in-memory fault
  // injection cannot model a crash racing a half-applied memcpy without
  // undefined behavior (ByteSpace::Reset would free chunks under an
  // in-flight writer), so executions that already charged their messages
  // drain first and the crash takes effect between minitransactions —
  // which is also Sinfonia's recovery-visible granularity.
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  if (retired(id)) return;  // already permanently gone
  fabric_->SetUp(id, false);
  memnodes_[id]->LoseState();
  if (store::CheckpointedStore* ds = durable_stores_[id]) {
    ds->CrashLoseVolatile();
  }
}

void Coordinator::CrashAll() {
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  const uint32_t n = n_memnodes_.load(std::memory_order_relaxed);
  for (MemnodeId id = 0; id < n; id++) {
    if (retired(id)) continue;
    fabric_->SetUp(id, false);
    memnodes_[id]->LoseState();
    memnodes_[id]->LoseBackups();
    if (store::CheckpointedStore* ds = durable_stores_[id]) {
      ds->CrashLoseVolatile();
    }
  }
}

void Coordinator::Recover(MemnodeId id) {
  std::shared_lock<std::shared_mutex> membership(membership_mu_);
  if (retired(id)) return;  // retirement is permanent, not a crash state
  const MemnodeId backup = BackupOf(id);
  store::CheckpointedStore* const ds =
      options_.durability != wal::DurabilityMode::kNone ? durable_stores_[id]
                                                        : nullptr;
  obs::TraceContext* const trace = obs::TraceContext::Current();

  // Local-log path: checkpoint image + WAL redo, taken iff the local log
  // is at least as current as the ring's replicated watermark for `id`.
  if (ds != nullptr) {
    const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
    store::CheckpointedStore::RecoveryInfo info;
    const Status st = ds->RecoverInto(memnodes_[id]->mutable_space(), &info);
    const uint64_t ring_lsn =
        backup == id ? 0 : memnodes_[backup]->BackupLsn(id);
    if (st.ok() && info.lsn >= ring_lsn) {
      ds->metrics().recoveries_local.Increment();
      if (options_.replication && backup != id) {
        // Converge the ring onto the recovered image: the peer's backup
        // must mirror what local recovery rebuilt (the local log may have
        // run AHEAD of the ring — crash after fsync, before replication).
        memnodes_[backup]->SeedBackupFrom(id, *memnodes_[id]);
        memnodes_[backup]->SetBackupLsn(id, info.lsn);
      }
      fabric_->SetUp(id, true);
      if (trace != nullptr) {
        trace->RecordRound("recover.replay", 1,
                           static_cast<int>(info.replayed), st,
                           obs::NowNs() - t0);
      }
      return;
    }
    // Local log behind the ring (async-mode losses) or unreadable: fall
    // back to the peer image below. Drop the partial local rebuild first.
    memnodes_[id]->LoseState();
  }

  if (backup == id) return;  // single-node cluster, nothing to reseed from
  const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
  memnodes_[id]->RestoreFrom(*memnodes_[backup]);
  if (ds != nullptr) {
    ds->metrics().recoveries_reseed.Increment();
    // Re-anchor durable state to the restored image (quiesced: the node is
    // still fenced off the fabric, so raw reads cannot race writers). Until
    // an image holds the restored bytes, the local log cannot rebuild them:
    // a later record omits every byte it leaves unchanged. So a failed
    // re-anchor pins the ring watermark above any LSN, and the NEXT
    // recovery re-seeds again; that re-seed is all the failure costs.
    const Status anchored = CheckpointNode(id, /*quiesced=*/true);
    memnodes_[backup]->SetBackupLsn(
        id, anchored.ok() ? ds->wal().CurrentLsn() : kReseedOnNextRecovery);
  }
  fabric_->SetUp(id, true);
  if (trace != nullptr) {
    trace->RecordRound("recover.reseed", 2, 0, Status::OK(),
                       obs::NowNs() - t0);
  }
}

void Coordinator::RequireReseed(MemnodeId id) {
  std::shared_lock<std::shared_mutex> membership(membership_mu_);
  const MemnodeId backup = BackupOf(id);
  if (options_.replication && backup != id) {
    memnodes_[backup]->SetBackupLsn(id, kReseedOnNextRecovery);
  }
}

Status Coordinator::CheckpointMemnode(MemnodeId id) {
  return CheckpointNode(id, /*quiesced=*/false);
}

Status Coordinator::CheckpointNode(MemnodeId id, bool quiesced) {
  if (id >= n_memnodes() || retired(id)) {
    return Status::InvalidArgument("no such live memnode");
  }
  store::CheckpointedStore* const ds = durable_stores_[id];
  if (ds == nullptr) {
    return Status::InvalidArgument("memnode has no durable store");
  }
  if (!quiesced && !fabric_->IsUp(id)) {
    return Status::Unavailable("memnode is down");
  }
  if (!ds->TryBeginCheckpoint()) {
    return Status::Busy("checkpoint already in flight");
  }
  const Status st = RunCheckpoint(id, ds, quiesced);
  ds->EndCheckpoint();
  return st;
}

Status Coordinator::RunCheckpoint(MemnodeId id, store::CheckpointedStore* ds,
                                  bool quiesced) {
  // Fuzzy capture: L is taken BEFORE the dump, so records with lsn > L may
  // or may not already be reflected in the image — replaying them anyway is
  // idempotent physical redo. The FULL extent is dumped (not just the live
  // tree frontier): free-list chains thread through freed slabs, and the
  // replicated region / sequence tables / allocator metadata live outside
  // any tree.
  const uint64_t ckpt_lsn = ds->wal().CurrentLsn();
  const uint64_t extent = memnodes_[id]->Extent();
  MINUET_RETURN_NOT_OK(ds->StageCheckpoint(ckpt_lsn, extent));
  constexpr uint32_t kBlock = 64 * 1024;
  std::string block;
  for (uint64_t off = 0; off < extent; off += kBlock) {
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(kBlock, extent - off));
    if (quiesced) {
      // Node fenced off the fabric (recovery re-anchor): no writer can
      // race, read the space directly.
      memnodes_[id]->RawRead(off, n, &block);
    } else {
      // One minitransaction per block: its range lock serializes the read
      // against concurrent commits, so every block is internally
      // consistent (cross-block skew is what makes the checkpoint fuzzy —
      // the WAL redo squares it).
      MiniTxn mtx;
      mtx.AddRead(Addr{id, off}, n);
      mtx.blocking = true;
      MiniResult res;
      MINUET_RETURN_NOT_OK(Execute(mtx, &res));
      if (!res.committed || res.read_results.size() != 1) {
        return Status::Unavailable("checkpoint block read aborted");
      }
      block = std::move(res.read_results[0]);
    }
    if (FireCrashPoint(id, CrashPoint::kMidCheckpoint)) {
      // Staged image half-written, root never flipped: the previous
      // checkpoint (or none) stays the recovery root.
      return Status::Unavailable("crash injected mid-checkpoint");
    }
    if (!store::IsAllZero(block)) {
      MINUET_RETURN_NOT_OK(ds->WriteImageBlock(off, block));
    }
  }
  // Every record the image may reflect is durable before the image becomes
  // the root: recovery replays the records after the checkpoint LSN over
  // it, and those carry only the bytes they change. A write applies only
  // after it is logged, and under sync durability only after it is
  // synced; under async durability this sync covers what the dump read.
  if (options_.durability == wal::DurabilityMode::kAsync) {
    MINUET_RETURN_NOT_OK(ds->wal().Sync(ds->wal().CurrentLsn()));
  }
  MINUET_RETURN_NOT_OK(ds->SealImageAndFlipRoot());
  if (FireCrashPoint(id, CrashPoint::kAfterRootFlipBeforeTruncate)) {
    // New root is live but covered WAL segments linger: recovery replays
    // records with lsn <= ckpt_lsn over the image — idempotent, benign.
    return Status::Unavailable("crash injected after root flip");
  }
  return ds->TruncateWal();
}

Status Coordinator::AddMemnode(Memnode* node, uint64_t replicated_bytes) {
  // Exclusive: every in-flight minitransaction drains first, and none can
  // start until the new node is seeded and published. Commits built before
  // this point therefore wrote their all-node objects to the old set — all
  // of which the seeding copy below captures.
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  const uint32_t n = n_memnodes_.load(std::memory_order_relaxed);
  if (n >= fabric_->max_nodes()) {
    return Status::NoSpace("cluster at its configured max memnode count");
  }
  if (node->id() != n) {
    return Status::InvalidArgument("memnode id must be the next free id");
  }
  if (n_live_.load(std::memory_order_relaxed) == 0) {
    return Status::InvalidArgument("cannot grow an empty memnode set");
  }
  // The ring neighbors over LIVE nodes: the new node slots in between the
  // highest live id (`last`) and the lowest (`first`) — retired ids are
  // holes the ring already closes around.
  const MemnodeId first = NextLive(static_cast<MemnodeId>(n - 1));
  const MemnodeId last = PrevLive(0);
  // Both seeding sources must be alive: cloning a crashed (wiped) peer
  // would install zeros as the new node's replicated region — and, worse,
  // the ring rewire below would REPLACE the last good backup image of
  // `last` with a clone of its wiped primary. Grow the cluster after
  // recovery, not during an outage.
  if (!fabric_->IsUp(first) || !fabric_->IsUp(last)) {
    return Status::Unavailable("a seeding peer memnode is down");
  }

  // Seed the replicated region (and seqnum-table mirrors): replicated
  // objects live at the SAME offset on every memnode, so the new node's
  // image is a byte copy of any seeded peer's prefix.
  node->ClonePrimaryRegion(*memnodes_[first], replicated_bytes);

  if (options_.replication) {
    // The backup ring rewires from (last → first) to (last → n → first):
    // the new node takes over hosting last's image (seeded from last's live
    // primary — consistent, as no writes run under the exclusive lock), and
    // `first` hosts the new node's image — seeded from the region copy
    // above, so a crash BEFORE the node's first replicated write still
    // recovers the pre-join history. last's ring watermark (a RequireReseed
    // pin included) moves with its image: recovery compares its local log
    // against it.
    node->SeedBackupFrom(last, *memnodes_[last]);
    node->SetBackupLsn(last, memnodes_[first]->BackupLsn(last));
    memnodes_[first]->SeedBackupFrom(n, *node);
    if (last != first) memnodes_[first]->DropBackup(last);
  }

  auto id = fabric_->RegisterNode();
  if (!id.ok()) return id.status();
  memnodes_.push_back(node);
  n_memnodes_.store(n + 1, std::memory_order_release);
  n_live_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status Coordinator::RetireMemnode(MemnodeId id) {
  // Exclusive: every in-flight minitransaction drains first, so no
  // execution can observe a half-rewired ring or a half-expanded
  // replicated write set.
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  const uint32_t n = n_memnodes_.load(std::memory_order_relaxed);
  if (id >= n || retired(id)) {
    return Status::InvalidArgument("no such live memnode");
  }
  if (n_live_.load(std::memory_order_relaxed) <= 1) {
    return Status::InvalidArgument("cannot retire the last memnode");
  }
  const MemnodeId prev = PrevLive(id);
  const MemnodeId next = NextLive(id);
  if (options_.replication) {
    // The ring rewires from (prev → id → next) to (prev → next): `next`
    // takes over hosting prev's backup image, seeded from prev's live
    // primary — consistent, as no writes run under the exclusive lock. A
    // crashed neighbor would make that seed (or the image we are about to
    // drop the last copy of) a wipe: refuse, recover first.
    if (!fabric_->IsUp(prev) || !fabric_->IsUp(next)) {
      return Status::Unavailable("a ring-neighbor memnode is down");
    }
    if (prev != next) {
      // With exactly two live nodes prev == next == the survivor, which
      // backs itself (a no-op ring); only the orphaned image is dropped.
      memnodes_[next]->SeedBackupFrom(prev, *memnodes_[prev]);
      // The watermark moves with the image, as in AddMemnode.
      memnodes_[next]->SetBackupLsn(prev, memnodes_[id]->BackupLsn(prev));
    }
    memnodes_[next]->DropBackup(id);
  }
  // The fabric registry is the single retirement record: deregistering
  // flips retired(id) for every layer at once (all under this exclusive
  // lock, so no execution sees a half-applied retirement).
  fabric_->Deregister(id);
  n_live_.fetch_sub(1, std::memory_order_release);
  return Status::OK();
}

}  // namespace minuet::sinfonia
