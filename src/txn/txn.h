// The dynamic transaction layer (paper §2.2 plus the §3 dirty-read
// extension): optimistic transactions with backward validation, built from
// minitransactions.
//
// A dynamic transaction keeps a read set and a write set of objects.
//   Read       — ONE call for every read, its policy selected by a ReadMode:
//                validated reads that join the read set, dirty traversal
//                reads served from the proxy cache (§3), and fresh snapshot
//                leaf reads checked by fence keys alone (§4.2). Whatever
//                the mode and however many objects, what local state cannot
//                serve is fetched in ONE minitransaction, which piggy-backs
//                validation of the existing read set, so a transaction
//                discovers staleness early and a read-only transaction
//                needs no commit-time validation at all.
//   Write      — buffer in the write set; memnodes are updated only at
//                commit. Writing an object not yet read fetches it first so
//                its sequence number is known.
//   Commit     — one minitransaction that (1) compares the sequence number
//                of every read-set object against the master copy and
//                (2) if all match, installs the write set with seqnums
//                bumped. Engages a single memnode (one-phase commit)
//                whenever all touched objects validate there.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/payload.h"
#include "common/status.h"
#include "sinfonia/coordinator.h"
#include "txn/object.h"
#include "txn/object_cache.h"

namespace minuet::txn {

// How DynamicTxn::Read serves an object. Every mode answers from the write
// set first; the rest, per mode:
//
//                    serve     consult  cache hit  fill   fetch joins  validate
//                    read set  cache    joins      cache  read set     read set
//   kValidated         yes       no       -          no     yes          yes
//   kCachedValidated   yes       yes      yes        yes    yes          yes
//   kDirty             yes       yes      no         yes    no           yes
//   kFresh             no        no       -          no     no           no
//
//   kValidated        the transactional read of §2.2: the object joins the
//                     read set and commit validates it.
//   kCachedValidated  cache-first transactional read: a cache hit joins the
//                     read set WITHOUT fetching (commit-time validation
//                     catches staleness, as when Aguilera et al. validate
//                     cached internal nodes against the replicated seqnum
//                     table, and when Minuet proxies validate their cached
//                     tip snapshot id).
//   kDirty            the §3 dirty read of B-tree traversals: nothing joins
//                     the read set; the traversal's own safety checks
//                     (fence keys, heights, copied-snapshot ids) replace
//                     validation.
//   kFresh            leaf reads of read-only snapshots, which the paper
//                     validates by fence keys alone (§4.2): the memnode's
//                     current bytes, even over a read-set copy, with no
//                     cache and no read-set validation — its fetch carries
//                     no compares, so it cannot abort the transaction.
enum class ReadMode { kValidated, kCachedValidated, kDirty, kFresh };

class DynamicTxn {
 public:
  struct Options {
    // Commit with a blocking minitransaction (waits for busy locks up to
    // the memnode threshold); used for replicated tip-snapshot-id updates.
    bool blocking_commit = false;
  };

  DynamicTxn(sinfonia::Coordinator* coord, ObjectCache* cache)
      : DynamicTxn(coord, cache, Options()) {}
  DynamicTxn(sinfonia::Coordinator* coord, ObjectCache* cache,
             Options options);
  ~DynamicTxn();  // runs the OnDiscard undos (see there)
  DynamicTxn(const DynamicTxn&) = delete;
  DynamicTxn& operator=(const DynamicTxn&) = delete;

  // --- Transactional operations ------------------------------------------
  //
  // Every read returns a Payload — a Slice over the image bytes plus a
  // shared owner that pins them — so serving a read-set or cache hit is a
  // refcount bump, never a byte copy. Decoders take the Slice directly.
  // An object this transaction wrote is always served from the write set.
  // The batch overload's result[i] is refs[i]'s payload; duplicate
  // addresses are resolved once. A doomed transaction answers every mode
  // with its tagged Aborted. See ReadMode for what each mode does.
  Result<Payload> Read(const ObjectRef& ref, ReadMode mode);
  Result<std::vector<Payload>> Read(const std::vector<ObjectRef>& refs,
                                    ReadMode mode);
  // Buffer a write. The payload bytes are COPIED into the transaction arena
  // (std::string arguments convert to Slice and are safe to pass as
  // temporaries — the dup happens before Write returns) unless they
  // already lie in arena() — a node encoded with EncodeToArena — which
  // the write set then references as they are: do not modify them after.
  Status Write(const ObjectRef& ref, Slice payload);
  // Known-base write of an object this transaction has not read: expects
  // the object's seqnum to still be `base_seqnum` at commit, so no fetch is
  // needed. The default 0 is a freshly allocated (virgin) slab; a recycled
  // slab passes the seqnum the allocator's refill validated. Fails
  // validation if any other transaction wrote the object meanwhile.
  Status WriteNew(const ObjectRef& ref, Slice payload,
                  uint64_t base_seqnum = 0);

  // Commit. Returns OK, Aborted (validation failed — retry the whole
  // transaction), Busy (persistent lock contention) or Unavailable.
  Status Commit();

  // Mark the transaction as doomed (traversal safety check failed, stale
  // cached pointer, ...). All further operations and Commit return Aborted
  // carrying `reason`, so the retry loop's abort taxonomy sees WHY the
  // transaction died rather than a generic "doomed".
  void MarkAborted(AbortReason reason = AbortReason::kOther) {
    doomed_ = true;
    if (abort_reason_ == AbortReason::kNone) abort_reason_ = reason;
  }
  bool doomed() const { return doomed_; }
  AbortReason abort_reason() const { return abort_reason_; }
  bool committed() const { return committed_; }

  // Undo a proxy-local side effect of this attempt (a slab taken from the
  // allocator's reservation pool) when the attempt provably installed
  // nothing: `undo` runs at destruction unless the commit succeeded or is
  // in doubt. A transaction that never committed, or whose commit failed a
  // compare or found its locks Busy, installed nothing; an Unavailable
  // commit may have landed on some memnode, so its effects are kept.
  void OnDiscard(std::function<void()> undo) {
    discard_.push_back(std::move(undo));
  }

  // --- Introspection (B-tree cache refresh, tests) ------------------------
  struct WriteRecord {
    ObjectRef ref;
    // Points into the transaction arena; valid for the transaction's
    // lifetime.
    Slice payload;
    uint64_t new_seqnum;
  };
  const std::vector<WriteRecord>& write_set() const { return writes_; }
  size_t read_set_size() const { return reads_.size(); }
  // Redirect commit-time validation of an already-read object to a
  // replicated seqnum mirror (the Aguilera baseline's seqnum table). Used
  // when the caller only learns the object's kind — and hence where its
  // seqnum is mirrored — after decoding the fetched bytes.
  void SetReadValidationMirror(const Addr& addr, uint64_t rep_seq_offset) {
    auto it = read_index_.find(addr);
    if (it != read_index_.end()) {
      reads_[it->second].ref.rep_seq_offset = rep_seq_offset;
    }
  }

  // Serve `ref` from the write or read set WITHOUT fetching; nullopt when
  // this transaction has not touched it. The zero-allocation fast path
  // for repeatedly re-read hot objects (the tip pair). The Slice is valid
  // for the transaction's lifetime (it points into pinned images or the
  // arena, not into the record vectors themselves).
  std::optional<Slice> Peek(const ObjectRef& ref) const {
    if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
      return writes_[it->second].payload;
    }
    if (auto it = read_index_.find(ref.addr); it != read_index_.end()) {
      return reads_[it->second].payload.data;
    }
    return std::nullopt;
  }

  // Addresses in the read set — callers use this to invalidate proxy-cache
  // entries after a validation failure, so retries refetch fresh state.
  std::vector<Addr> ReadSetAddrs() const {
    std::vector<Addr> out;
    out.reserve(reads_.size());
    for (const auto& r : reads_) out.push_back(r.ref.addr);
    return out;
  }
  bool InReadSet(const ObjectRef& ref) const {
    return read_index_.count(ref.addr) != 0;
  }
  // The seqnum `ref` had when it joined the read set (the value commit
  // validates); nullopt when it is not in the read set.
  std::optional<uint64_t> ReadSeqnum(const ObjectRef& ref) const {
    auto it = read_index_.find(ref.addr);
    if (it == read_index_.end()) return std::nullopt;
    return reads_[it->second].seqnum;
  }

  ObjectCache* cache() { return cache_; }
  sinfonia::Coordinator* coordinator() { return coord_; }
  // Transaction-lifetime bump allocator: node encodings, object images and
  // staging buffers allocate here so a whole minitransaction's worth of
  // buffers is one malloc in the steady state. Never Reset() while the
  // transaction is live — the write set points into it.
  Arena& arena() { return arena_; }

 private:
  struct ReadRecord {
    ObjectRef ref;
    uint64_t seqnum;
    Payload payload;
  };

  // The one read skeleton behind both Read overloads: serve what the
  // write set, read set or proxy cache can (as `mode` allows), fetch ALL
  // remaining distinct addresses in ONE minitransaction, then run the
  // mode's per-entry bookkeeping. out[i] receives refs[i]'s payload.
  Status ReadInto(const ObjectRef* refs, size_t n, ReadMode mode,
                  Payload* out);
  void JoinReadSet(const ObjectRef& ref, uint64_t seqnum, Payload payload);

  // Shared body of Write and WriteNew. A `known_base` seqnum joins the
  // read set unfetched (WriteNew).
  Status WriteImpl(const ObjectRef& ref, Slice payload,
                   std::optional<uint64_t> known_base);

  // The Aborted status a doomed transaction answers every operation with,
  // tagged with the reason it was doomed.
  Status DoomedStatus() const {
    return Status::Aborted(
        abort_reason_ == AbortReason::kNone ? AbortReason::kOther
                                            : abort_reason_,
        "transaction doomed");
  }

  // Where a read of `ref` should be served.
  sinfonia::MemnodeId ReadHome(const ObjectRef& ref) const;
  // Add `ref`'s seqnum compare to `mtx`, validating replicated objects at
  // `at` so single-memnode minitransactions stay single-memnode.
  void AddSeqCompare(sinfonia::MiniTxn* mtx, const ReadRecord& rec,
                     sinfonia::MemnodeId at) const;

  sinfonia::Coordinator* coord_;
  ObjectCache* cache_;
  Options options_;
  Arena arena_;

  std::vector<ReadRecord> reads_;
  std::unordered_map<Addr, size_t, sinfonia::AddrHash> read_index_;
  std::vector<WriteRecord> writes_;
  std::unordered_map<Addr, size_t, sinfonia::AddrHash> write_index_;

  // How many reads_ entries the last successful piggy-backed fetch
  // validated. Records that joined the read set AFTER that fetch — cache
  // hits served by a kCachedValidated read with no subsequent
  // minitransaction — have never been checked against a memnode, so the
  // read-only commit shortcut must not trust them (a transaction served
  // 100% from a stale proxy cache would otherwise "commit" fiction).
  size_t validated_reads_ = 0;

  bool doomed_ = false;
  AbortReason abort_reason_ = AbortReason::kNone;
  bool committed_ = false;
  bool commit_in_doubt_ = false;
  std::vector<std::function<void()>> discard_;
};

// RunTransaction's default on-retry callback: no caller bookkeeping.
struct NoRetryHook {
  void operator()() const {}
};

// The one optimistic retry loop (paper §3, over Sinfonia
// minitransactions). Runs `body` in a fresh transaction per attempt until it
// commits or fails with a non-retryable status, for at most `max_attempts`
// attempts. `body` returns OK to request commit, Aborted (or Busy) to retry,
// or any other status to stop. NotFound and AlreadyExists are returned
// through WITH a commit: a Get that misses (or a strict Insert that hits) is
// an ANSWER derived from possibly-cached reads, so it must pass commit-time
// validation — and retry on a validation abort — before being reported.
//
// Every attempt is recorded with the coordinator (attempt count and abort
// taxonomy). After a retryable attempt the loop drops the attempt's read
// set from the proxy cache, so the retry refetches instead of failing
// identically on the same stale entry (a cached tip pair joins the read
// set, so it is dropped too), then calls `on_retry` — the caller's own
// per-retry bookkeeping, e.g. a B-tree's op_aborts count — and from the
// fourth attempt on backs off for 100 µs.
template <typename Body, typename OnRetry = NoRetryHook>
Status RunTransaction(sinfonia::Coordinator* coord, ObjectCache* cache,
                      DynamicTxn::Options options, uint32_t max_attempts,
                      Body&& body, OnRetry&& on_retry = OnRetry()) {
  Status last = Status::Aborted("no attempts");
  for (uint32_t attempt = 0; attempt < max_attempts; attempt++) {
    DynamicTxn txn(coord, cache, options);
    Status st = body(txn);
    if (st.IsCommittableAnswer()) {
      Status cst = txn.Commit();
      if (cst.ok()) {
        coord->RecordTxnAttempt(st);
        return st;
      }
      st = std::move(cst);
    }
    coord->RecordTxnAttempt(st);
    if (!st.IsRetryable()) return st;
    last = std::move(st);
    if (cache != nullptr) {
      for (const Addr& a : txn.ReadSetAddrs()) cache->Invalidate(a);
    }
    on_retry();
    if (attempt >= 3) {
      // Persistent conflicts on an oversubscribed host: let the conflicting
      // writer actually run before retrying (see Coordinator::Execute).
      // lint:allow(sleep-in-src): bounded contention backoff inside the
      // retry loop; there is no event to wait on, only a conflicting
      // writer that needs CPU time to finish.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return last;
}

}  // namespace minuet::txn
