#include "txn/txn.h"

#include <unordered_set>

namespace minuet::txn {

using sinfonia::MemnodeId;
using sinfonia::MiniResult;
using sinfonia::MiniTxn;

DynamicTxn::DynamicTxn(sinfonia::Coordinator* coord, ObjectCache* cache,
                       Options options)
    : coord_(coord), cache_(cache), options_(options) {}

DynamicTxn::~DynamicTxn() {
  if (committed_ || commit_in_doubt_) return;
  for (const auto& undo : discard_) undo();
}

MemnodeId DynamicTxn::ReadHome(const ObjectRef& ref) const {
  if (!ref.replicated_data) return ref.addr.memnode;
  // Replicated object: prefer a replica on a memnode the transaction already
  // touches so the fetch stays single-node; else use the placement hint.
  if (!writes_.empty() && !writes_[0].ref.replicated_data) {
    return writes_[0].ref.addr.memnode;
  }
  for (const ReadRecord& r : reads_) {
    if (!r.ref.replicated_data) return r.ref.addr.memnode;
  }
  // The coordinator routes the placement hint around retired ids, so
  // replicated reads keep working after a scale-in.
  return coord_->ReplicaHome(ref.addr.memnode);
}

void DynamicTxn::AddSeqCompare(MiniTxn* mtx, const ReadRecord& rec,
                               MemnodeId at) const {
  std::string expected;
  PutFixed64(&expected, rec.seqnum);
  const ObjectRef& ref = rec.ref;
  if (ref.replicated_data) {
    mtx->AddCompare(Addr{at, ref.addr.offset}, std::move(expected));
  } else if (ref.rep_seq_offset != 0) {
    mtx->AddCompare(Addr{at, ref.rep_seq_offset}, std::move(expected));
  } else {
    mtx->AddCompare(ref.addr, std::move(expected));
  }
}

Result<DynamicTxn::ReadRecord> DynamicTxn::Fetch(const ObjectRef& ref) {
  const MemnodeId home = ReadHome(ref);
  MiniTxn mtx;
  mtx.AddRead(Addr{home, ref.addr.offset}, ref.total_len());
  if (options_.piggyback_validation) {
    for (const ReadRecord& r : reads_) AddSeqCompare(&mtx, r, home);
  }
  MiniResult result;
  MINUET_RETURN_NOT_OK(coord_->Execute(mtx, &result));
  if (!result.committed) {
    // Piggy-backed validation failed: some object read earlier has been
    // overwritten. The transaction cannot commit; abort now.
    MarkAborted(AbortReason::kValidationConflict);
    if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->validation_aborts++;
    return Status::Aborted(AbortReason::kValidationConflict,
                           "piggyback validation failed");
  }
  // Every read-set record compared above held its seqnum at this instant.
  if (options_.piggyback_validation) validated_reads_ = reads_.size();
  ReadRecord rec;
  rec.ref = ref;
  rec.seqnum = ObjectSeqnum(result.read_results[0]);
  // Strip the seqnum header in place (memmove) and pin the payload bytes
  // behind a shared owner: every later view of this record is a refcount
  // bump, not a copy.
  rec.payload = Payload::Of(std::make_shared<const std::string>(
      TakeObjectPayload(std::move(result.read_results[0]))));
  return rec;
}

Result<Payload> DynamicTxn::ReadView(const ObjectRef& ref) {
  if (doomed_) return DoomedStatus();
  if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
    return Payload::Borrowed(writes_[it->second].payload);
  }
  if (auto it = read_index_.find(ref.addr); it != read_index_.end()) {
    return reads_[it->second].payload;
  }
  auto fetched = Fetch(ref);
  if (!fetched.ok()) return fetched.status();
  read_index_.emplace(ref.addr, reads_.size());
  reads_.push_back(std::move(fetched).value());
  // The new record was read atomically by the very minitransaction that
  // validated the rest of the read set: count it as validated too (the
  // paper's one-round warm Get depends on this).
  if (options_.piggyback_validation) validated_reads_ = reads_.size();
  return reads_.back().payload;
}

Result<Payload> DynamicTxn::DirtyReadView(const ObjectRef& ref) {
  if (doomed_) return DoomedStatus();
  if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
    return Payload::Borrowed(writes_[it->second].payload);
  }
  if (auto it = read_index_.find(ref.addr); it != read_index_.end()) {
    return reads_[it->second].payload;
  }
  if (cache_ != nullptr) {
    ObjectCache::Entry entry;
    if (cache_->Lookup(ref.addr, &entry)) {
      return Payload::Of(std::move(entry.payload));
    }
  }
  // Cache miss: fetch, but do NOT join the read set. The fetch still
  // piggy-backs validation of the current read set (it is a minitransaction
  // like any other, and early abort detection is free here).
  auto fetched = Fetch(ref);
  if (!fetched.ok()) return fetched.status();
  if (cache_ != nullptr) {
    cache_->Insert(ref.addr, fetched->seqnum, fetched->payload.owner);
  }
  return std::move(fetched->payload);
}

Result<Payload> DynamicTxn::ReadCachedView(const ObjectRef& ref) {
  if (doomed_) return DoomedStatus();
  if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
    return Payload::Borrowed(writes_[it->second].payload);
  }
  if (auto it = read_index_.find(ref.addr); it != read_index_.end()) {
    return reads_[it->second].payload;
  }
  if (cache_ != nullptr) {
    ObjectCache::Entry entry;
    if (cache_->Lookup(ref.addr, &entry)) {
      ReadRecord rec;
      rec.ref = ref;
      rec.seqnum = entry.seqnum;
      rec.payload = Payload::Of(std::move(entry.payload));
      read_index_.emplace(ref.addr, reads_.size());
      reads_.push_back(std::move(rec));
      return reads_.back().payload;
    }
  }
  auto fetched = Fetch(ref);
  if (!fetched.ok()) return fetched.status();
  if (cache_ != nullptr) {
    cache_->Insert(ref.addr, fetched->seqnum, fetched->payload.owner);
  }
  read_index_.emplace(ref.addr, reads_.size());
  reads_.push_back(std::move(fetched).value());
  // Read atomically by the validating minitransaction itself: validated.
  if (options_.piggyback_validation) validated_reads_ = reads_.size();
  return reads_.back().payload;
}

Result<Payload> DynamicTxn::FetchFreshView(const ObjectRef& ref) {
  if (doomed_) return DoomedStatus();
  if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
    return Payload::Borrowed(writes_[it->second].payload);
  }
  auto fetched = Fetch(ref);
  if (!fetched.ok()) return fetched.status();
  return std::move(fetched->payload);
}

// The one skeleton behind every batched-fetch flavor (see BatchPolicy in
// the header): dedupe the addresses, serve what local state already can,
// fetch ALL remaining misses in ONE minitransaction, then run the flavor's
// per-entry bookkeeping (cache fill, read-set join).
Result<std::vector<Payload>> DynamicTxn::BatchFetch(
    const std::vector<ObjectRef>& refs, const BatchPolicy& policy) {
  if (doomed_) return DoomedStatus();

  // Distinct addresses this call resolved WITHOUT the read set: cache hits
  // that must not join it, and fetched entries of non-joining flavors.
  std::unordered_map<Addr, Payload, sinfonia::AddrHash> local;
  std::unordered_set<Addr, sinfonia::AddrHash> pending;
  std::vector<ObjectRef> fetched;
  MiniTxn mtx;
  for (const ObjectRef& ref : refs) {
    const Addr addr = ref.addr;
    if (write_index_.count(addr) != 0 || local.count(addr) != 0 ||
        pending.count(addr) != 0) {
      continue;
    }
    if (policy.serve_read_set && read_index_.count(addr) != 0) continue;
    if (policy.consult_cache && cache_ != nullptr) {
      ObjectCache::Entry entry;
      if (cache_->Lookup(addr, &entry)) {
        if (policy.cache_hit_joins_read_set) {
          // Unfetched join: commit-time — or this very batch's
          // piggy-backed — validation catches staleness.
          ReadRecord rec;
          rec.ref = ref;
          rec.seqnum = entry.seqnum;
          rec.payload = Payload::Of(std::move(entry.payload));
          read_index_.emplace(addr, reads_.size());
          reads_.push_back(std::move(rec));
        } else {
          local.emplace(addr, Payload::Of(std::move(entry.payload)));
        }
        continue;
      }
    }
    pending.insert(addr);
    mtx.AddRead(Addr{ReadHome(ref), addr.offset}, ref.total_len());
    fetched.push_back(ref);
  }

  if (!mtx.reads.empty()) {
    if (policy.piggyback) {
      // Validate replicated read-set objects at the batch's first target so
      // a single-memnode batch stays single-memnode. Cache-served records
      // joined above are validated here too: staleness surfaces now
      // instead of at commit.
      const MemnodeId at = mtx.reads[0].addr.memnode;
      for (const ReadRecord& r : reads_) AddSeqCompare(&mtx, r, at);
    }
    MiniResult result;
    MINUET_RETURN_NOT_OK(coord_->Execute(mtx, &result));
    if (!result.committed) {
      if (policy.piggyback) {
        MarkAborted(AbortReason::kValidationConflict);
        if (net::OpTrace* tr = net::Fabric::ThreadTrace()) {
          tr->validation_aborts++;
        }
        return Status::Aborted(AbortReason::kValidationConflict,
                               "piggyback validation failed");
      }
      MarkAborted(AbortReason::kOther);
      return Status::Aborted(AbortReason::kOther, "batched fetch failed");
    }
    for (size_t k = 0; k < fetched.size(); k++) {
      ReadRecord rec;
      rec.ref = fetched[k];
      rec.seqnum = ObjectSeqnum(result.read_results[k]);
      rec.payload = Payload::Of(std::make_shared<const std::string>(
          TakeObjectPayload(std::move(result.read_results[k]))));
      if (policy.fill_cache && cache_ != nullptr) {
        cache_->Insert(rec.ref.addr, rec.seqnum, rec.payload.owner);
      }
      if (policy.join_read_set) {
        read_index_.emplace(rec.ref.addr, reads_.size());
        reads_.push_back(std::move(rec));
      } else {
        local.emplace(rec.ref.addr, std::move(rec.payload));
      }
    }
    // The batch compared every prior read-set record and atomically read
    // the fetched ones: the whole read set held at this instant.
    if (policy.piggyback) validated_reads_ = reads_.size();
  }

  // Resolve every ref, duplicates included: write set first, then what
  // this call resolved locally (which outranks the read set — FetchFresh
  // flavors must answer with the fresh bytes even for read-set members),
  // then the read set. Each resolution is a refcount bump.
  std::vector<Payload> out(refs.size());
  for (size_t i = 0; i < refs.size(); i++) {
    const Addr addr = refs[i].addr;
    if (auto it = write_index_.find(addr); it != write_index_.end()) {
      out[i] = Payload::Borrowed(writes_[it->second].payload);
    } else if (auto it = local.find(addr); it != local.end()) {
      out[i] = it->second;
    } else {
      out[i] = reads_[read_index_.at(addr)].payload;
    }
  }
  return out;
}

Result<std::vector<Payload>> DynamicTxn::ReadBatchViews(
    const std::vector<ObjectRef>& refs) {
  BatchPolicy policy{};
  policy.serve_read_set = true;
  policy.join_read_set = true;
  policy.piggyback = options_.piggyback_validation;
  return BatchFetch(refs, policy);
}

Result<std::vector<Payload>> DynamicTxn::FetchFreshBatchViews(
    const std::vector<ObjectRef>& refs) {
  // Like FetchFresh: an object this transaction already wrote is served
  // from the write set, not the memnode's pre-write image; everything else
  // is fetched even when the read set holds it.
  BatchPolicy policy{};
  return BatchFetch(refs, policy);
}

Result<std::vector<Payload>> DynamicTxn::DirtyReadBatchViews(
    const std::vector<ObjectRef>& refs) {
  BatchPolicy policy{};
  policy.serve_read_set = true;
  policy.consult_cache = true;
  policy.fill_cache = true;
  policy.piggyback = options_.piggyback_validation;
  return BatchFetch(refs, policy);
}

Result<std::vector<Payload>> DynamicTxn::ReadCachedBatchViews(
    const std::vector<ObjectRef>& refs) {
  BatchPolicy policy{};
  policy.serve_read_set = true;
  policy.consult_cache = true;
  policy.cache_hit_joins_read_set = true;
  policy.fill_cache = true;
  policy.join_read_set = true;
  policy.piggyback = options_.piggyback_validation;
  return BatchFetch(refs, policy);
}

Status DynamicTxn::WriteImpl(const ObjectRef& ref, Slice payload,
                             std::optional<uint64_t> known_base,
                             bool stable) {
  if (doomed_) return DoomedStatus();
  if (payload.size() > ref.payload_len) {
    return Status::InvalidArgument("payload exceeds object size");
  }
  if (!stable) payload = arena_.Dup(payload);
  if (known_base.has_value()) {
    if (read_index_.count(ref.addr) != 0 ||
        write_index_.count(ref.addr) != 0) {
      return Status::InvalidArgument("WriteNew on already-touched object");
    }
    // Expect the known seqnum (0 for a virgin slab). The commit-time
    // compare makes a concurrent double-allocation — or any other write
    // since the caller learned the seqnum — fail validation.
    ReadRecord rec;
    rec.ref = ref;
    rec.seqnum = *known_base;
    read_index_.emplace(ref.addr, reads_.size());
    reads_.push_back(std::move(rec));
    write_index_.emplace(ref.addr, writes_.size());
    writes_.push_back(WriteRecord{ref, payload, *known_base + 1});
    return Status::OK();
  }
  if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
    writes_[it->second].payload = payload;
    return Status::OK();
  }
  // The object's current seqnum must be in the read set so commit can
  // validate it ("if the object is written later on, it will first be added
  // to the read set", §3).
  uint64_t base_seq = 0;
  if (auto it = read_index_.find(ref.addr); it != read_index_.end()) {
    base_seq = reads_[it->second].seqnum;
  } else {
    auto fetched = Fetch(ref);
    if (!fetched.ok()) return fetched.status();
    base_seq = fetched->seqnum;
    read_index_.emplace(ref.addr, reads_.size());
    reads_.push_back(std::move(fetched).value());
  }
  write_index_.emplace(ref.addr, writes_.size());
  writes_.push_back(WriteRecord{ref, payload, base_seq + 1});
  return Status::OK();
}

Status DynamicTxn::Write(const ObjectRef& ref, Slice payload) {
  return WriteImpl(ref, payload, std::nullopt, /*stable=*/false);
}
Status DynamicTxn::WriteNew(const ObjectRef& ref, Slice payload,
                            uint64_t base_seqnum) {
  return WriteImpl(ref, payload, base_seqnum, /*stable=*/false);
}
Status DynamicTxn::WriteStable(const ObjectRef& ref, Slice payload) {
  return WriteImpl(ref, payload, std::nullopt, /*stable=*/true);
}
Status DynamicTxn::WriteNewStable(const ObjectRef& ref, Slice payload,
                                  uint64_t base_seqnum) {
  return WriteImpl(ref, payload, base_seqnum, /*stable=*/true);
}

Status DynamicTxn::Commit() {
  if (doomed_) return DoomedStatus();
  if (committed_) return Status::InvalidArgument("already committed");

  if (writes_.empty() && options_.piggyback_validation &&
      validated_reads_ >= reads_.size()) {
    // Read-only transaction with piggy-backed validation: the last fetch
    // already validated the whole read set atomically, so the transaction
    // is serializable at that instant. No commit minitransaction needed.
    // (Guarded by validated_reads_: a read set extended by cache hits
    // AFTER the last fetch — or served entirely from the cache, with no
    // fetch at all — was never compared against a memnode, and falls
    // through to the compare-only commit below instead.)
    committed_ = true;
    return Status::OK();
  }

  // Choose the memnode where replicated objects validate: the one the
  // plain-object part of the commit already engages, if any; an
  // all-replicated commit (e.g. the GC horizon publish) validates at a
  // LIVE node — the coordinator routes around retired ids (scale-in).
  MemnodeId at = coord_->ReplicaHome(0);
  bool found = false;
  for (const WriteRecord& w : writes_) {
    if (!w.ref.replicated_data) {
      at = w.ref.addr.memnode;
      found = true;
      break;
    }
  }
  if (!found) {
    for (const ReadRecord& r : reads_) {
      if (!r.ref.replicated_data) {
        at = r.ref.addr.memnode;
        found = true;
        break;
      }
    }
  }

  MiniTxn mtx;
  mtx.blocking = options_.blocking_commit;
  for (const ReadRecord& r : reads_) AddSeqCompare(&mtx, r, at);
  for (const WriteRecord& w : writes_) {
    std::string image = MakeObjectImage(w.new_seqnum, w.payload);
    if (w.ref.replicated_data) {
      // The coordinator expands all-node writes over the memnode set in
      // force when the commit executes, so an elastic membership change
      // between here and execution can never strand a stale replica.
      mtx.AddWriteAll(w.ref.addr.offset, std::move(image));
    } else {
      mtx.AddWrite(w.ref.addr, std::move(image));
      if (w.ref.rep_seq_offset != 0) {
        // Replicated seqnum table (Aguilera baseline): mirror the new
        // seqnum at every memnode.
        std::string seq;
        PutFixed64(&seq, w.new_seqnum);
        mtx.AddWriteAll(w.ref.rep_seq_offset, std::move(seq));
      }
    }
  }

  MiniResult result;
  if (Status st = coord_->Execute(mtx, &result); !st.ok()) {
    // Busy: no participant kept its locks, so nothing landed. Anything
    // else (Unavailable) may have committed somewhere.
    commit_in_doubt_ = !st.IsBusy();
    return st;
  }
  if (!result.committed) {
    MarkAborted(AbortReason::kValidationConflict);
    if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->validation_aborts++;
    return Status::Aborted(AbortReason::kValidationConflict,
                           "commit validation failed");
  }
  committed_ = true;
  // Refresh the proxy cache with what we just wrote: the cache is
  // incoherent anyway, but serving our own latest writes reduces stale
  // hits. (One copy per ALREADY-CACHED write — cold addresses cost
  // nothing.)
  if (cache_ != nullptr) {
    for (const WriteRecord& w : writes_) {
      ObjectCache::Entry entry;
      if (cache_->Lookup(w.ref.addr, &entry)) {
        cache_->Insert(w.ref.addr, w.new_seqnum,
                       std::make_shared<const std::string>(
                           w.payload.data(), w.payload.size()));
      }
    }
  }
  return Status::OK();
}

}  // namespace minuet::txn
