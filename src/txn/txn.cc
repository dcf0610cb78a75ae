#include "txn/txn.h"

#include <algorithm>

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

void DynamicTxn::JoinReadSet(const ObjectRef& ref, uint64_t seqnum,
                             Payload payload) {
  read_index_.emplace(ref.addr, reads_.size());
  reads_.push_back(ReadRecord{ref, seqnum, std::move(payload)});
}

Status DynamicTxn::ReadInto(const ObjectRef* refs, size_t n, ReadMode mode,
                            Payload* out) {
  if (doomed_) return DoomedStatus();
  const bool fresh = mode == ReadMode::kFresh;
  const bool cached =
      mode == ReadMode::kCachedValidated || mode == ReadMode::kDirty;
  const bool joins =
      mode == ReadMode::kValidated || mode == ReadMode::kCachedValidated;

  // first[i]: the lowest index holding refs[i]'s address — duplicates
  // share its answer — with kFetched set on a first occurrence the
  // minitransaction reads. Sorting indices by (address, index) finds the
  // duplicates without per-entry heap nodes; a call of up to kInline refs
  // (the tip pair, most frontier levels) keeps this scratch on the stack,
  // and a point read needs none of it.
  constexpr size_t kInline = 8;
  constexpr uint32_t kFetched = 1u << 31;
  uint32_t scratch_inline[2 * kInline];
  std::vector<uint32_t> scratch_heap;
  uint32_t* first = scratch_inline;
  first[0] = 0;
  if (n > 1) {
    uint32_t* order = scratch_inline + kInline;
    if (n > kInline) {
      scratch_heap.resize(2 * n);
      first = scratch_heap.data();
      order = first + n;
    }
    for (uint32_t i = 0; i < n; i++) order[i] = i;
    std::sort(order, order + n, [refs](uint32_t a, uint32_t b) {
      return refs[a].addr < refs[b].addr ||
             (refs[a].addr == refs[b].addr && a < b);
    });
    for (size_t k = 0; k < n; k++) {
      const bool dup =
          k > 0 && refs[order[k]].addr == refs[order[k - 1]].addr;
      first[order[k]] = dup ? first[order[k - 1]] : order[k];
    }
  }

  MiniTxn mtx;
  for (uint32_t i = 0; i < n; i++) {
    if (first[i] != i) continue;
    const ObjectRef& ref = refs[i];
    if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
      out[i] = Payload::Borrowed(writes_[it->second].payload);
      continue;
    }
    if (!fresh) {
      if (auto it = read_index_.find(ref.addr); it != read_index_.end()) {
        out[i] = reads_[it->second].payload;
        continue;
      }
    }
    if (cached && cache_ != nullptr) {
      ObjectCache::Entry entry;
      if (cache_->Lookup(ref.addr, &entry)) {
        out[i] = Payload::Of(std::move(entry.payload));
        // Unfetched join: commit-time — or this very call's piggy-backed —
        // validation catches staleness.
        if (joins) JoinReadSet(ref, entry.seqnum, out[i]);
        continue;
      }
    }
    mtx.AddRead(Addr{ReadHome(ref), ref.addr.offset}, ref.total_len());
    first[i] |= kFetched;
  }

  if (!mtx.reads.empty()) {
    if (!fresh) {
      // Validate replicated read-set objects at the fetch's first target so
      // a single-memnode read stays single-memnode. Cache-served records
      // joined above are validated here too: staleness surfaces now
      // instead of at commit.
      const MemnodeId at = mtx.reads[0].addr.memnode;
      for (const ReadRecord& r : reads_) AddSeqCompare(&mtx, r, at);
    }
    // A fetch that joins and validates nothing is checked object by object
    // (fences, versions), so its participants need not hold their locks
    // for one another.
    mtx.piecewise = !joins && mtx.compares.empty();
    MiniResult result;
    MINUET_RETURN_NOT_OK(coord_->Execute(mtx, &result));
    if (!result.committed) {
      // Only a compare fails a read-only minitransaction: some object read
      // earlier has been overwritten. The transaction cannot commit; abort
      // now.
      MarkAborted(AbortReason::kValidationConflict);
      if (net::OpTrace* tr = net::Fabric::ThreadTrace()) {
        tr->validation_aborts++;
      }
      return Status::Aborted(AbortReason::kValidationConflict,
                             "piggyback validation failed");
    }
    size_t k = 0;
    for (uint32_t i = 0; i < n; i++) {
      if ((first[i] & kFetched) == 0) continue;
      first[i] = i;
      const uint64_t seqnum = ObjectSeqnum(result.read_results[k]);
      // Strip the seqnum header in place (memmove) and pin the payload
      // bytes behind a shared owner: every later view of them is a
      // refcount bump, not a copy.
      out[i] = Payload::Of(std::make_shared<const std::string>(
          TakeObjectPayload(std::move(result.read_results[k++]))));
      if (cached && cache_ != nullptr) {
        cache_->Insert(refs[i].addr, seqnum, out[i].owner);
      }
      if (joins) JoinReadSet(refs[i], seqnum, out[i]);
    }
    // The fetch compared every prior read-set record and atomically read
    // the joined ones: the whole read set held at this instant (the
    // paper's one-round warm Get depends on this).
    if (!fresh) validated_reads_ = reads_.size();
  }

  for (uint32_t i = 0; i < n; i++) {
    if (first[i] != i) out[i] = out[first[i]];
  }
  return Status::OK();
}

Result<Payload> DynamicTxn::Read(const ObjectRef& ref, ReadMode mode) {
  Payload out;
  MINUET_RETURN_NOT_OK(ReadInto(&ref, 1, mode, &out));
  return out;
}

Result<std::vector<Payload>> DynamicTxn::Read(
    const std::vector<ObjectRef>& refs, ReadMode mode) {
  std::vector<Payload> out(refs.size());
  MINUET_RETURN_NOT_OK(ReadInto(refs.data(), refs.size(), mode, out.data()));
  return out;
}

Status DynamicTxn::WriteImpl(const ObjectRef& ref, Slice payload,
                             std::optional<uint64_t> known_base) {
  if (doomed_) return DoomedStatus();
  if (payload.size() > ref.payload_len) {
    return Status::InvalidArgument("payload exceeds object size");
  }
  if (!arena_.Owns(payload)) payload = arena_.Dup(payload);
  if (known_base.has_value()) {
    if (read_index_.count(ref.addr) != 0 ||
        write_index_.count(ref.addr) != 0) {
      return Status::InvalidArgument("WriteNew on already-touched object");
    }
    // Expect the known seqnum (0 for a virgin slab). The commit-time
    // compare makes a concurrent double-allocation — or any other write
    // since the caller learned the seqnum — fail validation.
    JoinReadSet(ref, *known_base, Payload());
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
  auto it = read_index_.find(ref.addr);
  if (it == read_index_.end()) {
    MINUET_RETURN_NOT_OK(Read(ref, ReadMode::kValidated).status());
    it = read_index_.find(ref.addr);
  }
  const uint64_t base_seq = reads_[it->second].seqnum;
  write_index_.emplace(ref.addr, writes_.size());
  writes_.push_back(WriteRecord{ref, payload, base_seq + 1});
  return Status::OK();
}

Status DynamicTxn::Write(const ObjectRef& ref, Slice payload) {
  return WriteImpl(ref, payload, std::nullopt);
}
Status DynamicTxn::WriteNew(const ObjectRef& ref, Slice payload,
                            uint64_t base_seqnum) {
  return WriteImpl(ref, payload, base_seqnum);
}

Status DynamicTxn::Commit() {
  if (doomed_) return DoomedStatus();
  if (committed_) return Status::InvalidArgument("already committed");

  if (writes_.empty() && validated_reads_ >= reads_.size()) {
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
