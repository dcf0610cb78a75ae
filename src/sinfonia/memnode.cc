#include "sinfonia/memnode.h"

#include <algorithm>
#include <cstring>

namespace minuet::sinfonia {

Memnode::Memnode(MemnodeId id, uint32_t node_size, Options options)
    : id_(id),
      options_(options),
      locks_(options.lock_stripes, node_size, options.lock_shards) {}

std::vector<LockTable::Range> Memnode::TouchedRanges(
    const std::vector<MiniTxn::CompareItem>& compares,
    const std::vector<MiniTxn::ReadItem>& reads,
    const std::vector<MiniTxn::WriteItem>& writes) {
  // Compares and reads only look: they lock shared, so readers of one node
  // do not conflict. Writes lock exclusive.
  using Mode = LockTable::Mode;
  std::vector<LockTable::Range> ranges;
  ranges.reserve(compares.size() + reads.size() + writes.size());
  for (const auto& c : compares) {
    ranges.push_back({c.addr.offset, c.expected.size(), Mode::kShared});
  }
  for (const auto& r : reads) {
    ranges.push_back({r.addr.offset, r.len, Mode::kShared});
  }
  for (const auto& w : writes) {
    ranges.push_back({w.addr.offset, w.data.size(), Mode::kExclusive});
  }
  return ranges;
}

Status Memnode::Prepare(TxId tx,
                        const std::vector<MiniTxn::CompareItem>& compares,
                        const std::vector<MiniTxn::ReadItem>& reads,
                        const std::vector<MiniTxn::WriteItem>& writes,
                        bool blocking, bool* vote,
                        std::vector<std::string>* read_results,
                        std::vector<uint32_t>* failed_compares) {
  const auto wait = blocking ? options_.blocking_wait
                             : std::chrono::microseconds(0);
  MINUET_RETURN_NOT_OK(locks_.Lock(tx, TouchedRanges(compares, reads, writes),
                                   wait));
  *vote = true;
  std::string actual;
  for (uint32_t i = 0; i < compares.size(); i++) {
    const auto& c = compares[i];
    space_.Read(c.addr.offset, static_cast<uint32_t>(c.expected.size()),
                &actual);
    if (actual != c.expected) {
      *vote = false;
      failed_compares->push_back(i);
    }
  }
  if (!*vote) {
    // Compare mismatch: the outcome is decided (abort), release now rather
    // than waiting for the coordinator's abort round.
    locks_.Unlock(tx);
    return Status::OK();
  }
  // A yes-voter's write ranges join the extent before the coordinator logs
  // them. A fuzzy checkpoint whose LSN covers the record then reads back an
  // extent that covers the range, and its block read waits on the lock
  // held here until Commit applies the write.
  uint64_t write_end = 0;
  for (const auto& w : writes) {
    write_end = std::max<uint64_t>(write_end, w.addr.offset + w.data.size());
  }
  if (write_end > 0) space_.EnsureExtent(write_end);
  for (const auto& r : reads) {
    std::string data;
    space_.Read(r.addr.offset, r.len, &data);
    read_results->push_back(std::move(data));
  }
  return Status::OK();
}

void Memnode::Commit(TxId tx, const std::vector<MiniTxn::WriteItem>& writes) {
  for (const auto& w : writes) {
    space_.Write(w.addr.offset, w.data.data(),
                 static_cast<uint32_t>(w.data.size()));
  }
  locks_.Unlock(tx);
}

void Memnode::Abort(TxId tx) { locks_.Unlock(tx); }

void Memnode::ApplyBackupWrites(MemnodeId primary,
                                const std::vector<MiniTxn::WriteItem>& writes,
                                uint64_t lsn) {
  // backup_mu_ is held across the WHOLE batch, not just the map lookup:
  // a transaction's backup writes must be atomic against RestoreFrom
  // streaming the image back into a recovering primary. (Conflicting
  // batches are already serialized by the primary's range locks — the
  // coordinator replicates before releasing them.)
  std::lock_guard<std::mutex> g(backup_mu_);
  auto& slot = backups_[primary];
  if (slot == nullptr) slot = std::make_unique<ByteSpace>();
  for (const auto& w : writes) {
    slot->Write(w.addr.offset, w.data.data(),
                static_cast<uint32_t>(w.data.size()));
  }
  if (lsn != 0) {
    uint64_t& mark = backup_lsns_[primary];
    mark = std::max(mark, lsn);
  }
}

uint64_t Memnode::BackupLsn(MemnodeId primary) const {
  std::lock_guard<std::mutex> g(backup_mu_);
  auto it = backup_lsns_.find(primary);
  return it == backup_lsns_.end() ? 0 : it->second;
}

void Memnode::SetBackupLsn(MemnodeId primary, uint64_t lsn) {
  std::lock_guard<std::mutex> g(backup_mu_);
  backup_lsns_[primary] = lsn;
}

void Memnode::LoseState() {
  // Drop the space wholesale; outstanding locks are abandoned too, as a
  // crashed memnode's lock table would be.
  space_.Reset();
}

void Memnode::LoseBackups() {
  std::lock_guard<std::mutex> g(backup_mu_);
  backups_.clear();
  backup_lsns_.clear();
}

namespace {

// Block copy of [0, limit) from one space into another; unwritten source
// ranges read as zeros, which a fresh destination already holds.
void CopySpace(const store::SlabStore& src, uint64_t limit,
               store::SlabStore* dst) {
  const uint64_t extent = std::min(limit, src.Extent());
  std::string data;
  constexpr uint32_t kBlock = 1 << 16;
  for (uint64_t off = 0; off < extent; off += kBlock) {
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(kBlock, extent - off));
    src.Read(off, n, &data);
    dst->Write(off, data.data(), n);
  }
}

}  // namespace

void Memnode::ClonePrimaryRegion(const Memnode& src, uint64_t limit) {
  CopySpace(src.space_, limit, &space_);
}

void Memnode::SeedBackupFrom(MemnodeId primary, const Memnode& peer) {
  ByteSpace* image = nullptr;
  {
    std::lock_guard<std::mutex> g(backup_mu_);
    auto& slot = backups_[primary];
    slot = std::make_unique<ByteSpace>();  // replace any stale image
    image = slot.get();
  }
  CopySpace(peer.space_, ~0ULL, image);
}

void Memnode::DropBackup(MemnodeId primary) {
  std::lock_guard<std::mutex> g(backup_mu_);
  backups_.erase(primary);
  backup_lsns_.erase(primary);
}

bool Memnode::CopyBackupImage(MemnodeId primary, std::string* out) const {
  std::lock_guard<std::mutex> g(backup_mu_);
  auto it = backups_.find(primary);
  if (it == backups_.end()) return false;
  const ByteSpace& image = *it->second;
  const uint64_t extent = image.Extent();
  out->clear();
  out->reserve(extent);
  std::string block;
  constexpr uint32_t kBlock = 1 << 16;
  for (uint64_t off = 0; off < extent; off += kBlock) {
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(kBlock, extent - off));
    image.Read(off, n, &block);
    out->append(block);
  }
  return true;
}

void Memnode::RestoreFrom(const Memnode& peer) {
  // peer.backup_mu_ is held across the whole streamed read: a straggler
  // transaction that charged its message before the crash may still be
  // replicating into this image, and ApplyBackupWrites batches are atomic
  // under the same mutex.
  std::lock_guard<std::mutex> g(peer.backup_mu_);
  auto it = peer.backups_.find(id_);
  if (it == peer.backups_.end()) return;
  const ByteSpace* image = it->second.get();
  const uint64_t extent = image->Extent();
  std::string data;
  constexpr uint32_t kBlock = 1 << 16;
  for (uint64_t off = 0; off < extent; off += kBlock) {
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(kBlock, extent - off));
    image->Read(off, n, &data);
    space_.Write(off, data.data(), n);
  }
}

}  // namespace minuet::sinfonia
