#include "wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/byteio.h"

namespace minuet::wal {

// ---------------------------------------------------------------------------
// Record framing

uint32_t Crc32(const char* data, size_t n) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeRecord(uint64_t lsn, const std::vector<WalWrite>& writes,
                  std::string* out) {
  const size_t frame_start = out->size();
  out->resize(frame_start + kFrameHeaderBytes);  // patched below
  const size_t payload_start = out->size();
  PutFixed64(out, lsn);
  PutFixed32(out, static_cast<uint32_t>(writes.size()));
  for (const WalWrite& w : writes) {
    PutFixed64(out, w.offset);
    PutFixed32(out, static_cast<uint32_t>(w.data.size()));
    out->append(w.data);
  }
  const uint32_t len = static_cast<uint32_t>(out->size() - payload_start);
  EncodeFixed32(out->data() + frame_start, len);
  EncodeFixed32(out->data() + frame_start + 4,
                Crc32(out->data() + payload_start, len));
}

namespace {

// First index in [i, n) where the images differ, or n. Equal stretches
// are skipped a word at a time.
size_t NextDifference(const char* a, const char* b, size_t i, size_t n) {
  for (; i + 8 <= n; i += 8) {
    if (DecodeFixed64(a + i) != DecodeFixed64(b + i)) break;
  }
  while (i < n && a[i] == b[i]) i++;
  return i;
}

// First index in [i, n) where the images agree again, or n.
size_t NextAgreement(const char* a, const char* b, size_t i, size_t n) {
  while (i < n && a[i] != b[i]) i++;
  return i;
}

}  // namespace

void AppendChangedRanges(uint64_t offset, std::string_view pre,
                         std::string_view post,
                         std::vector<WalWrite>* writes) {
  const size_t n = post.size();
  const char* a = pre.data();
  const char* b = post.data();
  size_t run_begin = 0;
  size_t run_end = 0;  // run_end == 0: no run open yet
  auto flush = [&] {
    writes->push_back(WalWrite{
        offset + run_begin,
        std::string(post.substr(run_begin, run_end - run_begin))});
  };
  size_t i = NextDifference(a, b, 0, n);
  while (i < n) {
    const size_t end = NextAgreement(a, b, i, n);
    if (run_end > 0 && i - run_end < kWriteHeaderBytes) {
      run_end = end;  // the gap costs less than a second header
    } else {
      if (run_end > 0) flush();
      run_begin = i;
      run_end = end;
    }
    i = NextDifference(a, b, end, n);
  }
  if (run_end > 0) flush();
}

bool DecodePayload(const char* data, size_t n, WalRecord* rec) {
  if (n < kPayloadHeaderBytes) return false;
  rec->lsn = DecodeFixed64(data);
  const uint32_t count = DecodeFixed32(data + 8);
  size_t pos = kPayloadHeaderBytes;
  rec->writes.clear();
  rec->writes.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; i++) {
    if (pos + kWriteHeaderBytes > n) return false;
    WalWrite w;
    w.offset = DecodeFixed64(data + pos);
    const uint32_t len = DecodeFixed32(data + pos + 8);
    pos += kWriteHeaderBytes;
    if (len > n || pos + len > n) return false;
    w.data.assign(data + pos, len);
    pos += len;
    rec->writes.push_back(std::move(w));
  }
  return pos == n;  // trailing garbage inside a CRC-clean payload: malformed
}

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kNone: return "none";
    case DurabilityMode::kAsync: return "async";
    case DurabilityMode::kSync: return "sync";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Wal

namespace {

// wal-NNNNNN.log -> NNNNNN; 0 if the name does not parse.
uint64_t ParseSegmentSeq(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.size() < 9 || name.compare(0, 4, "wal-") != 0) return 0;
  return std::strtoull(name.c_str() + 4, nullptr, 10);
}

}  // namespace

Wal::~Wal() { Close(); }

std::string Wal::SegmentPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Status Wal::Open() {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ >= 0) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Unavailable("mkdir(" + dir_ + "): " + ec.message());
  }
  // Recover LSN state and per-segment coverage from whatever segments a
  // previous life left behind; they become closed segments of this one.
  closed_.clear();
  uint64_t max_seq = 0;
  uint64_t max_lsn = 0;
  for (const std::string& path : ListSegmentFiles(dir_)) {
    uint64_t seg_max = 0;
    WalReader reader(std::vector<std::string>{path});
    WalRecord rec;
    while (reader.Next(&rec)) seg_max = rec.lsn;
    const uint64_t seq = ParseSegmentSeq(path);
    closed_.push_back({seq, path, seg_max});
    max_seq = std::max(max_seq, seq);
    max_lsn = std::max(max_lsn, seg_max);
  }
  active_seq_ = max_seq;  // RotateLocked opens max_seq + 1
  next_lsn_ = max_lsn + 1;
  last_lsn_.store(max_lsn, std::memory_order_release);
  synced_lsn_.store(max_lsn, std::memory_order_release);
  return RotateLocked();
}

void Wal::Close() {
  std::unique_lock<std::mutex> lk(sync_mu_);
  sync_cv_.wait(lk, [this] { return !sync_in_progress_; });
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<uint64_t> Wal::Append(const std::vector<WalWrite>& writes) {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0) return Status::Unavailable("wal is not open");
  const uint64_t lsn = next_lsn_++;
  scratch_.clear();
  EncodeRecord(lsn, writes, &scratch_);
  size_t done = 0;
  while (done < scratch_.size()) {
    const ssize_t n =
        ::pwrite(fd_, scratch_.data() + done, scratch_.size() - done,
                 static_cast<off_t>(appended_bytes_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("pwrite(wal): ") +
                                 std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  appended_bytes_ += scratch_.size();
  active_max_lsn_ = lsn;
  last_lsn_.store(lsn, std::memory_order_release);
  metrics_.appends.Increment();
  metrics_.append_bytes.Add(scratch_.size());
  return lsn;
}

Status Wal::Sync(uint64_t lsn) {
  if (synced_lsn_.load(std::memory_order_acquire) >= lsn) return Status::OK();
  std::unique_lock<std::mutex> lk(sync_mu_);
  while (synced_lsn_.load(std::memory_order_acquire) < lsn) {
    if (sync_in_progress_) {
      // Another thread's fsync is in flight; it covers every append that
      // landed before it snapshotted — possibly including ours. Wait and
      // re-check: this is the group-commit ride-along.
      sync_cv_.wait(lk);
      continue;
    }
    sync_in_progress_ = true;
    const std::function<void()> hook = sync_hook_;
    uint64_t target_lsn = 0;
    uint64_t target_bytes = 0;
    int fd = -1;
    {
      std::lock_guard<std::mutex> g(mu_);
      target_lsn = last_lsn_.load(std::memory_order_relaxed);
      target_bytes = appended_bytes_;
      fd = fd_;
    }
    lk.unlock();
    if (hook) hook();
    Status st = Status::OK();
    if (fd < 0) {
      st = Status::Unavailable("wal closed during sync");
    } else if (::fsync(fd) != 0) {
      st = Status::Unavailable(std::string("fsync(wal): ") +
                               std::strerror(errno));
    } else {
      metrics_.fsyncs.Increment();
    }
    lk.lock();
    if (st.ok()) {
      if (synced_lsn_.load(std::memory_order_relaxed) < target_lsn) {
        synced_lsn_.store(target_lsn, std::memory_order_release);
      }
      std::lock_guard<std::mutex> g(mu_);
      // No rotation can have intervened: rotation waits out in-flight
      // syncs under sync_mu_, so these bytes still belong to this segment.
      synced_bytes_ = std::max(synced_bytes_, target_bytes);
    }
    sync_in_progress_ = false;
    sync_cv_.notify_all();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status Wal::RotateLocked() {
  if (fd_ >= 0) {
    if (appended_bytes_ > synced_bytes_) {
      if (::fsync(fd_) != 0) {
        return Status::Unavailable(std::string("fsync(wal): ") +
                                   std::strerror(errno));
      }
      metrics_.fsyncs.Increment();
    }
    ::close(fd_);
    closed_.push_back({active_seq_, SegmentPath(active_seq_),
                       active_max_lsn_});
    // Everything up to last_lsn_ now sits fsynced in closed segments.
    synced_lsn_.store(last_lsn_.load(std::memory_order_relaxed),
                      std::memory_order_release);
  }
  active_seq_++;
  fd_ = ::open(SegmentPath(active_seq_).c_str(),
               O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Unavailable("open(" + SegmentPath(active_seq_) +
                               "): " + std::strerror(errno));
  }
  appended_bytes_ = 0;
  synced_bytes_ = 0;
  active_max_lsn_ = 0;
  return Status::OK();
}

void Wal::DeleteCoveredLocked(uint64_t lsn) {
  auto covered = [lsn](const ClosedSegment& s) { return s.max_lsn <= lsn; };
  for (const ClosedSegment& s : closed_) {
    if (covered(s)) ::unlink(s.path.c_str());
  }
  closed_.erase(std::remove_if(closed_.begin(), closed_.end(), covered),
                closed_.end());
}

Status Wal::TruncateTo(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(sync_mu_);
  sync_cv_.wait(lk, [this] { return !sync_in_progress_; });
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0) return Status::Unavailable("wal is not open");
  MINUET_RETURN_NOT_OK(RotateLocked());
  DeleteCoveredLocked(lsn);
  metrics_.truncations.Increment();
  return Status::OK();
}

Status Wal::RestartAppend(uint64_t next_lsn) {
  std::unique_lock<std::mutex> lk(sync_mu_);
  sync_cv_.wait(lk, [this] { return !sync_in_progress_; });
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0) return Status::Unavailable("wal is not open");
  MINUET_RETURN_NOT_OK(RotateLocked());
  next_lsn_ = next_lsn;
  last_lsn_.store(next_lsn - 1, std::memory_order_release);
  synced_lsn_.store(next_lsn - 1, std::memory_order_release);
  return Status::OK();
}

void Wal::CrashLoseVolatile() {
  std::unique_lock<std::mutex> lk(sync_mu_);
  sync_cv_.wait(lk, [this] { return !sync_in_progress_; });
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0) return;
  // Losing the page cache: the active segment keeps only what fsync
  // confirmed. (Closed segments were fsynced at rotation.)
  if (::ftruncate(fd_, static_cast<off_t>(synced_bytes_)) != 0) {
    // Crash simulation over a real file that refuses to shrink — treat the
    // on-disk bytes as the surviving state.
    return;
  }
  appended_bytes_ = synced_bytes_;
  const uint64_t synced = synced_lsn_.load(std::memory_order_relaxed);
  last_lsn_.store(synced, std::memory_order_release);
  next_lsn_ = synced + 1;
  active_max_lsn_ = synced_bytes_ > 0 ? synced : 0;
}

void Wal::SetSyncHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> g(sync_mu_);
  sync_hook_ = std::move(hook);
}

}  // namespace minuet::wal
