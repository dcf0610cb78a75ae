#include "store/slab_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace minuet::store {

// ---------------------------------------------------------------------------
// RamSlabStore

const char* RamSlabStore::ChunkAt(uint64_t index) const {
  std::lock_guard<std::mutex> g(grow_mu_);
  if (index >= chunks_.size()) return nullptr;
  return chunks_[index].get();
}

char* RamSlabStore::MutableChunkAt(uint64_t index) {
  std::lock_guard<std::mutex> g(grow_mu_);
  while (index >= chunks_.size()) {
    auto chunk = std::make_unique<char[]>(kChunkBytes);
    std::memset(chunk.get(), 0, kChunkBytes);
    chunks_.push_back(std::move(chunk));
  }
  return chunks_[index].get();
}

void RamSlabStore::Read(uint64_t offset, uint32_t len,
                        std::string* out) const {
  out->assign(len, '\0');
  uint32_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t chunk = pos / kChunkBytes;
    const uint64_t in_chunk = pos % kChunkBytes;
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(len - done, kChunkBytes - in_chunk));
    if (const char* base = ChunkAt(chunk)) {
      std::memcpy(out->data() + done, base + in_chunk, n);
    }  // else: unallocated region reads as zeros
    done += n;
  }
}

void RamSlabStore::Write(uint64_t offset, const char* data, uint32_t len) {
  uint32_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t chunk = pos / kChunkBytes;
    const uint64_t in_chunk = pos % kChunkBytes;
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(len - done, kChunkBytes - in_chunk));
    std::memcpy(MutableChunkAt(chunk) + in_chunk, data + done, n);
    done += n;
  }
  EnsureExtent(offset + len);
}

uint64_t RamSlabStore::Extent() const {
  return extent_.load(std::memory_order_acquire);
}

void RamSlabStore::EnsureExtent(uint64_t extent) {
  if (extent_.load(std::memory_order_acquire) >= extent) return;
  std::lock_guard<std::mutex> g(grow_mu_);
  if (extent_.load(std::memory_order_relaxed) < extent) {
    extent_.store(extent, std::memory_order_release);
  }
}

void RamSlabStore::Reset() {
  std::lock_guard<std::mutex> g(grow_mu_);
  chunks_.clear();
  extent_.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// FileSlabStore

FileSlabStore::~FileSlabStore() { Close(); }

Status FileSlabStore::Open() {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ >= 0) return Status::OK();
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Unavailable("open(" + path_ + "): " +
                               std::strerror(errno));
  }
  struct stat st;
  extent_ = (::fstat(fd_, &st) == 0) ? static_cast<uint64_t>(st.st_size) : 0;
  err_ = Status::OK();
  return Status::OK();
}

void FileSlabStore::Close() {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void FileSlabStore::Read(uint64_t offset, uint32_t len,
                         std::string* out) const {
  out->assign(len, '\0');
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0 || len == 0) return;
  uint32_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, out->data() + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      err_ = Status::Unavailable("pread(" + path_ + "): " +
                                 std::strerror(errno));
      return;
    }
    if (n == 0) return;  // past EOF: the zero-fill from assign() stands
    done += static_cast<uint32_t>(n);
  }
}

void FileSlabStore::Write(uint64_t offset, const char* data, uint32_t len) {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0) {
    err_ = Status::Unavailable("write on closed FileSlabStore " + path_);
    return;
  }
  uint32_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd_, data + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      err_ = Status::Unavailable("pwrite(" + path_ + "): " +
                                 std::strerror(errno));
      return;
    }
    done += static_cast<uint32_t>(n);
  }
  extent_ = std::max(extent_, offset + len);
}

uint64_t FileSlabStore::Extent() const {
  std::lock_guard<std::mutex> g(mu_);
  return extent_;
}

void FileSlabStore::EnsureExtent(uint64_t extent) {
  std::lock_guard<std::mutex> g(mu_);
  extent_ = std::max(extent_, extent);
}

void FileSlabStore::Reset() {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ >= 0 && ::ftruncate(fd_, 0) != 0) {
    err_ = Status::Unavailable("ftruncate(" + path_ + "): " +
                               std::strerror(errno));
    return;
  }
  extent_ = 0;
  err_ = Status::OK();
}

Status FileSlabStore::Sync() {
  std::lock_guard<std::mutex> g(mu_);
  if (!err_.ok()) return err_;
  if (fd_ < 0) return Status::Unavailable("sync on closed FileSlabStore");
  if (::fsync(fd_) != 0) {
    err_ = Status::Unavailable("fsync(" + path_ + "): " +
                               std::strerror(errno));
    return err_;
  }
  return Status::OK();
}

Status FileSlabStore::status() const {
  std::lock_guard<std::mutex> g(mu_);
  return err_;
}

}  // namespace minuet::store
