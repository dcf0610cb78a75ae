// Memnode storage behind an interface: a SlabStore is the unstructured
// byte space a memnode serves minitransactions from. Two implementations:
//
//   RamSlabStore  — the growable chunked in-memory space the paper's
//                   RAM-only memnodes use (extracted from Memnode; the
//                   sinfonia layer aliases it as ByteSpace).
//   FileSlabStore — the same contract over a file (pread/pwrite). Used for
//                   checkpoint images (src/store/checkpointed_store.h) and
//                   as the file-backed medium a durable memnode could run
//                   on directly.
//
// Contract shared by both: unwritten bytes read as zero, Extent() is the
// high-water mark of writes (or of EnsureExtent), Reset() drops everything.
// Reads and writes of disjoint ranges may run concurrently; overlapping
// accesses are the caller's problem (memnodes serialize them through the
// lock table).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace minuet::store {

class SlabStore {
 public:
  virtual ~SlabStore() = default;

  virtual void Read(uint64_t offset, uint32_t len, std::string* out) const = 0;
  virtual void Write(uint64_t offset, const char* data, uint32_t len) = 0;

  // High-water mark: one past the last byte ever written (or forced by
  // EnsureExtent).
  virtual uint64_t Extent() const = 0;

  // Raise the high-water mark without writing: recovery loads a checkpoint
  // image whose all-zero tail blocks were never materialized, but the
  // recovered space must report the captured extent (GC scans and the next
  // checkpoint are bounded by it).
  virtual void EnsureExtent(uint64_t extent) = 0;

  // Drop all content (crash simulation / recovery staging).
  virtual void Reset() = 0;

  // Flush to the durable medium. No-op for RAM.
  virtual Status Sync() { return Status::OK(); }
};

// True iff every byte of `block` is zero (checkpoint writers skip such
// blocks: file images stay sparse, recovery skips materializing them).
inline bool IsAllZero(const std::string& block) {
  for (char c : block) {
    if (c != '\0') return false;
  }
  return true;
}

// Growable chunked byte space. Chunks never move once allocated, so reads
// and writes under stripe locks do not race with growth. Unwritten bytes
// read as zero.
class RamSlabStore final : public SlabStore {
 public:
  static constexpr size_t kChunkBytes = 1 << 20;  // 1 MiB

  void Read(uint64_t offset, uint32_t len, std::string* out) const override;
  void Write(uint64_t offset, const char* data, uint32_t len) override;
  uint64_t Extent() const override;
  void EnsureExtent(uint64_t extent) override;
  void Reset() override;

 private:
  const char* ChunkAt(uint64_t index) const;
  char* MutableChunkAt(uint64_t index);

  mutable std::mutex grow_mu_;  // guards chunks_ and extent_'s growth
  std::vector<std::unique_ptr<char[]>> chunks_;
  // Monotonic between Resets, so a write or EnsureExtent that the extent
  // already covers reads it without taking grow_mu_.
  std::atomic<uint64_t> extent_{0};
};

// The same contract over a file. Open() creates the file if absent; Reset()
// truncates it to zero. Reads past EOF zero-fill, so a sparse image file
// (all-zero blocks never written) reads back exactly like the RAM space it
// captured. I/O errors latch into status() — the byte-granular Read/Write
// interface has no error channel, so checkpoint/recovery code checks the
// latch after streaming.
class FileSlabStore final : public SlabStore {
 public:
  explicit FileSlabStore(std::string path) : path_(std::move(path)) {}
  ~FileSlabStore() override;

  Status Open();
  void Close();

  void Read(uint64_t offset, uint32_t len, std::string* out) const override;
  void Write(uint64_t offset, const char* data, uint32_t len) override;
  uint64_t Extent() const override;
  void EnsureExtent(uint64_t extent) override;
  void Reset() override;
  Status Sync() override;

  const std::string& path() const { return path_; }
  // First I/O error observed since Open/Reset, if any.
  Status status() const;

 private:
  std::string path_;
  mutable std::mutex mu_;  // guards fd_, extent_, err_
  int fd_ = -1;
  uint64_t extent_ = 0;
  // Mutable: Read() is const on the interface but latches read errors too.
  mutable Status err_;
};

}  // namespace minuet::store
