// Bump-pointer arena for transaction-scoped byte buffers.
//
// A DynamicTxn owns one Arena: every write-set image, node encoding and
// staging buffer the transaction produces is bump-allocated from it, so a
// whole minitransaction's worth of buffers costs ONE malloc in the steady
// state instead of a heap allocation (and free) per buffer. Allocations are
// never individually freed — everything is reclaimed when the arena is
// destroyed or Reset(). Blocks are stable: a pointer returned by Allocate
// remains valid (and its bytes unmoved) for the arena's lifetime, which is
// what lets the write set hold Slices into it.
//
// Not thread-safe: an arena belongs to exactly one transaction, and a
// DynamicTxn is single-threaded by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/slice.h"

namespace minuet {

class Arena {
 public:
  static constexpr size_t kBlockSize = 8192;
  // Requests above this get a dedicated block so they cannot strand most of
  // a fresh standard block.
  static constexpr size_t kOversize = kBlockSize / 4;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // 8-byte-aligned allocation; the returned region is uninitialized.
  char* Allocate(size_t n) {
    bytes_requested_ += n;
    if (n > kOversize) {
      blocks_.push_back(Block{std::make_unique<char[]>(n), n});
      return blocks_.back().data.get();
    }
    const size_t aligned = (n + 7) & ~size_t{7};
    if (aligned > avail_) {
      blocks_.push_back(
          Block{std::make_unique<char[]>(kBlockSize), kBlockSize});
      ptr_ = blocks_.back().data.get();
      avail_ = kBlockSize;
    }
    char* out = ptr_;
    ptr_ += aligned;
    avail_ -= aligned;
    return out;
  }

  // Copy `s` into the arena and return the stable copy.
  Slice Dup(const Slice& s) {
    if (s.empty()) return Slice();
    char* buf = Allocate(s.size());
    std::memcpy(buf, s.data(), s.size());
    return Slice(buf, s.size());
  }

  // Whether `s` lies inside one of this arena's blocks — bytes the arena
  // already holds stably, which need no Dup. Walks the blocks: an arena
  // holds few.
  bool Owns(const Slice& s) const {
    if (s.empty()) return false;
    const auto p = reinterpret_cast<uintptr_t>(s.data());
    for (const Block& b : blocks_) {
      const auto base = reinterpret_cast<uintptr_t>(b.data.get());
      if (p >= base && p + s.size() <= base + b.size) return true;
    }
    return false;
  }

  // Drop every block. Outstanding pointers/Slices into the arena become
  // dangling — only call between uses (bench loops, pooled transactions).
  void Reset() {
    blocks_.clear();
    ptr_ = nullptr;
    avail_ = 0;
    bytes_requested_ = 0;
  }

  // Total bytes handed out since construction/Reset (diagnostics, tests).
  size_t bytes_requested() const { return bytes_requested_; }
  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size;
  };
  std::vector<Block> blocks_;
  char* ptr_ = nullptr;
  size_t avail_ = 0;
  size_t bytes_requested_ = 0;
};

}  // namespace minuet
