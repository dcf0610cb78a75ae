// The tip selector shared by every writable-tip B-tree operation.
#pragma once

#include <cstdint>

namespace minuet::btree {

// Which writable tip an operation targets: the linear tip (§4.1) or the
// writable branch `sid` of a branching tree (§5). Both run the same
// copy-on-write procedure; they differ only in where the tip's snapshot id
// and root are read, and where a moved root is re-published.
struct Tip {
  static constexpr Tip Linear() { return Tip{}; }
  static constexpr Tip Branch(uint64_t sid) { return Tip{true, sid}; }

  bool branch = false;
  uint64_t sid = 0;  // the branch's snapshot id (branch tips only)
};

}  // namespace minuet::btree
