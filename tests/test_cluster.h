// Shared in-process cluster harness for tests: builds a fabric, memnodes,
// coordinator, allocator and per-proxy caches, mirroring how the minuet
// facade wires a cluster together.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "btree/tree.h"
#include "net/fabric.h"
#include "sinfonia/coordinator.h"
#include "txn/object_cache.h"

namespace minuet::testing {

struct ClusterConfig {
  uint32_t n_memnodes = 4;
  uint32_t n_proxies = 2;
  uint32_t node_size = 1024;  // small nodes so tests exercise splits
  bool replication = false;
  uint32_t alloc_batch = 8;
};

class TestCluster {
 public:
  using Config = ClusterConfig;

  explicit TestCluster(Config config = Config()) : config_(config) {
    fabric_ = std::make_unique<net::Fabric>(config.n_memnodes);
    for (uint32_t i = 0; i < config.n_memnodes; i++) {
      memnodes_.push_back(
          std::make_unique<sinfonia::Memnode>(i, config.node_size));
      raw_memnodes_.push_back(memnodes_.back().get());
    }
    sinfonia::Coordinator::Options copts;
    copts.replication = config.replication;
    coord_ = std::make_unique<sinfonia::Coordinator>(fabric_.get(),
                                                     raw_memnodes_, copts);
    layout_.n_memnodes = config.n_memnodes;
    layout_.node_size = config.node_size;
    alloc::NodeAllocator::Options aopts;
    aopts.batch = config.alloc_batch;
    allocator_ = std::make_unique<alloc::NodeAllocator>(layout_, coord_.get(),
                                                        aopts);
    for (uint32_t i = 0; i < config.n_proxies; i++) {
      caches_.push_back(std::make_unique<txn::ObjectCache>());
    }
  }

  // One BTree handle per proxy (they share the tree, each with its own
  // incoherent cache — exactly the multi-proxy deployment).
  std::vector<std::unique_ptr<btree::BTree>> MakeTrees(
      uint32_t tree_slot, btree::TreeOptions topts = {}) {
    std::vector<std::unique_ptr<btree::BTree>> trees;
    for (uint32_t i = 0; i < config_.n_proxies; i++) {
      trees.push_back(std::make_unique<btree::BTree>(
          coord_.get(), allocator_.get(), caches_[i].get(), &linear_oracle_,
          tree_slot, topts));
    }
    return trees;
  }

  net::Fabric* fabric() { return fabric_.get(); }
  sinfonia::Coordinator* coord() { return coord_.get(); }
  alloc::NodeAllocator* allocator() { return allocator_.get(); }
  txn::ObjectCache* cache(uint32_t proxy) { return caches_[proxy].get(); }
  const alloc::Layout& layout() const { return layout_; }
  sinfonia::Memnode* memnode(uint32_t i) { return raw_memnodes_[i]; }
  const btree::LinearOracle* linear_oracle() const { return &linear_oracle_; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<sinfonia::Memnode>> memnodes_;
  std::vector<sinfonia::Memnode*> raw_memnodes_;
  std::unique_ptr<sinfonia::Coordinator> coord_;
  alloc::Layout layout_;
  std::unique_ptr<alloc::NodeAllocator> allocator_;
  std::vector<std::unique_ptr<txn::ObjectCache>> caches_;
  btree::LinearOracle linear_oracle_;
};

// Up to `limit` pairs of `snap` from `start` (inclusive): range-walk
// chunks (BTree::SnapshotScanChunk) until the limit or the tree's end.
inline Status SnapshotScanAll(
    btree::BTree& tree, const btree::SnapshotRef& snap,
    const std::string& start, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::string from = start;
  std::string resume;
  while (out->size() < limit) {
    MINUET_RETURN_NOT_OK(tree.SnapshotScanChunk(snap, from, /*end_key=*/"",
                                                 limit, out, &resume));
    if (resume.empty()) break;  // rightmost leaf reached
    from = std::move(resume);
  }
  return Status::OK();
}

}  // namespace minuet::testing
