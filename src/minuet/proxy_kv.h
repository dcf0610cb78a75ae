// The YCSB adapter, kept out of the minuet/cluster.h facade so that the
// facade does not pull in the workload generator.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "minuet/cluster.h"
#include "ycsb/workload.h"

namespace minuet {

// Adapter: drive a Proxy through the YCSB KVInterface.
class ProxyKV : public ycsb::KVInterface {
 public:
  // scan_mode: kSnapshot uses the cluster snapshot policy (the paper's
  // production configuration); kTip runs strictly serializable tip scans.
  enum class ScanMode { kSnapshot, kTip };

  // Snapshot scans default to refresh_lease=true: YCSB E's long scans run
  // on unpinned policy snapshots and re-lease across the GC horizon (§4.4)
  // instead of dying with InvalidArgument under GC pressure (or blocking
  // GC with per-scan pins).
  static Cursor::Options DefaultScanOptions() {
    Cursor::Options copts;
    copts.refresh_lease = true;
    return copts;
  }

  ProxyKV(Proxy* proxy, TreeHandle tree,
          ScanMode scan_mode = ScanMode::kSnapshot,
          Cursor::Options scan_options = DefaultScanOptions())
      : proxy_(proxy),
        tree_(tree),
        scan_mode_(scan_mode),
        scan_options_(std::move(scan_options)) {}

  Status Read(const std::string& key, std::string* value) override {
    return proxy_->Tip(tree_).Get(key, value);
  }
  Status Update(const std::string& key, const std::string& value) override {
    return proxy_->Tip(tree_).Put(key, value);
  }
  // True insert (not a Put alias): AlreadyExists on a present key, so YCSB
  // load phases measure the same upsert-vs-insert distinction CDB draws.
  Status Insert(const std::string& key, const std::string& value) override {
    return proxy_->Tip(tree_).Insert(key, value);
  }
  Status Scan(const std::string& start, uint32_t count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    if (scan_mode_ == ScanMode::kSnapshot) {
      return proxy_->Scan(tree_, start, count, out, scan_options_);
    }
    return proxy_->Tip(tree_).Scan(start, count, out);
  }

 private:
  Proxy* proxy_;
  TreeHandle tree_;
  ScanMode scan_mode_;
  Cursor::Options scan_options_;
};

}  // namespace minuet
