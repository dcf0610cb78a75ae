// Views: the uniform client surface over one B-tree's access modes.
//
// The paper's contribution is that ONE tree serves several consistency
// regimes at once — strictly serializable tip operations (§2–3), read-only
// consistent snapshots (§4), and writable what-if branches (§5). Instead of
// a method per (operation x regime) pair, the client obtains a View for the
// regime it wants and every View exposes the same operations:
//
//   TipView       proxy.Tip(tree)             strictly serializable, writable
//   SnapshotView  proxy.Snapshot(tree)        frozen, pins a GC lease
//                 proxy.RecentSnapshot(tree)  same, under the §6.3 k-policy
//   BranchView    proxy.Branch(tree, sid)     a version-tree vertex; writable
//                                             while it has no child branch
//
// Reads stream through Cursor (a batch of leaves per round, never
// materializing the range); writes on read-only views fail with
// Status::ReadOnly. A SnapshotView owns a lease on its snapshot: the GC
// horizon will not pass it while the view is alive
// (mvcc::SnapshotService pinning).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "btree/tree.h"
#include "minuet/tree_handle.h"

namespace minuet {

namespace mvcc {
class SnapshotService;
}  // namespace mvcc

class Proxy;

// Streaming scan over a view: each fetch is one batch of the range walk
// (BTree::WalkRange) — every leaf the chunk needs read in one round — so
// arbitrarily long scans run in constant client memory. Obtained from
// View::NewCursor; iterate with Valid()/Next(), or Drain() into a vector.
class Cursor {
 public:
  struct Options {
    // Upper bound on pairs buffered per fetch; the range walk reads the
    // leaves that many pairs need in one batched round. A TIP cursor's
    // fetch is one strictly serializable transaction whose read set is
    // that batch, so a large chunk_size there means a large read set that
    // aborts more easily under write contention.
    size_t chunk_size = 256;
    // For snapshot cursors acquired under a staleness policy: when the GC
    // horizon overtakes the pinned snapshot mid-scan, transparently
    // re-lease the newest snapshot and continue from the same key instead
    // of failing the scan (the paper's long-scan re-acquisition, §4.4).
    // The scan is then consistent per-snapshot, not end-to-end.
    bool refresh_lease = false;
    // Exclusive upper bound for the scan; "" = unbounded. The range walk
    // reads no leaf past it, for every view kind.
    std::string end_key;
    // Overall cap on pairs the cursor will yield (0 = unlimited). Scan
    // entry points set it from their limit, so the last fetch asks for
    // only what will be consumed.
    size_t limit = 0;
  };

  // Fetches lazily: the next chunk is pulled only when Valid() is asked
  // past the buffered pairs, so draining exactly N pairs never pays for
  // an N+1th fetch.
  bool Valid();
  const std::string& key() const { return buf_[pos_].first; }
  const std::string& value() const { return buf_[pos_].second; }
  void Next();
  // Non-OK when iteration stopped on an error rather than exhaustion.
  const Status& status() const { return status_; }

  // Append up to `limit` remaining pairs to `out`; returns status().
  Status Drain(size_t limit,
               std::vector<std::pair<std::string, std::string>>* out);

 private:
  friend class TipView;
  friend class SnapshotView;
  friend class BranchView;

  // Fetch pairs of [start, end) (at most `limit`) into the empty `out`;
  // set `resume` to where the next fetch begins, empty when exhausted.
  using ChunkFetcher = std::function<Status(
      const std::string& start, const std::string& end, size_t limit,
      std::vector<std::pair<std::string, std::string>>* out,
      std::string* resume)>;

  Cursor(ChunkFetcher fetch, const std::string& start, Options options);
  explicit Cursor(Status error);  // a cursor born failed (e.g. bad branch)
  // Refill the buffer with the next chunk of at most `want` pairs (also
  // capped by chunk_size and the yield limit).
  void FetchChunk(size_t want);

  ChunkFetcher fetch_;
  Options options_;
  std::vector<std::pair<std::string, std::string>> buf_;
  size_t pos_ = 0;
  std::string resume_;
  bool exhausted_ = false;
  size_t yielded_ = 0;  // pairs buffered so far, against options_.limit
  Status status_;
};

enum class ViewKind { kTip, kSnapshot, kBranch };

// The uniform interface. Views are lightweight values bound to one Proxy;
// they must not outlive their Proxy (or Cluster), and a Cursor must not
// outlive the View that created it.
class View {
 public:
  virtual ~View() = default;

  virtual ViewKind kind() const = 0;
  virtual bool writable() const { return false; }

  virtual Status Get(const std::string& key, std::string* value) = 0;
  virtual Status Put(const std::string& key, const std::string& value);
  // Strict insert: AlreadyExists when the key is present.
  virtual Status Insert(const std::string& key, const std::string& value);
  virtual Status Remove(const std::string& key);

  // Point-read a set of keys; `(*values)[i]` is nullopt when `keys[i]` is
  // absent. TipView performs all reads in ONE transaction (an atomic,
  // strictly serializable multi-point read); SnapshotView is consistent by
  // construction; BranchView reads one resolved root (later in-place
  // writes to a still-writable branch may interleave — fork for frozen
  // reads).
  virtual Status MultiGet(const std::vector<std::string>& keys,
                          std::vector<std::optional<std::string>>* values);

  virtual std::unique_ptr<Cursor> NewCursor(const std::string& start = "",
                                            Cursor::Options options = {}) = 0;

  // Convenience: scan of up to `limit` pairs from `start` (cursor-driven
  // by default; TipView overrides with one strictly serializable txn).
  virtual Status Scan(const std::string& start, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out);

  const TreeHandle& tree() const { return tree_; }

 protected:
  View(Proxy* proxy, TreeHandle tree) : proxy_(proxy), tree_(tree) {}
  // The proxy's tree for this view's slot. Call only after CheckUsable()
  // passed; it does not re-check, so a RemoveProxy landing in between
  // cannot turn an already-admitted op into a null dereference.
  btree::BTree* btree() const;
  // InvalidArgument when the handle does not name a tree of this cluster,
  // or when the proxy was removed from it (Cluster::RemoveProxy).
  Status CheckUsable() const;
  Proxy* proxy_;
  TreeHandle tree_;
};

// The shared body of the two writable-tip views: point operations run
// against one tip selector — the linear tip (TipView) or a branch
// (BranchView) — through the same B-tree code.
class TipBoundView : public View {
 public:
  Status Get(const std::string& key, std::string* value) override;
  Status Put(const std::string& key, const std::string& value) override;
  Status Insert(const std::string& key, const std::string& value) override;
  // NotFound when the key is absent.
  Status Remove(const std::string& key) override;

 protected:
  TipBoundView(Proxy* proxy, TreeHandle tree, btree::Tip tip)
      : View(proxy, tree), tip_(tip) {}
  // CheckUsable, plus — for the linear tip — that the tree is linear
  // (a branching tree's tips are its branches).
  Status CheckTip() const;

  btree::Tip tip_;
};

// Strictly serializable operations against the live tip. Note on cursors:
// each fetched chunk is one strictly serializable transaction, so a
// multi-chunk tip scan is piecewise-serializable, not atomic end-to-end —
// exactly the operation the paper shows "may never commit" as one
// transaction under contention. Prefer SnapshotView for long scans.
class TipView : public TipBoundView {
 public:
  ViewKind kind() const override { return ViewKind::kTip; }
  bool writable() const override { return true; }

  Status MultiGet(const std::vector<std::string>& keys,
                  std::vector<std::optional<std::string>>* values) override;
  std::unique_ptr<Cursor> NewCursor(const std::string& start = "",
                                    Cursor::Options options = {}) override;
  // Unlike the cursor (piecewise), a bounded tip Scan runs as ONE strictly
  // serializable transaction: every visited leaf joins the read set.
  Status Scan(const std::string& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override;

 private:
  friend class Proxy;
  TipView(Proxy* proxy, TreeHandle tree)
      : TipBoundView(proxy, tree, btree::Tip::Linear()) {}
};

// A frozen, consistent snapshot (§4.2 reads: no validation, fence-key and
// copied-snapshot checks only). Move-only: the view owns a GC lease on its
// sid when it was acquired through a snapshot service.
class SnapshotView : public View {
 public:
  SnapshotView(SnapshotView&& other) noexcept;
  SnapshotView& operator=(SnapshotView&& other) noexcept;
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;
  ~SnapshotView() override;

  ViewKind kind() const override { return ViewKind::kSnapshot; }
  uint64_t sid() const { return snap_.sid; }
  const btree::SnapshotRef& ref() const { return snap_; }

  Status Get(const std::string& key, std::string* value) override;
  // Consistent by construction, and batched: all keys' leaves are fetched
  // in one minitransaction round (BTree::SnapshotMultiGet).
  Status MultiGet(const std::vector<std::string>& keys,
                  std::vector<std::optional<std::string>>* values) override;
  std::unique_ptr<Cursor> NewCursor(const std::string& start = "",
                                    Cursor::Options options = {}) override;

 private:
  friend class Proxy;
  // kAdopt takes over a pin the acquisition path already holds (the
  // window-free handoff Proxy::AcquirePinnedView relies on — pinning here,
  // outside the service's locks, would reopen the race); kNone leaves the
  // view unpinned (Proxy::ViewAt) but still carries the service so
  // refresh_lease cursors can re-acquire.
  enum class Lease { kNone, kAdopt };
  SnapshotView(Proxy* proxy, TreeHandle tree, btree::SnapshotRef snap,
               mvcc::SnapshotService* service, Lease lease);

  btree::SnapshotRef snap_;
  mvcc::SnapshotService* service_ = nullptr;
  bool pinned_ = false;
};

// One vertex of the version tree (§5): writable while it has no child
// branch, read-only (and a valid fork point) afterwards. Writes to a
// frozen branch fail with Status::ReadOnly. writable() reports the state
// observed when the view was created; if the branch is forked afterwards,
// writes through a stale view still fail ReadOnly (the tree enforces the
// catalog, not the cached flag).
class BranchView : public TipBoundView {
 public:
  ViewKind kind() const override { return ViewKind::kBranch; }
  bool writable() const override { return writable_; }
  uint64_t sid() const { return tip_.sid; }

  // All keys are read against one resolved branch root (same caveat as
  // NewCursor below for still-writable branches).
  Status MultiGet(const std::vector<std::string>& keys,
                  std::vector<std::optional<std::string>>* values) override;
  // The cursor scans the branch's root as of NewCursor time. Structural
  // changes from OTHER versions (copy-on-write of later snapshots) never
  // disturb it, but the branch's own tip writes mutate nodes in place
  // while it stays writable, so they MAY become visible to not-yet-read
  // parts of the scan. For a truly frozen scan, fork the branch and scan
  // the (now read-only) parent.
  std::unique_ptr<Cursor> NewCursor(const std::string& start = "",
                                    Cursor::Options options = {}) override;

 private:
  friend class Proxy;
  BranchView(Proxy* proxy, TreeHandle tree, uint64_t sid, bool writable)
      : TipBoundView(proxy, tree, btree::Tip::Branch(sid)),
        writable_(writable) {}

  bool writable_ = false;
};

}  // namespace minuet
