#include "minuet/view.h"

#include <algorithm>

#include "minuet/cluster.h"
#include "mvcc/snapshot_service.h"

namespace minuet {

namespace {

// Per-fetch guard shared by every cursor kind: a cursor minted before its
// proxy was removed (Cluster::RemoveProxy) must fail its NEXT fetch with
// InvalidArgument rather than keep scanning — and never dereference freed
// state (the Proxy object and its tree instances are immortal, so the
// check is purely a clean-refusal gate, not a lifetime crutch).
Status CheckProxyLive(const Proxy* proxy) {
  if (proxy != nullptr && proxy->detached()) {
    return Status::InvalidArgument("proxy was removed from its cluster");
  }
  return Status::OK();
}

// Per-call instrumentation for the view-layer client surface: wall time
// lands in the cluster's per-op histogram, and — when the slow-op log is
// armed and the caller has not installed a TraceContext of their own — a
// local context is armed so a threshold hit emits the op's full
// span-per-round timeline. One thread-local null check when disarmed.
class OpObserver {
 public:
  OpObserver(const Proxy* proxy, ClientOp op)
      : cluster_(proxy != nullptr ? proxy->cluster() : nullptr), op_(op) {
    if (cluster_ == nullptr) return;
    t0_ = obs::NowNs();
    if (cluster_->slow_op_log().armed() &&
        obs::TraceContext::Current() == nullptr) {
      scoped_.emplace(&trace_);
    }
  }

  ~OpObserver() {
    if (cluster_ == nullptr) return;
    const uint64_t wall = obs::NowNs() - t0_;
    cluster_->op_histogram(op_).Observe(static_cast<double>(wall));
    if (scoped_.has_value()) {
      cluster_->slow_op_log().MaybeEmit(ClientOpName(op_), trace_, wall);
    }
  }

  OpObserver(const OpObserver&) = delete;
  OpObserver& operator=(const OpObserver&) = delete;

 private:
  Cluster* cluster_;
  ClientOp op_;
  uint64_t t0_ = 0;
  obs::TraceContext trace_;
  std::optional<obs::ScopedTrace> scoped_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Cursor

Cursor::Cursor(ChunkFetcher fetch, const std::string& start, Options options)
    : fetch_(std::move(fetch)), options_(options), resume_(start) {
  if (options_.chunk_size == 0) options_.chunk_size = 1;
  // No fetch yet: the first Valid() pulls the first chunk, so a cursor
  // that is never consulted costs nothing.
}

Cursor::Cursor(Status error) : exhausted_(true), status_(std::move(error)) {}

bool Cursor::Valid() {
  if (pos_ >= buf_.size() && !exhausted_) FetchChunk(options_.chunk_size);
  return pos_ < buf_.size();
}

void Cursor::Next() {
  if (pos_ < buf_.size()) pos_++;
}

void Cursor::FetchChunk(size_t want) {
  want = std::min(want, options_.chunk_size);
  if (options_.limit > 0) want = std::min(want, options_.limit - yielded_);
  buf_.clear();
  pos_ = 0;
  // An empty chunk with a resume point crossed only empty leaves (removes
  // retain them): keep walking right.
  do {
    std::string start = std::move(resume_);
    resume_.clear();
    status_ = fetch_(start, options_.end_key, want, &buf_, &resume_);
    if (!status_.ok()) {
      buf_.clear();
      exhausted_ = true;
      return;
    }
  } while (buf_.empty() && !resume_.empty());
  yielded_ += buf_.size();
  exhausted_ = resume_.empty() ||
               (options_.limit > 0 && yielded_ >= options_.limit);
}

Status Cursor::Drain(size_t limit,
                     std::vector<std::pair<std::string, std::string>>* out) {
  // Appends up to `limit` pairs regardless of what `out` already holds.
  // A chunk fetched here asks only for the pairs still to be appended, so
  // the range walk sizes its leaf batch for them. Pairs are MOVED out of the
  // chunk buffer (it is discarded on the next fetch and never re-read once
  // the position advances).
  for (size_t appended = 0; appended < limit; appended++) {
    if (pos_ >= buf_.size() && !exhausted_) FetchChunk(limit - appended);
    if (pos_ >= buf_.size()) break;
    out->push_back(std::move(buf_[pos_++]));
  }
  return status_;
}

// ---------------------------------------------------------------------------
// View

btree::BTree* View::btree() const { return proxy_->tree(tree_.slot()); }

Status View::CheckUsable() const { return proxy_->CheckHandle(tree_); }

Status View::Put(const std::string&, const std::string&) {
  return Status::ReadOnly("view is read-only");
}

Status View::Insert(const std::string&, const std::string&) {
  return Status::ReadOnly("view is read-only");
}

Status View::Remove(const std::string&) {
  return Status::ReadOnly("view is read-only");
}

Status View::Scan(const std::string& start, size_t limit,
                  std::vector<std::pair<std::string, std::string>>* out) {
  OpObserver obs(proxy_, ClientOp::kScan);
  out->clear();
  Cursor::Options copts;
  if (limit > 0) {
    copts.chunk_size = std::min<size_t>(limit, copts.chunk_size);
    copts.limit = limit;
  }
  auto cursor = NewCursor(start, copts);
  return cursor->Drain(limit, out);
}

// ---------------------------------------------------------------------------
// TipBoundView: one body per point op for TipView and BranchView. Every op
// validates the handle first, so a stale or foreign TreeHandle fails loudly
// instead of dereferencing a tree it does not name.

Status TipBoundView::CheckTip() const {
  MINUET_RETURN_NOT_OK(CheckUsable());
  return tip_.branch ? Status::OK() : CheckLinearAccess(tree_);
}

Status TipBoundView::Get(const std::string& key, std::string* value) {
  OpObserver obs(proxy_, ClientOp::kGet);
  MINUET_RETURN_NOT_OK(CheckTip());
  return btree()->Get(key, value, tip_);
}

Status TipBoundView::Put(const std::string& key, const std::string& value) {
  OpObserver obs(proxy_, ClientOp::kPut);
  MINUET_RETURN_NOT_OK(CheckTip());
  return btree()->Put(key, value, tip_);
}

Status TipBoundView::Insert(const std::string& key,
                            const std::string& value) {
  OpObserver obs(proxy_, ClientOp::kInsert);
  MINUET_RETURN_NOT_OK(CheckTip());
  return btree()->Insert(key, value, tip_);
}

Status TipBoundView::Remove(const std::string& key) {
  OpObserver obs(proxy_, ClientOp::kRemove);
  MINUET_RETURN_NOT_OK(CheckTip());
  return btree()->Remove(key, tip_);
}

// ---------------------------------------------------------------------------
// TipView

Status TipView::MultiGet(const std::vector<std::string>& keys,
                         std::vector<std::optional<std::string>>* values) {
  OpObserver obs(proxy_, ClientOp::kMultiGet);
  // All-or-nothing contract: every exit path of a failed MultiGet — early
  // validation errors included — leaves only nullopt answers behind.
  values->assign(keys.size(), std::nullopt);
  MINUET_RETURN_NOT_OK(CheckTip());
  // One transaction AND one batched leaf round (BTree::MultiGetInTxn): the
  // inner descents share the proxy cache, the distinct leaves are fetched
  // in a single minitransaction, and everything validates together at
  // commit — an atomic, strictly serializable multi-point read in O(1)
  // coordinator rounds instead of one per key. The value reset runs INSIDE
  // the body — a retried attempt must not inherit values its aborted
  // predecessor read.
  Status st = proxy_->Transaction([&](txn::DynamicTxn& txn) -> Status {
    return btree()->MultiGetInTxn(txn, keys, values);
  });
  if (!st.ok()) values->assign(keys.size(), std::nullopt);
  return st;
}

Status TipView::Scan(const std::string& start, size_t limit,
                     std::vector<std::pair<std::string, std::string>>* out) {
  OpObserver obs(proxy_, ClientOp::kScan);
  MINUET_RETURN_NOT_OK(CheckTip());
  // One transaction end-to-end: the whole range validates together at
  // commit (the semantics ProxyKV's kTip mode and the Fig. 16 comparison
  // rely on). For unbounded streaming use NewCursor, which trades that
  // atomicity for piecewise chunks.
  return btree()->TipScan(start, limit, out);
}

std::unique_ptr<Cursor> TipView::NewCursor(const std::string& start,
                                           Cursor::Options options) {
  if (Status st = CheckTip(); !st.ok()) {
    return std::unique_ptr<Cursor>(new Cursor(std::move(st)));
  }
  btree::BTree* tree = btree();
  const Proxy* proxy = proxy_;
  auto fetch = [tree, proxy](
                   const std::string& from, const std::string& end,
                   size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out,
                   std::string* resume) -> Status {
    MINUET_RETURN_NOT_OK(CheckProxyLive(proxy));
    // The cursor hands over a cleared buffer, so TipScan fills it directly.
    MINUET_RETURN_NOT_OK(tree->TipScan(from, limit, out, end));
    resume->clear();
    if (out->size() == limit) {
      // Possibly more beyond the last pair: resume at its successor.
      *resume = out->back().first + '\0';
    }
    return Status::OK();
  };
  return std::unique_ptr<Cursor>(new Cursor(fetch, start, options));
}

// ---------------------------------------------------------------------------
// SnapshotView

SnapshotView::SnapshotView(Proxy* proxy, TreeHandle tree,
                           btree::SnapshotRef snap,
                           mvcc::SnapshotService* service, Lease lease)
    : View(proxy, tree),
      snap_(snap),
      service_(service),
      pinned_(lease == Lease::kAdopt && service != nullptr) {}

SnapshotView::SnapshotView(SnapshotView&& other) noexcept
    : View(other.proxy_, other.tree_),
      snap_(other.snap_),
      service_(other.service_),
      pinned_(other.pinned_) {
  other.pinned_ = false;
}

SnapshotView& SnapshotView::operator=(SnapshotView&& other) noexcept {
  if (this != &other) {
    if (pinned_) service_->Unpin(snap_.sid, proxy_->lease_owner());
    proxy_ = other.proxy_;
    tree_ = other.tree_;
    snap_ = other.snap_;
    service_ = other.service_;
    pinned_ = other.pinned_;
    other.pinned_ = false;
  }
  return *this;
}

SnapshotView::~SnapshotView() {
  // The lease was pinned under this proxy's identity (AcquirePinnedView);
  // if the proxy was removed in the meantime, the bulk-release already
  // dropped it and this Unpin no-ops (per-owner accounting).
  if (pinned_) service_->Unpin(snap_.sid, proxy_->lease_owner());
}

Status SnapshotView::Get(const std::string& key, std::string* value) {
  OpObserver obs(proxy_, ClientOp::kGet);
  MINUET_RETURN_NOT_OK(CheckUsable());
  return btree()->SnapshotGet(snap_, key, value);
}

Status SnapshotView::MultiGet(const std::vector<std::string>& keys,
                              std::vector<std::optional<std::string>>* values) {
  OpObserver obs(proxy_, ClientOp::kMultiGet);
  values->assign(keys.size(), std::nullopt);  // no partial answers, ever
  MINUET_RETURN_NOT_OK(CheckUsable());
  Status st = btree()->SnapshotMultiGet(snap_, keys, values);
  if (!st.ok()) values->assign(keys.size(), std::nullopt);
  return st;
}

namespace {

// Shared cursor lease: keeps its snapshot pinned independently of the view
// (the cursor may be re-leased onto a newer snapshot mid-scan). Pins are
// accounted to `owner` — the proxy the cursor was minted through — so a
// RemoveProxy bulk-release covers them and the destructor's Unpin then
// no-ops.
struct CursorLease {
  btree::BTree* tree = nullptr;
  mvcc::SnapshotService* service = nullptr;
  btree::SnapshotRef snap;
  uint64_t owner = mvcc::SnapshotService::kNoLeaseOwner;
  bool pinned = false;

  CursorLease(btree::BTree* t, mvcc::SnapshotService* s,
              btree::SnapshotRef ref, uint64_t lease_owner, bool pin)
      : tree(t),
        service(s),
        snap(ref),
        owner(lease_owner),
        pinned(pin && s != nullptr) {
    if (pinned) service->Pin(snap.sid, owner);
  }
  ~CursorLease() {
    if (pinned) service->Unpin(snap.sid, owner);
  }
  CursorLease(const CursorLease&) = delete;
  CursorLease& operator=(const CursorLease&) = delete;

  // Swap the lease onto the newest policy snapshot (§4.4 re-acquisition).
  Status Refresh() {
    if (service == nullptr) {
      return Status::InvalidArgument("no snapshot service to re-lease from");
    }
    // Acquire-and-pin atomically (same no-window discipline as the view
    // factories), then release the old lease.
    auto fresh = service->AcquireForScan(/*pin=*/pinned, owner);
    if (!fresh.ok()) return fresh.status();
    if (pinned) service->Unpin(snap.sid, owner);
    snap = *fresh;
    return Status::OK();
  }

  bool BelowHorizon() const {
    return service != nullptr && service->LowestRetained() > snap.sid;
  }
};

}  // namespace

std::unique_ptr<Cursor> SnapshotView::NewCursor(const std::string& start,
                                                Cursor::Options options) {
  if (Status st = CheckUsable(); !st.ok()) {
    return std::unique_ptr<Cursor>(new Cursor(std::move(st)));
  }
  // The cursor needs its own pin only when it may re-lease onto a sid the
  // view does not hold; otherwise the view's pin covers it (a cursor must
  // not outlive its view).
  auto lease = std::make_shared<CursorLease>(
      btree(), service_, snap_, proxy_->lease_owner(),
      pinned_ && options.refresh_lease);
  const bool refresh = options.refresh_lease;
  const Proxy* proxy = proxy_;
  auto fetch = [lease, refresh, proxy](
                   const std::string& from, const std::string& end,
                   size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out,
                   std::string* resume) -> Status {
    MINUET_RETURN_NOT_OK(CheckProxyLive(proxy));
    if (refresh && lease->BelowHorizon()) {
      // The GC horizon overtook this snapshot (possible only for unpinned
      // leases — pinned ones hold the horizon back): re-lease the newest
      // snapshot and continue the scan from the same key.
      MINUET_RETURN_NOT_OK(lease->Refresh());
    }
    Status st = lease->tree->SnapshotScanChunk(lease->snap, from, end, limit,
                                               out, resume);
    // Reactive backstop: the snapshot aged out between the check and the
    // chunk read. Under a snapshot storm the RE-LEASED snapshot can age
    // out again before its own chunk lands, so splice repeatedly
    // (bounded) rather than once. (The BelowHorizon re-check keeps
    // InvalidArgument from other causes — e.g. a garbage SnapshotRef —
    // surfacing unmasked.)
    for (int splice = 0;
         refresh && st.IsInvalidArgument() && lease->BelowHorizon() &&
         splice < 64;
         splice++) {
      MINUET_RETURN_NOT_OK(lease->Refresh());
      st = lease->tree->SnapshotScanChunk(lease->snap, from, end, limit, out,
                                          resume);
    }
    return st;
  };
  return std::unique_ptr<Cursor>(new Cursor(fetch, start, options));
}

// ---------------------------------------------------------------------------
// BranchView

Status BranchView::MultiGet(const std::vector<std::string>& keys,
                            std::vector<std::optional<std::string>>* values) {
  OpObserver obs(proxy_, ClientOp::kMultiGet);
  values->assign(keys.size(), std::nullopt);  // no partial answers, ever
  MINUET_RETURN_NOT_OK(CheckUsable());
  auto info = proxy_->BranchInfo(tree_, tip_.sid);
  if (!info.ok()) return info.status();
  // One resolved root, one batched leaf round (§4.2 read rules).
  Status st = btree()->SnapshotMultiGet(
      btree::SnapshotRef{tip_.sid, info->root}, keys, values);
  if (!st.ok()) values->assign(keys.size(), std::nullopt);
  return st;
}

std::unique_ptr<Cursor> BranchView::NewCursor(const std::string& start,
                                              Cursor::Options options) {
  if (Status st = CheckUsable(); !st.ok()) {
    return std::unique_ptr<Cursor>(new Cursor(std::move(st)));
  }
  // Resolve the branch's current root once and read it with snapshot-mode
  // traversal (§4.2). Later COW activity from other versions cannot
  // disturb the scan; in-place writes at this still-writable branch tip
  // may (see the header note) — fork the branch for frozen semantics.
  auto info = proxy_->BranchInfo(tree_, tip_.sid);
  if (!info.ok()) {
    return std::unique_ptr<Cursor>(new Cursor(info.status()));
  }
  btree::BTree* tree = btree();
  const btree::SnapshotRef snap{tip_.sid, info->root};
  const Proxy* proxy = proxy_;
  auto fetch = [tree, snap, proxy](
                   const std::string& from, const std::string& end,
                   size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out,
                   std::string* resume) -> Status {
    MINUET_RETURN_NOT_OK(CheckProxyLive(proxy));
    return tree->SnapshotScanChunk(snap, from, end, limit, out, resume);
  };
  return std::unique_ptr<Cursor>(new Cursor(fetch, start, options));
}

}  // namespace minuet
