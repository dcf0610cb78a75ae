// The distributed multiversion B-tree (the paper's core contribution).
//
// Nodes live in Sinfonia slabs and are accessed through dynamic
// transactions. Traversal follows Fig. 5: internal nodes are read with
// DIRTY reads (proxy cache, no validation) and the leaf joins the read set;
// fence keys, height monotonicity and copied-snapshot checks replace
// validation of the path. The Aguilera-et-al. baseline (dirty traversals
// OFF) reads the whole path transactionally and validates internal nodes
// against the replicated sequence-number table.
//
// Writes are copy-on-write against the tip snapshot (§4.1): updating a node
// whose created-snapshot id predates the tip copies it (and its ancestors
// up to, but excluding, the root — the root is re-created at snapshot
// creation time). With branching versions (§5), copies are recorded in the
// bounded descendant set and discretionary copies keep the set within β.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "btree/node.h"
#include "btree/node_view.h"
#include "btree/tip.h"
#include "btree/version_oracle.h"
#include "common/payload.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "txn/txn.h"

namespace minuet::btree {

using alloc::Layout;
using alloc::NodeAllocator;
using txn::DynamicTxn;
using txn::ObjectCache;
using txn::ObjectRef;
using txn::ReadMode;

struct TreeOptions {
  // Paper §3: traverse internal levels with dirty reads. OFF reproduces the
  // Aguilera baseline: the whole path joins the read set, and internal-node
  // seqnums are replicated at every memnode so path validation happens at
  // the leaf's memnode (splits then engage all memnodes).
  bool dirty_traversals = true;
  // Descendant-set bound β for branching versions (≤ kMaxDescendants).
  uint32_t beta = 2;
};

// A writable tip resolved inside a transaction: operating snapshot id, root
// location, and whether a moved root is re-published in the branch's
// catalog entry (instead of the linear tip's root object).
struct TipContext {
  uint64_t sid = 0;
  Addr root;
  bool branch = false;
};

// Read-only snapshot handle (returned by snapshot creation).
struct SnapshotRef {
  uint64_t sid = 0;
  Addr root;
};

class BTree {
 public:
  // Operation counters. Sharded obs::Counter cells, so concurrent proxy
  // threads do not contend; read them with .Value(). When several BTree
  // instances serve the same tree slot (one per attached proxy), the
  // TreeCatalog hands them one shared Stats so per-tree rollups aggregate
  // across the whole cluster — pass it via the constructor's
  // `shared_stats`; standalone trees default to a private instance.
  struct Stats {
    obs::Counter op_aborts;
    obs::Counter traversal_aborts;
    obs::Counter cow_copies;
    obs::Counter discretionary_copies;
    obs::Counter splits;
    obs::Counter redirects;
    obs::Counter migrations;  // live slab relocations

    // Link every counter into `registry` under `subsystem`.
    void BindMetrics(obs::MetricsRegistry* registry,
                     const std::string& subsystem) const {
      registry->LinkCounter(subsystem, "op_aborts", &op_aborts);
      registry->LinkCounter(subsystem, "traversal_aborts", &traversal_aborts);
      registry->LinkCounter(subsystem, "cow_copies", &cow_copies);
      registry->LinkCounter(subsystem, "discretionary_copies",
                            &discretionary_copies);
      registry->LinkCounter(subsystem, "splits", &splits);
      registry->LinkCounter(subsystem, "redirects", &redirects);
      registry->LinkCounter(subsystem, "migrations", &migrations);
    }
  };

  BTree(sinfonia::Coordinator* coord, NodeAllocator* allocator,
        ObjectCache* cache, const VersionOracle* oracle, uint32_t tree_slot,
        TreeOptions options, Stats* shared_stats = nullptr);

  // One-time, cluster-wide: initialize tip objects, catalog entry 0 and an
  // empty root leaf. Exactly one proxy calls this per tree.
  Status CreateTree();

  // --- Single-key operations on a writable tip ----------------------------
  // `tip` selects the linear tip or a writable branch (branching mode). A
  // write to a branch that has been forked fails with ReadOnly.
  Status Get(const std::string& key, std::string* value,
             Tip tip = Tip::Linear());
  Status Put(const std::string& key, const std::string& value,
             Tip tip = Tip::Linear());
  // Strict insert: fails with AlreadyExists when the key is present (the
  // distinction CDB draws between its kInsert and kUpsert procedures).
  Status Insert(const std::string& key, const std::string& value,
                Tip tip = Tip::Linear());
  // NotFound when the key is absent.
  Status Remove(const std::string& key, Tip tip = Tip::Linear());

  // --- In-transaction variants (multi-key / multi-tree transactions) ------
  // The caller owns the transaction and its commit; these read the tip
  // (and, for a branch, its writability) inside the caller's transaction
  // so everything validates together.
  Status GetInTxn(DynamicTxn& txn, const std::string& key, std::string* value,
                  Tip tip = Tip::Linear());
  // Batched point reads (the Sinfonia batching the paper's §4.1 argument
  // rests on): every key's leaf address is resolved through shared dirty
  // inner-node descents, then ALL distinct leaves are fetched in ONE
  // minitransaction round and join the read set together. `(*values)[i]`
  // is nullopt when `keys[i]` is absent. O(1) leaf-read coordinator rounds
  // instead of one per key.
  Status MultiGetInTxn(DynamicTxn& txn, const std::vector<std::string>& keys,
                       std::vector<std::optional<std::string>>* values);
  Status PutInTxn(DynamicTxn& txn, const std::string& key,
                  const std::string& value, Tip tip = Tip::Linear());
  // CAUTION: an AlreadyExists return must still COMMIT the enclosing
  // transaction (the answer comes from cached reads and needs commit-time
  // validation — RunTransaction handles this). In a multi-op transaction,
  // settle strict-insert existence via GetInTxn BEFORE buffering writes,
  // or the commit installs a partial result (see Proxy::Apply).
  Status InsertInTxn(DynamicTxn& txn, const std::string& key,
                     const std::string& value, Tip tip = Tip::Linear());
  Status RemoveInTxn(DynamicTxn& txn, const std::string& key,
                     Tip tip = Tip::Linear());

  // --- Read-only snapshot operations (§4.2: no validation, fence-key and
  // copied-snapshot checks only; traversals follow copies when stale) ------
  Status SnapshotGet(const SnapshotRef& snap, const std::string& key,
                     std::string* value);
  // Batched snapshot point reads: same leaf grouping as MultiGetInTxn but
  // with §4.2 semantics — nothing joins a read set, fence-key and
  // copied-snapshot checks replace validation, no commit needed.
  Status SnapshotMultiGet(const SnapshotRef& snap,
                          const std::vector<std::string>& keys,
                          std::vector<std::optional<std::string>>* values);
  // One cursor step: ONE batch of the range walk over [start_key, end_key)
  // (end_key "" = unbounded), appending pairs while `out` holds fewer than
  // `limit`. On return `*resume_key` is where the next chunk begins — empty
  // once the range is exhausted. Streaming scans (minuet::Cursor) chain
  // chunks so a long scan never materializes.
  Status SnapshotScanChunk(const SnapshotRef& snap,
                           const std::string& start_key,
                           const std::string& end_key, size_t limit,
                           std::vector<std::pair<std::string, std::string>>*
                               out,
                           std::string* resume_key);

  // Strictly serializable scan against the tip: every leaf joins the read
  // set, so concurrent updates within the range abort the scan. This is the
  // operation the paper shows "may never commit" without snapshots. ONE
  // transaction, taking as many range-walk batches as `limit` needs;
  // `end_key` (exclusive, "" = unbounded) stops it early.
  Status TipScan(const std::string& start_key, size_t limit,
                 std::vector<std::pair<std::string, std::string>>* out,
                 const std::string& end_key = "");

  // Number of levels (including the leaf level) on the current tip's
  // root-to-leaf paths. Diagnostic aid for the cold-descent round budgets
  // asserted in tests.
  Result<uint32_t> Depth();

  // --- Live migration (src/rebalance, bench) — migrate.cc ------------------
  // One tip-reachable node and how to find it again: `routing_key` is a key
  // whose root-to-leaf path passes through the node, so a later traversal
  // can re-locate it (or discover it moved).
  struct NodePlacement {
    Addr addr;
    std::string routing_key;
    uint8_t height = 0;
  };
  // Enumerate every node reachable from the current linear tip with a
  // level-synchronized frontier walk (ONE batched round per level on a
  // cold cache). The listing is a placement snapshot, not a consistent cut:
  // concurrent writers may move nodes under it, which migration tolerates
  // (a stale entry is skipped, not mis-moved).
  Status CollectTipPlacement(std::vector<NodePlacement>* out);

  // Live-migrate the node at `expected` to memnode `dest`: allocate a slab
  // at the destination, copy the node's content (version metadata and all)
  // as a copy-on-write into the CURRENT tip snapshot, record the copy on
  // the source node, and swing the parent's child pointer (or re-publish
  // the root) through the ordinary CoW machinery — all in one dynamic
  // transaction with optimistic retry. The SOURCE slab stays intact: it
  // keeps serving snapshot readers below the tip and is reclaimed by the
  // MVCC garbage collector once the snapshot horizon passes the migration
  // sid. Sets `*migrated` false (with OK) when the node is no longer where
  // the placement snapshot saw it — moved, split, copied or already on
  // `dest` — since rebalancing treats that as "nothing to do", not failure.
  // Linear tips only (branching version trees are not rebalanced, matching
  // the GC's scope).
  Status MigrateNode(const NodePlacement& expected, sinfonia::MemnodeId dest,
                     bool* migrated);
  Status MigrateNodeInTxn(DynamicTxn& txn, const NodePlacement& expected,
                          sinfonia::MemnodeId dest, bool* migrated);

  // One buffered write for ApplyWritesInTxn. Strict-insert existence must
  // be settled by the caller BEFORE applying (see Proxy::Apply): here an
  // insert is a put, and a remove of an absent key is a tolerated no-op.
  struct WriteOp {
    enum class Kind : uint8_t { kPut, kRemove };
    Kind kind = Kind::kPut;
    std::string key;
    std::string value;
  };
  // Apply a batch of writes to `tip` inside the caller's transaction,
  // with the batched cold path and per-leaf dedupe: all target leaves are
  // resolved with ONE level-synchronized descent (O(depth) rounds on a
  // cold cache) and fetched into the read set in ONE round (one commit
  // compare per leaf, not per key), then ops are applied grouped per leaf
  // — one traversal + one leaf mutation per flush instead of one per key.
  // A branch tip's writability is read (and validated) inside the same
  // transaction, so a concurrent fork aborts the batch with ReadOnly.
  Status ApplyWritesInTxn(DynamicTxn& txn, const std::vector<WriteOp>& ops,
                          Tip tip = Tip::Linear());

  // --- Snapshot creation (Fig. 6; called via the mvcc snapshot service) ----
  // Freezes the current tip and installs tip id + 1. Returns the frozen
  // (read-only) snapshot. The whole effect takes place when `txn` commits.
  Result<SnapshotRef> CreateSnapshotInTxn(DynamicTxn& txn);

  // --- Tip plumbing (shared with mvcc/version modules) ---------------------
  // Resolve `tip` inside `txn`: the linear tip pair, or the branch's
  // catalog entry (NotFound for an unknown sid; with `for_write`, ReadOnly
  // once the branch has been forked). Either way the objects join the read
  // set, so the commit validates what the operation based itself on.
  Result<TipContext> ReadTipInTxn(DynamicTxn& txn, Tip tip, bool for_write);

  // Copy-on-write of an arbitrary node into snapshot `sid` (used by branch
  // creation to copy the root eagerly). Returns the copy's address.
  Result<Addr> CopyNodeInTxn(DynamicTxn& txn, Addr node_addr, uint64_t sid,
                             bool record_copy);

  const Stats& stats() const { return *stats_; }
  const Layout& layout() const { return allocator_->layout(); }
  uint32_t tree_slot() const { return tree_slot_; }
  const TreeOptions& options() const { return options_; }
  sinfonia::Coordinator* coordinator() { return coord_; }
  ObjectCache* cache() { return cache_; }
  NodeAllocator* allocator() { return allocator_; }
  // Replace the ancestry oracle (installed by the version manager when a
  // tree is switched to branching mode).
  void set_oracle(const VersionOracle* oracle) { oracle_ = oracle; }

 private:
  // Which version a descent reads, and so its read discipline
  // (ReadModeFor).
  enum class TraverseMode {
    kUpToDate,      // the tip: the leaf joins the read set
    kSnapshotRead,  // a snapshot: nothing joins the read set
    // The tip with every internal node joining the read set too, whatever
    // dirty_traversals says: control-plane listings that must be
    // authoritative (CollectTipPlacement).
    kValidatedPath,
  };

  // A fetched node on the read path: the pinned image bytes plus the
  // zero-copy view over them. No entry is materialized — mutation paths
  // call view.ToNode() explicitly.
  struct FetchedNode {
    Payload raw;
    NodeView view;
  };

  struct PathEntry {
    // Where the node's content lives. When the traversal followed a
    // discretionary copy (content-identical, §5.2), this is the copy.
    Addr addr;
    // The address the PARENT's child entry holds — the entry point of the
    // redirect chain. Equal to `addr` unless a discretionary hop happened.
    Addr link_addr;
    // The node content, zero-copy: `raw` pins the image (read set, proxy
    // cache or fetch), `view` answers every read-side query over it.
    Payload raw;
    NodeView view;
  };

  ObjectRef NodeRef(Addr addr, bool internal) const;
  uint32_t capacity() const { return layout().slab_payload_len(); }

  // --- The descent engine — descent.cc -------------------------------------
  // Fig. 5 traversal plus the §4.2/§5.2 version checks for one key: a
  // one-key ResolveLeafGroups run that records the path, then the leaf
  // step (FetchLeaves). On success the returned path runs root → leaf.
  // Aborts (Status::Aborted) on any safety check failure after invalidating
  // implicated cache entries.
  Result<std::vector<PathEntry>> Traverse(DynamicTxn& txn, uint64_t sid,
                                          Addr root, const Slice& key,
                                          TraverseMode mode);
  // The abort discipline of every descent: invalidate the implicated
  // address plus everything the descent leaned on (`visited`), count the
  // abort, and doom the transaction.
  Status AbortDescent(DynamicTxn& txn, Addr at,
                      const std::vector<Addr>& visited, const char* reason,
                      AbortReason why = AbortReason::kStaleCachePointer);
  // The §4.2/§5.2 node-settling checks, the only copy of them: verify
  // version lineage, follow discretionary-copy redirects with point hops
  // (read with the leaf discipline when `as_leaf`, else cached) — `*hop`
  // is the caller's scratch storage, `*node` is repointed at it after a
  // hop so the no-redirect common path stays zero-copy — and abort on an
  // applicable real copy. On return `*at` names the settled content
  // address; hop addresses join `visited`.
  Status SettleNodeForSid(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                          bool as_leaf, const FetchedNode** node,
                          FetchedNode* hop, Addr* at,
                          std::vector<Addr>* visited);
  // One pending node of a level-synchronized walk: the address its PARENT
  // holds (what a later traversal must find in the parent again), the
  // height the parent promised (-1: unknown, the root), and an opaque
  // consumer handle — typically an index into consumer-side payload
  // storage (a key, a routing key, a clipped scan range).
  struct FrontierItem {
    Addr addr;
    int expected_height = -1;
    size_t tag = 0;
  };
  struct FrontierCallbacks {
    // A leaf. Either promised by the parent's entry (`node == nullptr`,
    // `at == item.addr` — the frontier never fetches leaves; consumers
    // refetch them with the read discipline their mode requires) or reached
    // through the internal-read path (root == leaf, or a redirect): then
    // `node` is the settled content, `at` its address, and the engine has
    // already scrubbed it from the proxy cache.
    std::function<Status(const FrontierItem&, const FetchedNode* node,
                         Addr at)>
        on_leaf;
    // A settled internal node with at least one child; `node.raw` pins its
    // image for as long as the consumer keeps a copy. `level` counts fetch
    // rounds from the roots (0-based). Push next-level items into `next` —
    // or none, to cut the walk below this node.
    std::function<Status(const FrontierItem&, const FetchedNode& node,
                         Addr at, uint32_t level,
                         std::vector<FrontierItem>* next)>
        on_internal;
  };
  // The one tree walker, behind every descent — Traverse and
  // ResolveLeafGroups (per-key descents), WalkRange (scans),
  // CollectTipPlacement (the rebalancer's placement): the
  // whole frontier advances one level at a time, each level's distinct
  // nodes are fetched in ONE minitransaction round (ReadNodes, with the
  // internal-node discipline ReadModeFor gives `mode`), each node is
  // decoded once, and every item settles through the §4.2/§5.2 version
  // checks (SettleNodeForSid) and the promised-height check before
  // dispatching to the callbacks. Aborts (Status::Aborted) invalidate every
  // implicated cache entry; `visited` (caller-owned) collects every address
  // the walk leaned on, so callbacks and the caller's own later aborts
  // extend the same invalidation discipline.
  Status VisitFrontier(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                       std::vector<FrontierItem> level,
                       const FrontierCallbacks& cb,
                       std::vector<Addr>* visited);
  // The read discipline of a node fetch, the one place it is chosen.
  // Leaves are never served from the proxy cache: the tip's join the read
  // set (kValidated), a snapshot's are fetched fresh (kFresh, §4.2).
  // Internal nodes are dirty reads (kDirty, §3) — except in the Aguilera
  // baseline (no dirty_traversals) and on a kValidatedPath walk, where
  // they come from the proxy cache and join the read set
  // (kCachedValidated).
  ReadMode ReadModeFor(bool as_leaf, TraverseMode mode) const;
  // ONE round that reads the nodes at addrs[0..n) with ReadModeFor(as_leaf,
  // mode) and gives each its zero-copy view: out[k] is addrs[k]'s. A lone
  // node — every level of a single-key operation — takes the point
  // overload of DynamicTxn::Read, so it allocates no result vector. In
  // the Aguilera baseline a kCachedValidated internal node validates
  // against the replicated seqnum table. An undecodable image (a freed or
  // garbage slab reached through a stale pointer) aborts the descent, and
  // so does a fetch that failed on a RETIRED memnode (elastic scale-in):
  // retirement guarantees the node held no live slab, so any pointer at
  // it is stale by definition — invalidate `visited` and retry, instead
  // of surfacing Unavailable. A null `out` only fetches (ApplyWritesInTxn's
  // leaf prefetch into the read set) and builds no views.
  Status ReadNodes(DynamicTxn& txn, const Addr* addrs, size_t n,
                   bool as_leaf, TraverseMode mode,
                   const std::vector<Addr>& visited, FetchedNode* out);

  // Keys that resolved to the same leaf, in key-index order; groups come
  // in leaf-address order. `addr` is the leaf's content address (after any
  // discretionary hops of the inner descent; FetchLeaves settles leaf-level
  // hops).
  struct LeafGroup {
    Addr addr;
    std::vector<size_t> key_idx;
  };
  // Resolve every key's leaf address with a BFS frontier that walks ALL
  // keys one level at a time. At each level, the distinct nodes no cache
  // can serve are fetched in ONE minitransaction round (dirty reads — or,
  // in the Aguilera baseline, cached reads that join the read set), each
  // node is decoded once, and every key advances through it under the
  // Fig. 5 / §4.2 / §5.2 safety checks. A cold cache therefore pays
  // ~depth rounds for ANY number of keys; a warm cache pays nothing.
  // Leaves are NOT fetched (only grouped): FetchLeaves reads them.
  // `visited` collects every address the descent leaned on. With a
  // non-null `path` (one key only) the walk is recorded root → leaf: each
  // settled internal node, then the leaf's entry with its content left
  // for FetchLeaves.
  Status ResolveLeafGroups(DynamicTxn& txn, uint64_t sid, Addr root,
                           TraverseMode mode,
                           const std::vector<std::string>& keys,
                           std::vector<LeafGroup>* groups,
                           std::vector<Addr>* visited,
                           std::vector<PathEntry>* path = nullptr);
  // The leaf step of every descent: fetch the groups' leaves in ONE round
  // with `mode`'s read discipline (the tip's join the read set, a
  // snapshot's are fetched fresh), settle each through SettleNodeForSid,
  // and check that it is a leaf whose fences hold every key routed to it.
  // On return `(*leaves)[g]` is group g's content and `(*groups)[g].addr`
  // its settled address.
  Status FetchLeaves(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                     const std::vector<std::string>& keys,
                     std::vector<LeafGroup>* groups,
                     std::vector<FetchedNode>* leaves,
                     std::vector<Addr>* visited);
  // The range walk, the one way a scan reads leaves: VisitFrontier descends
  // [start, end) left to right, keeping at most a leaf budget of items per
  // level, and at the leaf level ONE batched round (ReadNodes, `mode`'s
  // leaf discipline) reads every leaf the range covers up to that budget.
  // Each leaf settles through SettleNodeForSid, must be a leaf, and must
  // continue the fence chain — the first holds `start`, each later one's
  // low fence is the previous one's high fence — or the walk aborts through
  // AbortDescent (the parent pointers came from a stale dirty or cached
  // read). Only then are pairs appended while `out` holds fewer than
  // `limit`. `*resume` is where the next batch starts: the first key not
  // taken, else the last leaf's high fence; empty once the range or the
  // tree ends. The budget is the most leaves whose expected yield at the
  // previous batch's mean fill (scan_leaf_fill_) stays within the pairs
  // still wanted, capped per round.
  Status WalkRange(DynamicTxn& txn, uint64_t sid, Addr root,
                   TraverseMode mode, const std::string& start,
                   const std::string& end, size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out,
                   std::string* resume);

  // Shared body of MultiGetInTxn / SnapshotMultiGet (and, with one key, of
  // GetAt): ResolveLeafGroups, then FetchLeaves, then the lookups.
  Status MultiGetAt(DynamicTxn& txn, uint64_t sid, Addr root,
                    TraverseMode mode, const std::vector<std::string>& keys,
                    std::vector<std::optional<std::string>>* values);
  // Shared body of GetInTxn / SnapshotGet: a one-key MultiGetAt, NotFound
  // when `key` is absent.
  Status GetAt(DynamicTxn& txn, uint64_t sid, Addr root, TraverseMode mode,
               const std::string& key, std::string* value);

  // Shared body of PutInTxn / InsertInTxn: traverse to the leaf under
  // `tip` and upsert `key`; with `strict`, fail AlreadyExists when the key
  // is present.
  Status UpsertInTxn(DynamicTxn& txn, const std::string& key,
                     const std::string& value, Tip tip, bool strict);

  // Write back a modified leaf (path.back()), performing copy-on-write,
  // splits and parent updates as needed; re-publishes the root if it moves
  // or splits.
  Status ApplyLeafMutation(DynamicTxn& txn, const TipContext& tip,
                           std::vector<PathEntry>& path, Node leaf);

  // Record that `old_addr` (content `old_node`) has been copied to
  // snapshot `sid` at `copy_addr`, maintaining the β-bounded descendant-set
  // invariant with discretionary copies. Writes the old node.
  Status RecordCopy(DynamicTxn& txn, Addr old_addr, Node old_node,
                    uint64_t sid, Addr copy_addr);

  // Allocate a slab (load-aware placement) and write `node` into it.
  Result<Addr> WriteFreshNode(DynamicTxn& txn, const Node& node);
  // Same, but on a caller-chosen memnode (live migration placement).
  Result<Addr> WriteFreshNodeAt(DynamicTxn& txn, const Node& node,
                                sinfonia::MemnodeId memnode);

  Status PublishRoot(DynamicTxn& txn, const TipContext& tip, Addr new_root);

  Status CheckKeyValue(const std::string& key, const std::string& value) const;

  // Fails with InvalidArgument when `sid` precedes the published
  // garbage-collection horizon (such snapshots are no longer queryable).
  Status CheckGcHorizon(uint64_t sid);

  // Run `body` under txn::RunTransaction with the client-op attempt
  // budget, counting every retried attempt in op_aborts.
  template <typename Body>
  Status Transact(Body&& body) {
    return txn::RunTransaction(coord_, cache_, {}, txn::kMaxOpAttempts,
                               std::forward<Body>(body),
                               [this] { stats_->op_aborts.Increment(); });
  }

  // Transact for a validation-free snapshot read of `sid` (§4.2). The body
  // only fetches and never joins a read set, so each attempt's commit is
  // free. Every 64th attempt first consults the GC horizon, so a read
  // below it fails fast with InvalidArgument instead of retrying to the
  // attempt budget.
  template <typename Body>
  Status TransactSnapshotRead(uint64_t sid, Body&& body) {
    uint32_t attempt = 0;
    return Transact([&](DynamicTxn& txn) -> Status {
      if (attempt++ % 64 == 6) MINUET_RETURN_NOT_OK(CheckGcHorizon(sid));
      return body(txn);
    });
  }

  sinfonia::Coordinator* coord_;
  NodeAllocator* allocator_;
  ObjectCache* cache_;
  const VersionOracle* oracle_;
  uint32_t tree_slot_;
  TreeOptions options_;
  // Private fallback storage; stats_ points here unless the constructor was
  // handed a catalog-shared Stats (see Stats doc above).
  mutable Stats own_stats_;
  Stats* stats_;
  // Mean entries per leaf in the last range-walk batch (0: none yet). It
  // sizes the next batch's leaf budget and is never a correctness input: a
  // short batch resumes, an over-read one only fetches more.
  std::atomic<uint32_t> scan_leaf_fill_{0};
};

// Encoders for the small tip/catalog payloads (shared with mvcc/version).
// Decoders take Slices so both owned strings and zero-copy views decode
// without a staging copy.
std::string EncodeTipId(uint64_t sid);
uint64_t DecodeTipId(Slice payload);
std::string EncodeRootLoc(Addr root);
Addr DecodeRootLoc(Slice payload);

struct CatalogEntry {
  Addr root;
  uint64_t branch_id = 0;  // first branch created from this snapshot; 0=none
  uint64_t parent = kNoParent;
  uint32_t branch_count = 0;

  static constexpr uint64_t kNoParent = ~0ULL;
};
std::string EncodeCatalogEntry(const CatalogEntry& e);
CatalogEntry DecodeCatalogEntry(Slice payload);

}  // namespace minuet::btree
