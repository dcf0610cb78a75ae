// Tests for the distributed node allocator: layout invariants, batched and
// unbatched allocation, free-list recycling (plain links and batch runs),
// carried seqnums, transactional rollback.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc/allocator.h"

namespace minuet::alloc {
namespace {

using sinfonia::Coordinator;
using sinfonia::Memnode;

TEST(LayoutTest, RegionsDoNotOverlap) {
  Layout layout;
  layout.n_memnodes = 8;
  EXPECT_GE(layout.replicated_base, 4096u);
  EXPECT_GE(layout.seq_table_base(),
            layout.replicated_base + layout.replicated_size);
  EXPECT_GE(layout.alloc_meta_base(),
            layout.seq_table_base() + layout.seq_table_entries() * 8);
  EXPECT_GE(layout.slab_base(), layout.alloc_meta_base() + 64);
  EXPECT_EQ(layout.slab_base() % layout.node_size, 0u);
}

TEST(LayoutTest, SeqSlotsAreUniqueAcrossMemnodesAndSlabs) {
  Layout layout;
  layout.n_memnodes = 4;
  std::set<uint64_t> slots;
  for (uint32_t m = 0; m < 4; m++) {
    for (uint64_t i = 0; i < 100; i++) {
      const Addr a{m, layout.slab_base() + i * layout.node_size};
      slots.insert(layout.SeqSlotFor(a));
    }
  }
  EXPECT_EQ(slots.size(), 400u);
}

TEST(LayoutTest, WellKnownRefsAreReplicated) {
  Layout layout;
  EXPECT_TRUE(layout.TipIdRef(0).replicated_data);
  EXPECT_TRUE(layout.TipRootRef(0).replicated_data);
  EXPECT_TRUE(layout.CatalogRef(0, 3).replicated_data);
  EXPECT_NE(layout.TipIdRef(0).addr.offset,
            layout.TipRootRef(0).addr.offset);
  EXPECT_EQ(layout.CatalogRef(0, 1).addr.offset + Layout::kCatalogEntryStride,
            layout.CatalogRef(0, 2).addr.offset);
}

TEST(LayoutTest, TreeSlotsAreDisjoint) {
  Layout layout;
  EXPECT_GE(layout.max_trees(), 2u);
  // Every well-known object of tree 1 lies beyond tree 0's catalog.
  EXPECT_GE(layout.TipIdRef(1).addr.offset,
            layout.catalog_base(0) +
                layout.max_catalog_entries() * Layout::kCatalogEntryStride);
  EXPECT_LT(layout.tree_base(layout.max_trees() - 1) + Layout::kTreeStride,
            layout.seq_table_base() + 1);
}

class AllocatorTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 3;

  void SetUp() override {
    fabric_ = std::make_unique<net::Fabric>(kNodes);
    for (uint32_t i = 0; i < kNodes; i++) {
      raw_.push_back(std::make_unique<Memnode>(i));
      memnodes_.push_back(raw_.back().get());
    }
    coord_ = std::make_unique<Coordinator>(fabric_.get(), memnodes_);
    layout_.n_memnodes = kNodes;
  }

  NodeAllocator MakeAllocator(uint32_t batch) {
    return NodeAllocator(layout_, coord_.get(), {.batch = batch});
  }

  // Allocate one slab on `m`, install it the way the B-tree does and
  // commit; returns its offset.
  uint64_t InstallOne(NodeAllocator& alloc, MemnodeId m) {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, m);
    EXPECT_TRUE(slab.ok());
    if (!slab.ok()) return 0;
    EXPECT_TRUE((slab->known_seqnum
                     ? t.WriteNew(slab->ref, "node", *slab->known_seqnum)
                     : t.Write(slab->ref, "node"))
                    .ok());
    EXPECT_TRUE(t.Commit().ok());
    return slab->ref.addr.offset;
  }

  Status FreeInOneTxn(NodeAllocator& alloc, MemnodeId m,
                      const std::vector<uint64_t>& offsets) {
    txn::DynamicTxn t(coord_.get(), nullptr);
    MINUET_RETURN_NOT_OK(alloc.FreeBatch(t, m, offsets));
    return t.Commit();
  }

  uint64_t Executions() { return coord_->metrics().executions.Value(); }

  Layout layout_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<Memnode>> raw_;
  std::vector<Memnode*> memnodes_;
  std::unique_ptr<Coordinator> coord_;
};

TEST_F(AllocatorTest, UnbatchedAllocationsAreDistinct) {
  NodeAllocator alloc = MakeAllocator(0);
  std::set<uint64_t> offsets;
  for (int i = 0; i < 10; i++) {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 0);
    ASSERT_TRUE(slab.ok());
    EXPECT_EQ(slab->known_seqnum, 0u);
    EXPECT_GE(slab->ref.addr.offset, layout_.slab_base());
    ASSERT_TRUE(t.WriteNew(slab->ref, "init").ok());
    ASSERT_TRUE(t.Commit().ok());
    EXPECT_TRUE(offsets.insert(slab->ref.addr.offset).second);
  }
}

TEST_F(AllocatorTest, BatchedAllocationsAreDistinctAcrossThreads) {
  NodeAllocator alloc = MakeAllocator(8);
  std::mutex mu;
  std::set<std::pair<uint32_t, uint64_t>> seen;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 100; i++) {
        txn::DynamicTxn txn(coord_.get(), nullptr);
        auto slab = alloc.AllocateAnywhere(txn);
        ASSERT_TRUE(slab.ok());
        ASSERT_TRUE(txn.WriteNew(slab->ref, "x").ok());
        ASSERT_TRUE(txn.Commit().ok());
        std::lock_guard<std::mutex> g(mu);
        EXPECT_TRUE(seen.insert({slab->ref.addr.memnode,
                                 slab->ref.addr.offset}).second);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(seen.size(), 400u);
}

TEST_F(AllocatorTest, AbortedAllocationRollsBackMetadata) {
  NodeAllocator alloc = MakeAllocator(0);
  uint64_t first_offset = 0;
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    first_offset = slab->ref.addr.offset;
    // Never commit: the bump-pointer update must not take effect.
  }
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    EXPECT_EQ(slab->ref.addr.offset, first_offset);
    ASSERT_TRUE(t.WriteNew(slab->ref, "kept").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
}

TEST_F(AllocatorTest, FreeRecyclesThroughFreeList) {
  NodeAllocator alloc = MakeAllocator(0);
  Addr freed{};
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    freed = slab->ref.addr;
    ASSERT_TRUE(t.WriteNew(slab->ref, "shortlived").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, freed).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    EXPECT_EQ(slab->ref.addr, freed);
    EXPECT_FALSE(slab->known_seqnum);  // recycled: already read into the txn
    ASSERT_TRUE(t.Write(slab->ref, "reborn").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
}

TEST_F(AllocatorTest, FreeBumpsSeqnumSoStaleCachesNeverValidate) {
  NodeAllocator alloc = MakeAllocator(0);
  Addr addr{};
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 0);
    ASSERT_TRUE(slab.ok());
    addr = slab->ref.addr;
    ASSERT_TRUE(t.WriteNew(slab->ref, "v1").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  std::string raw;
  memnodes_[0]->RawRead(addr.offset, 8, &raw);
  const uint64_t seq_before = DecodeFixed64(raw.data());
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, addr).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  memnodes_[0]->RawRead(addr.offset, 8, &raw);
  EXPECT_GT(DecodeFixed64(raw.data()), seq_before);
}

TEST_F(AllocatorTest, RoundRobinSpreadsPlacements) {
  NodeAllocator alloc = MakeAllocator(4);
  std::vector<int> per_node(kNodes, 0);
  for (int i = 0; i < 30; i++) {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.AllocateAnywhere(t);
    ASSERT_TRUE(slab.ok());
    per_node[slab->ref.addr.memnode]++;
    ASSERT_TRUE(t.WriteNew(slab->ref, "x").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  for (uint32_t m = 0; m < kNodes; m++) {
    EXPECT_EQ(per_node[m], 10) << "memnode " << m;
  }
}

TEST_F(AllocatorTest, AllocatedCountTracks) {
  NodeAllocator alloc = MakeAllocator(4);
  txn::DynamicTxn t(coord_.get(), nullptr);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(alloc.AllocateAnywhere(t).ok());
  }
  EXPECT_EQ(alloc.allocated_count(), 5u);
}

// --- Placement lifecycle (elastic scale-in) ---------------------------------

TEST_F(AllocatorTest, DrainExcludesPlacementAndFlushesReservations) {
  NodeAllocator alloc = MakeAllocator(4);
  {
    // One allocation on node 1 reserves a batch of 4: 1 handed out, 3
    // pooled — all 4 count against the authoritative occupancy.
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(t.WriteNew(slab->ref, "x").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  auto before = alloc.MetaLiveSlabs(1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, 4u);

  ASSERT_TRUE(alloc.BeginDrain(1).ok());
  EXPECT_EQ(alloc.placement_state(1),
            NodeAllocator::PlacementState::kDraining);
  // The three pooled slabs went back to the free list; only the handed-out
  // one still counts.
  auto after = alloc.MetaLiveSlabs(1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 1u);

  // No placement lands on the draining node; explicit allocation refused.
  for (int i = 0; i < 30; i++) {
    EXPECT_NE(alloc.NextPlacement(), 1u);
  }
  txn::DynamicTxn t(coord_.get(), nullptr);
  auto refused = alloc.Allocate(t, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument());

  // BeginDrain is idempotent; CancelDrain re-opens placement.
  EXPECT_TRUE(alloc.BeginDrain(1).ok());
  ASSERT_TRUE(alloc.CancelDrain(1).ok());
  EXPECT_EQ(alloc.placement_state(1), NodeAllocator::PlacementState::kActive);
}

TEST_F(AllocatorTest, RetireRequiresZeroOccupancyAndZeroesMeta) {
  NodeAllocator alloc = MakeAllocator(0);  // unbatched: exact occupancy
  Addr slab_addr;
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    slab_addr = slab->ref.addr;
    ASSERT_TRUE(t.WriteNew(slab->ref, "x").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  EXPECT_TRUE(alloc.Retire(2).IsInvalidArgument()) << "must drain first";
  ASSERT_TRUE(alloc.BeginDrain(2).ok());
  EXPECT_TRUE(alloc.Retire(2).IsBusy()) << "a live slab remains";

  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, slab_addr).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  ASSERT_TRUE(alloc.Retire(2).ok());
  EXPECT_EQ(alloc.placement_state(2), NodeAllocator::PlacementState::kRetired);
  // Retired nodes report zero occupancy (no ghost bump/free capacity) and
  // never rejoin the lifecycle.
  auto live = alloc.MetaLiveSlabs(2);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 0u);
  EXPECT_EQ(alloc.ApproxLiveSlabs(2), 0u);
  EXPECT_TRUE(alloc.BeginDrain(2).IsInvalidArgument());
  EXPECT_TRUE(alloc.CancelDrain(2).IsInvalidArgument());
  for (int i = 0; i < 30; i++) {
    EXPECT_NE(alloc.NextPlacement(), 2u);
  }
}

// --- Reserved slabs of attempts that install nothing ------------------------

// N retried attempts that each allocate and then abort: every reserved slab
// comes back, so the authoritative occupancy is exactly the live nodes plus
// what waits in the reservation pool — no orphan the GC could never free.
TEST_F(AllocatorTest, AbortedAttemptsGiveTheirSlabsBack) {
  NodeAllocator alloc = MakeAllocator(8);
  constexpr int kAborts = 20;
  int attempts = 0;
  Status st = txn::RunTransaction(
      coord_.get(), nullptr, {}, kAborts + 1,
      [&](txn::DynamicTxn& t) -> Status {
        auto slab = alloc.Allocate(t, 0);
        if (!slab.ok()) return slab.status();
        MINUET_RETURN_NOT_OK(slab->known_seqnum
                                 ? t.WriteNew(slab->ref, "node",
                                              *slab->known_seqnum)
                                 : t.Write(slab->ref, "node"));
        if (++attempts <= kAborts) return Status::Aborted("forced abort");
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(attempts, kAborts + 1);
  const uint64_t live_nodes = 1;
  auto meta_live = alloc.MetaLiveSlabs(0);
  ASSERT_TRUE(meta_live.ok());
  EXPECT_EQ(*meta_live, live_nodes + alloc.ReservedSlabs(0));
  EXPECT_EQ(alloc.ApproxLiveSlabs(0), live_nodes);
}

// A commit whose compare fails installed nothing: its slab is handed back.
TEST_F(AllocatorTest, CommitThatFailsValidationGivesItsSlabBack) {
  NodeAllocator alloc = MakeAllocator(4);
  const ObjectRef contended = layout_.SlabRef(Addr{1, layout_.slab_base()});
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 0);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(t.WriteNew(slab->ref, "loser").ok());
    ASSERT_TRUE(t.Read(contended, txn::ReadMode::kValidated).ok());
    txn::DynamicTxn rival(coord_.get(), nullptr);
    ASSERT_TRUE(rival.Write(contended, "winner").ok());
    ASSERT_TRUE(rival.Commit().ok());
    EXPECT_TRUE(t.Commit().IsAborted());
  }
  EXPECT_EQ(alloc.ReservedSlabs(0), 4u);
  auto meta_live = alloc.MetaLiveSlabs(0);
  ASSERT_TRUE(meta_live.ok());
  EXPECT_EQ(*meta_live, 4u);
}

// An in-doubt commit (Unavailable) may have landed: its slab stays out.
TEST_F(AllocatorTest, InDoubtCommitKeepsItsSlab) {
  NodeAllocator alloc = MakeAllocator(4);
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 0);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(t.WriteNew(slab->ref, "maybe").ok());
    fabric_->SetUp(0, false);
    EXPECT_TRUE(t.Commit().IsUnavailable());
    fabric_->SetUp(0, true);
  }
  EXPECT_EQ(alloc.ReservedSlabs(0), 3u);
}

// A slab given back after BeginDrain flushed the pool goes on to the free
// list, so the drained node can still reach zero occupancy and retire.
TEST_F(AllocatorTest, SlabGivenBackAfterDrainGoesToTheFreeList) {
  NodeAllocator alloc = MakeAllocator(4);
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(t.WriteNew(slab->ref, "never committed").ok());
    ASSERT_TRUE(alloc.BeginDrain(1).ok());  // flushes the 3 pooled slabs
  }
  EXPECT_EQ(alloc.ReservedSlabs(1), 0u);
  auto meta_live = alloc.MetaLiveSlabs(1);
  ASSERT_TRUE(meta_live.ok());
  EXPECT_EQ(*meta_live, 0u);
  EXPECT_TRUE(alloc.Retire(1).ok());
}

// --- Batched frees and run-linked refills -----------------------------------

TEST_F(AllocatorTest, FreeBatchChainIsConsumedExactlyOnce) {
  NodeAllocator alloc = MakeAllocator(8);
  std::vector<uint64_t> live;
  for (int i = 0; i < 40; i++) live.push_back(InstallOne(alloc, 0));
  ASSERT_EQ(alloc.ReservedSlabs(0), 0u);
  ASSERT_TRUE(FreeInOneTxn(alloc, 0, live).ok());
  auto meta_live = alloc.MetaLiveSlabs(0);
  ASSERT_TRUE(meta_live.ok());
  EXPECT_EQ(*meta_live, 0u);

  // Five refills of 8 walk the one 40-slab chain, each taking a head link
  // and part of its run: every freed slab comes back exactly once.
  const std::set<uint64_t> freed(live.begin(), live.end());
  std::set<uint64_t> reused;
  for (int i = 0; i < 40; i++) {
    EXPECT_TRUE(reused.insert(InstallOne(alloc, 0)).second);
  }
  EXPECT_EQ(reused, freed);
  EXPECT_EQ(alloc.metrics().recycled_slabs.Value(), 40u);
  // The list is empty: the next slab comes from the bump pointer.
  EXPECT_EQ(freed.count(InstallOne(alloc, 0)), 0u);
}

TEST_F(AllocatorTest, MixedPlainAndRunLinksAreConsumedCompletely) {
  NodeAllocator alloc = MakeAllocator(8);
  std::vector<uint64_t> live;
  for (int i = 0; i < 30; i++) live.push_back(InstallOne(alloc, 1));
  auto free_one = [&](uint64_t off) {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, Addr{1, off}).ok());
    ASSERT_TRUE(t.Commit().ok());
  };
  // Plain links (Free, run = 0) between two runs.
  free_one(live[0]);
  ASSERT_TRUE(FreeInOneTxn(alloc, 1, {live.begin() + 1, live.begin() + 11})
                  .ok());
  free_one(live[11]);
  free_one(live[12]);
  ASSERT_TRUE(FreeInOneTxn(alloc, 1, {live.begin() + 13, live.end()}).ok());

  // Allocate past the pooled slabs, the freed ones and one more refill's
  // worth (a refill that empties the list tops up from the bump pointer).
  const std::set<uint64_t> freed(live.begin(), live.end());
  std::set<uint64_t> reused;
  const size_t n = alloc.ReservedSlabs(1) + freed.size() + 8;
  for (size_t i = 0; i < n; i++) {
    EXPECT_TRUE(reused.insert(InstallOne(alloc, 1)).second)
        << "slab handed out twice";
  }
  for (uint64_t off : freed) EXPECT_EQ(reused.count(off), 1u);
  EXPECT_EQ(alloc.metrics().recycled_slabs.Value(), freed.size());
  auto meta_live = alloc.MetaLiveSlabs(1);
  ASSERT_TRUE(meta_live.ok());
  EXPECT_EQ(*meta_live, reused.size() + alloc.ReservedSlabs(1));
}

TEST_F(AllocatorTest, RefillOfARunTakesFewMinitransactions) {
  NodeAllocator alloc = MakeAllocator(32);
  std::vector<uint64_t> live;
  for (int i = 0; i < 32; i++) live.push_back(InstallOne(alloc, 0));
  ASSERT_TRUE(FreeInOneTxn(alloc, 0, live).ok());

  const uint64_t refills = alloc.metrics().refills.Value();
  const uint64_t before = Executions();
  txn::DynamicTxn t(coord_.get(), nullptr);
  ASSERT_TRUE(alloc.Allocate(t, 0).ok());  // empty pool: refills
  // Metadata, head link, the 31-slab run in one batched read, commit. A
  // walk of one round per slab took 1 + 32 + 1.
  EXPECT_LE(Executions() - before, 4u);
  EXPECT_EQ(alloc.metrics().refills.Value(), refills + 1);
  EXPECT_EQ(alloc.ReservedSlabs(0), 31u);
  EXPECT_EQ(alloc.metrics().recycled_slabs.Value(), 32u);
}

TEST_F(AllocatorTest, RecycledSlabInstallsWithoutAFetch) {
  NodeAllocator alloc = MakeAllocator(4);
  std::vector<uint64_t> live;
  for (int i = 0; i < 4; i++) live.push_back(InstallOne(alloc, 2));
  ASSERT_TRUE(FreeInOneTxn(alloc, 2, live).ok());
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(slab->known_seqnum) << "the refill validated its seqnum";
    EXPECT_GT(*slab->known_seqnum, 0u);
    const uint64_t before = Executions();
    ASSERT_TRUE(t.WriteNew(slab->ref, "reborn", *slab->known_seqnum).ok());
    ASSERT_TRUE(t.Commit().ok());
    EXPECT_EQ(Executions() - before, 1u) << "commit only, no fetch";
  }

  // An attempt that installs nothing hands its slab back without the
  // seqnum: the next use fetches it.
  uint64_t handed_back = 0;
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(slab->known_seqnum);
    handed_back = slab->ref.addr.offset;
    ASSERT_TRUE(t.WriteNew(slab->ref, "never", *slab->known_seqnum).ok());
  }
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    EXPECT_EQ(slab->ref.addr.offset, handed_back);
    EXPECT_FALSE(slab->known_seqnum);
    const uint64_t before = Executions();
    ASSERT_TRUE(t.Write(slab->ref, "again").ok());
    ASSERT_TRUE(t.Commit().ok());
    EXPECT_EQ(Executions() - before, 2u) << "fetch, then commit";
  }

  // A carried seqnum that no longer holds (the slab was written behind the
  // pool's back, as a restored memnode image may do) fails once; the slab
  // comes back without it and the retry commits.
  uint64_t stale = 0;
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(slab->known_seqnum);
    stale = slab->ref.addr.offset;
    txn::DynamicTxn rival(coord_.get(), nullptr);
    ASSERT_TRUE(rival.Write(slab->ref, "restored").ok());
    ASSERT_TRUE(rival.Commit().ok());
    ASSERT_TRUE(t.WriteNew(slab->ref, "loser", *slab->known_seqnum).ok());
    EXPECT_TRUE(t.Commit().IsAborted());
  }
  Status st = txn::RunTransaction(
      coord_.get(), nullptr, {}, 2, [&](txn::DynamicTxn& t) -> Status {
        auto slab = alloc.Allocate(t, 2);
        if (!slab.ok()) return slab.status();
        EXPECT_EQ(slab->ref.addr.offset, stale);
        return slab->known_seqnum
                   ? t.WriteNew(slab->ref, "winner", *slab->known_seqnum)
                   : t.Write(slab->ref, "winner");
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// A free whose commit fails freed nothing: the in-process live count must
// not drift, or the two-choice placement drifts with it.
TEST_F(AllocatorTest, FailedFreeLeavesTheLiveCounterUnchanged) {
  NodeAllocator alloc = MakeAllocator(4);
  const uint64_t a = InstallOne(alloc, 0);
  const uint64_t b = InstallOne(alloc, 0);
  const uint64_t live = alloc.ApproxLiveSlabs(0);
  ASSERT_EQ(live, 2u);
  auto lose_race = [&](txn::DynamicTxn& t, uint64_t contended) {
    txn::DynamicTxn rival(coord_.get(), nullptr);
    ASSERT_TRUE(rival.Write(layout_.SlabRef(Addr{0, contended}), "cow").ok());
    ASSERT_TRUE(rival.Commit().ok());
    EXPECT_TRUE(t.Commit().IsAborted());
  };
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, Addr{0, a}).ok());
    lose_race(t, a);
  }
  EXPECT_EQ(alloc.ApproxLiveSlabs(0), live);
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.FreeBatch(t, 0, {a, b}).ok());
    lose_race(t, b);
  }
  EXPECT_EQ(alloc.ApproxLiveSlabs(0), live);
  // A committed free still counts.
  ASSERT_TRUE(FreeInOneTxn(alloc, 0, {a}).ok());
  EXPECT_EQ(alloc.ApproxLiveSlabs(0), live - 1);
}

TEST_F(AllocatorTest, CannotDrainLastActiveMemnode) {
  NodeAllocator alloc = MakeAllocator(0);
  ASSERT_TRUE(alloc.BeginDrain(0).ok());
  ASSERT_TRUE(alloc.BeginDrain(1).ok());
  EXPECT_TRUE(alloc.BeginDrain(2).IsInvalidArgument());
  ASSERT_TRUE(alloc.CancelDrain(0).ok());
  EXPECT_TRUE(alloc.BeginDrain(2).ok());
}

}  // namespace
}  // namespace minuet::alloc
