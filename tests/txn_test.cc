// Tests for the dynamic transaction layer: read/write sets, seqnum
// validation, the four read modes, piggy-backed validation, replicated
// objects, and the WriteNew fresh-slab path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "txn/txn.h"

namespace minuet::txn {
namespace {

using sinfonia::Addr;
using sinfonia::Coordinator;
using sinfonia::Memnode;

// The bytes of a read, copied out of its pinned image so assertions can
// compare them as a string.
Result<std::string> Bytes(Result<Payload> read) {
  if (!read.ok()) return read.status();
  return read->data.ToString();
}

class TxnTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 3;

  void SetUp() override {
    fabric_ = std::make_unique<net::Fabric>(kNodes);
    for (uint32_t i = 0; i < kNodes; i++) {
      raw_.push_back(std::make_unique<Memnode>(i));
      memnodes_.push_back(raw_.back().get());
    }
    coord_ = std::make_unique<Coordinator>(fabric_.get(), memnodes_);
  }

  static ObjectRef PlainRef(uint32_t memnode, uint64_t offset,
                            uint32_t payload_len = 16) {
    ObjectRef r;
    r.addr = Addr{memnode, offset};
    r.payload_len = payload_len;
    return r;
  }

  static ObjectRef ReplicatedRef(uint64_t offset, uint32_t payload_len = 16) {
    ObjectRef r;
    r.addr = Addr{0, offset};
    r.payload_len = payload_len;
    r.replicated_data = true;
    return r;
  }

  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<Memnode>> raw_;
  std::vector<Memnode*> memnodes_;
  std::unique_ptr<Coordinator> coord_;
};

TEST_F(TxnTest, WriteNewThenReadBack) {
  const ObjectRef ref = PlainRef(1, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, "payload0123456_").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    DynamicTxn t(coord_.get(), nullptr);
    auto v = Bytes(t.Read(ref, ReadMode::kValidated));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->substr(0, 8), "payload0");
    ASSERT_TRUE(t.Commit().ok());
  }
}

TEST_F(TxnTest, ReadYourOwnWrites) {
  const ObjectRef ref = PlainRef(0, 4096);
  DynamicTxn t(coord_.get(), nullptr);
  ASSERT_TRUE(t.WriteNew(ref, "before_commit___").ok());
  auto v = Bytes(t.Read(ref, ReadMode::kValidated));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->substr(0, 6), "before");
}

TEST_F(TxnTest, CommitBumpsSeqnum) {
  const ObjectRef ref = PlainRef(0, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  std::string raw;
  memnodes_[0]->RawRead(4096, 8, &raw);
  EXPECT_EQ(DecodeFixed64(raw.data()), 1u);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.Write(ref, std::string(16, 'b')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  memnodes_[0]->RawRead(4096, 8, &raw);
  EXPECT_EQ(DecodeFixed64(raw.data()), 2u);
}

TEST_F(TxnTest, StaleReadFailsValidation) {
  const ObjectRef ref = PlainRef(0, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  DynamicTxn reader(coord_.get(), nullptr);
  ASSERT_TRUE(reader.Read(ref, ReadMode::kValidated).ok());

  // A concurrent writer updates the object.
  {
    DynamicTxn w(coord_.get(), nullptr);
    ASSERT_TRUE(w.Write(ref, std::string(16, 'b')).ok());
    ASSERT_TRUE(w.Commit().ok());
  }

  // The reader now writes based on its stale read: commit must abort.
  ASSERT_TRUE(reader.Write(ref, std::string(16, 'c')).ok());
  EXPECT_TRUE(reader.Commit().IsAborted());

  // The stale write never reached the memnode.
  DynamicTxn check(coord_.get(), nullptr);
  auto v = Bytes(check.Read(ref, ReadMode::kValidated));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)[0], 'b');
}

TEST_F(TxnTest, ReadOnlyTxnCommitsWithoutExtraMessages) {
  const ObjectRef ref = PlainRef(0, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  net::OpTrace trace;
  trace.Reset(kNodes);
  net::Fabric::SetThreadTrace(&trace);
  DynamicTxn t(coord_.get(), nullptr);
  ASSERT_TRUE(t.Read(ref, ReadMode::kValidated).ok());
  ASSERT_TRUE(t.Commit().ok());
  net::Fabric::SetThreadTrace(nullptr);
  // One fetch, and the piggy-backed validation makes commit free.
  EXPECT_EQ(trace.messages, 1u);
  EXPECT_EQ(trace.round_trips, 1u);
}

TEST_F(TxnTest, PiggybackDetectsStalenessAtNextFetch) {
  const ObjectRef a = PlainRef(0, 4096);
  const ObjectRef b = PlainRef(0, 8192);
  for (const auto& ref : {a, b}) {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'x')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  DynamicTxn reader(coord_.get(), nullptr);
  ASSERT_TRUE(reader.Read(a, ReadMode::kValidated).ok());
  {
    DynamicTxn w(coord_.get(), nullptr);
    ASSERT_TRUE(w.Write(a, std::string(16, 'y')).ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  // The next fetch carries a compare on `a`'s seqnum and must fail it.
  auto v = Bytes(reader.Read(b, ReadMode::kValidated));
  EXPECT_TRUE(v.status().IsAborted());
  EXPECT_TRUE(reader.doomed());
  EXPECT_TRUE(reader.Commit().IsAborted());
}

TEST_F(TxnTest, DirtyReadDoesNotJoinReadSet) {
  const ObjectRef ref = PlainRef(0, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  DynamicTxn t(coord_.get(), nullptr);
  ASSERT_TRUE(t.Read(ref, ReadMode::kDirty).ok());
  EXPECT_EQ(t.read_set_size(), 0u);
  EXPECT_FALSE(t.InReadSet(ref));

  // Concurrent update does NOT doom this transaction.
  {
    DynamicTxn w(coord_.get(), nullptr);
    ASSERT_TRUE(w.Write(ref, std::string(16, 'b')).ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  EXPECT_TRUE(t.Commit().ok());
}

TEST_F(TxnTest, DirtyReadServedFromCache) {
  const ObjectRef ref = PlainRef(0, 4096);
  ObjectCache cache;
  {
    DynamicTxn t(coord_.get(), &cache, {});
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    DynamicTxn t(coord_.get(), &cache, {});
    ASSERT_TRUE(t.Read(ref, ReadMode::kDirty).ok());  // miss → fills cache
    ASSERT_TRUE(t.Commit().ok());
  }
  net::OpTrace trace;
  trace.Reset(kNodes);
  net::Fabric::SetThreadTrace(&trace);
  {
    DynamicTxn t(coord_.get(), &cache, {});
    auto v = Bytes(t.Read(ref, ReadMode::kDirty));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ((*v)[0], 'a');
    ASSERT_TRUE(t.Commit().ok());
  }
  net::Fabric::SetThreadTrace(nullptr);
  EXPECT_EQ(trace.messages, 0u);  // served entirely from the proxy cache
}

// The ReadMode table of txn.h, row by row. Each mode runs with one ref,
// then with a batch holding a duplicate, a write-set member and a read-set
// member — once current, once stale — and finally on a doomed transaction.
// Every call costs at most one round.
TEST_F(TxnTest, EveryReadModeFollowsItsTable) {
  struct Row {
    ReadMode mode;
    bool joins_read_set;
    bool fills_cache;
    bool serves_read_set;  // and validates the read set in its fetch
  };
  const Row rows[] = {
      {ReadMode::kValidated, true, false, true},
      {ReadMode::kCachedValidated, true, true, true},
      {ReadMode::kDirty, false, true, true},
      {ReadMode::kFresh, false, false, false},
  };
  const ObjectRef one = PlainRef(0, 4096);
  const ObjectRef two = PlainRef(0, 8192);
  const ObjectRef written = PlainRef(0, 12288);
  const ObjectRef member = PlainRef(0, 16384);
  for (const ObjectRef& ref : {one, two, written, member}) {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  net::OpTrace trace;
  net::Fabric::SetThreadTrace(&trace);
  char member_byte = 'a';
  for (const Row& row : rows) {
    SCOPED_TRACE(static_cast<int>(row.mode));
    {
      // One ref: one round, then the row's read-set and cache bookkeeping.
      ObjectCache cache;
      DynamicTxn t(coord_.get(), &cache);
      trace.Reset(kNodes);
      auto v = Bytes(t.Read(one, row.mode));
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, std::string(16, 'a'));
      EXPECT_EQ(trace.round_trips, 1u);
      EXPECT_EQ(t.InReadSet(one), row.joins_read_set);
      ObjectCache::Entry entry;
      EXPECT_EQ(cache.Lookup(one.addr, &entry), row.fills_cache);
    }

    ObjectCache cache;
    DynamicTxn t(coord_.get(), &cache);
    auto member_pin = t.Read(member, ReadMode::kValidated);
    ASSERT_TRUE(member_pin.ok());
    ASSERT_TRUE(t.WriteNew(written, std::string(16, 'w'), 1).ok());
    const std::vector<ObjectRef> batch{one, written, one, member};
    trace.Reset(kNodes);
    auto current = t.Read(batch, row.mode);
    ASSERT_TRUE(current.ok());
    EXPECT_EQ(trace.round_trips, 1u);
    EXPECT_EQ((*current)[0].data.ToString(), std::string(16, 'a'));
    // The duplicate is fetched once: both answers pin the same image.
    EXPECT_EQ((*current)[0].owner, (*current)[2].owner);
    EXPECT_EQ((*current)[1].data.ToString(), std::string(16, 'w'));
    EXPECT_EQ((*current)[3].data.ToString(), std::string(16, member_byte));
    // A read-set answer is the read set's own image; kFresh refetches it.
    EXPECT_EQ((*current)[3].owner == member_pin->owner, row.serves_read_set);
    EXPECT_EQ(t.InReadSet(one), row.joins_read_set);
    ObjectCache::Entry entry;
    EXPECT_EQ(cache.Lookup(one.addr, &entry), row.fills_cache);
    EXPECT_FALSE(cache.Lookup(written.addr, &entry));

    // Another transaction overwrites the read-set member.
    member_byte++;
    {
      DynamicTxn w(coord_.get(), nullptr);
      ASSERT_TRUE(w.Write(member, std::string(16, member_byte)).ok());
      ASSERT_TRUE(w.Commit().ok());
    }
    trace.Reset(kNodes);
    auto stale = t.Read(std::vector<ObjectRef>{two, written, two, member},
                        row.mode);
    EXPECT_EQ(trace.round_trips, 1u);
    if (row.serves_read_set) {
      // The fetch of `two` piggy-backs the compare that finds the member
      // overwritten.
      ASSERT_TRUE(stale.status().IsAborted());
      EXPECT_EQ(stale.status().abort_reason(),
                AbortReason::kValidationConflict);
      EXPECT_TRUE(t.doomed());
    } else {
      // kFresh answers the memnode's bytes over the stale read-set copy,
      // and its fetch validates nothing, so it cannot abort.
      ASSERT_TRUE(stale.ok());
      EXPECT_EQ((*stale)[3].data.ToString(), std::string(16, member_byte));
      EXPECT_EQ((*stale)[1].data.ToString(), std::string(16, 'w'));
      EXPECT_FALSE(t.doomed());
      t.MarkAborted(AbortReason::kStaleCachePointer);
    }

    // A doomed transaction answers every mode, both overloads, with its
    // tagged abort and no round.
    const AbortReason why = t.abort_reason();
    trace.Reset(kNodes);
    for (const Row& other : rows) {
      const Status point = t.Read(one, other.mode).status();
      const Status many = t.Read(batch, other.mode).status();
      EXPECT_TRUE(point.IsAborted());
      EXPECT_EQ(point.abort_reason(), why);
      EXPECT_TRUE(many.IsAborted());
      EXPECT_EQ(many.abort_reason(), why);
    }
    EXPECT_EQ(trace.round_trips, 0u);
  }
  net::Fabric::SetThreadTrace(nullptr);
}

// Write and WriteNew take bytes that already lie in the transaction arena
// (a node encoded with EncodeToArena) as they are, and copy anything else.
TEST_F(TxnTest, WriteTakesArenaBytesWithoutCopying) {
  const ObjectRef a = PlainRef(0, 4096);
  const ObjectRef b = PlainRef(0, 8192);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(b, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  DynamicTxn t(coord_.get(), nullptr);
  char* image = t.arena().Allocate(16);
  std::memset(image, 'e', 16);
  const size_t requested = t.arena().bytes_requested();
  ASSERT_TRUE(t.WriteNew(a, Slice(image, 16)).ok());
  EXPECT_EQ(t.arena().bytes_requested(), requested);
  EXPECT_EQ(t.write_set()[0].payload.data(), image);
  // A temporary std::string is copied before Write returns.
  ASSERT_TRUE(t.Write(b, std::string(16, 't')).ok());
  EXPECT_EQ(t.arena().bytes_requested(), requested + 16);
  EXPECT_TRUE(t.arena().Owns(t.write_set()[1].payload));
  ASSERT_TRUE(t.Commit().ok());

  DynamicTxn check(coord_.get(), nullptr);
  EXPECT_EQ(*Bytes(check.Read(a, ReadMode::kValidated)), std::string(16, 'e'));
  EXPECT_EQ(*Bytes(check.Read(b, ReadMode::kValidated)), std::string(16, 't'));
}

TEST_F(TxnTest, WriteUnreadObjectFetchesForValidation) {
  const ObjectRef ref = PlainRef(2, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'a')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  DynamicTxn t(coord_.get(), nullptr);
  ASSERT_TRUE(t.Write(ref, std::string(16, 'b')).ok());
  EXPECT_TRUE(t.InReadSet(ref));
  ASSERT_TRUE(t.Commit().ok());

  std::string raw;
  memnodes_[2]->RawRead(4096, 8, &raw);
  EXPECT_EQ(DecodeFixed64(raw.data()), 2u);
}

TEST_F(TxnTest, WriteNewConflictsWithConcurrentInitialization) {
  const ObjectRef ref = PlainRef(0, 1 << 20);
  DynamicTxn t1(coord_.get(), nullptr);
  ASSERT_TRUE(t1.WriteNew(ref, std::string(16, '1')).ok());

  DynamicTxn t2(coord_.get(), nullptr);
  ASSERT_TRUE(t2.WriteNew(ref, std::string(16, '2')).ok());
  ASSERT_TRUE(t2.Commit().ok());

  EXPECT_TRUE(t1.Commit().IsAborted());
}

TEST_F(TxnTest, ReplicatedDataWritesAllReplicas) {
  const ObjectRef rep = ReplicatedRef(4096, 8);
  DynamicTxn t(coord_.get(), nullptr);
  ASSERT_TRUE(t.WriteNew(rep, "12345678").ok());
  ASSERT_TRUE(t.Commit().ok());

  for (uint32_t m = 0; m < kNodes; m++) {
    std::string raw;
    memnodes_[m]->RawRead(4096, 16, &raw);
    EXPECT_EQ(DecodeFixed64(raw.data()), 1u) << "memnode " << m;
    EXPECT_EQ(raw.substr(8), "12345678") << "memnode " << m;
  }
}

TEST_F(TxnTest, ReplicatedReadValidatesAtAnyReplica) {
  const ObjectRef rep = ReplicatedRef(4096, 8);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(rep, "AAAAAAAA").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  // Reader sees the value; a concurrent replicated update then dooms it.
  DynamicTxn reader(coord_.get(), nullptr);
  auto v = Bytes(reader.Read(rep, ReadMode::kValidated));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "AAAAAAAA");
  {
    DynamicTxn w(coord_.get(), nullptr);
    ASSERT_TRUE(w.Write(rep, "BBBBBBBB").ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  // The reader's next operation fetches (a Write of an unread object pulls
  // it into the read set), and the piggy-backed validation of the stale
  // replicated read dooms the transaction right there.
  EXPECT_TRUE(reader.Write(PlainRef(1, 4096), std::string(16, 'z'))
                  .IsAborted());
  EXPECT_TRUE(reader.Commit().IsAborted());
}

TEST_F(TxnTest, ReplicatedReadPlusLeafWriteCommitsAtSingleMemnode) {
  const ObjectRef rep = ReplicatedRef(4096, 8);
  const ObjectRef leaf = PlainRef(2, 1 << 16);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(rep, "AAAAAAAA").ok());
    ASSERT_TRUE(t.WriteNew(leaf, std::string(16, 'l')).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  // The paper's fast path: read the replicated tip + write one leaf; the
  // read-validation happens at the leaf's memnode, so the whole commit is
  // one single-memnode (one-phase) minitransaction.
  net::OpTrace trace;
  trace.Reset(kNodes);
  net::Fabric::SetThreadTrace(&trace);
  DynamicTxn t(coord_.get(), nullptr);
  // Leaf first: home established. The replica read then lands on memnode 2.
  ASSERT_TRUE(t.Read(leaf, ReadMode::kValidated).ok());
  ASSERT_TRUE(t.Read(rep, ReadMode::kValidated).ok());
  ASSERT_TRUE(t.Write(leaf, std::string(16, 'm')).ok());
  ASSERT_TRUE(t.Commit().ok());
  net::Fabric::SetThreadTrace(nullptr);
  // fetch leaf (1) + fetch rep at same node (1) + one-phase commit (1).
  EXPECT_EQ(trace.messages, 3u);
  EXPECT_EQ(trace.per_node[2], 3u);
  EXPECT_EQ(trace.per_node[0] + trace.per_node[1], 0u);
}

TEST_F(TxnTest, RepSeqOffsetMirrorsSeqnumEverywhere) {
  ObjectRef ref = PlainRef(1, 1 << 16);
  ref.rep_seq_offset = 8192;
  DynamicTxn t(coord_.get(), nullptr);
  ASSERT_TRUE(t.WriteNew(ref, std::string(16, 'n')).ok());
  ASSERT_TRUE(t.Commit().ok());
  for (uint32_t m = 0; m < kNodes; m++) {
    std::string raw;
    memnodes_[m]->RawRead(8192, 8, &raw);
    EXPECT_EQ(DecodeFixed64(raw.data()), 1u) << "memnode " << m;
  }
}

TEST_F(TxnTest, RunTransactionRetriesAborted) {
  const ObjectRef ref = PlainRef(0, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.WriteNew(ref, MakeObjectImage(0, "").substr(0, 16)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  int attempts = 0;
  Status st = RunTransaction(
      coord_.get(), nullptr, {}, 8, [&](DynamicTxn& t) -> Status {
        attempts++;
        MINUET_RETURN_NOT_OK(t.Read(ref, ReadMode::kValidated).status());
        if (attempts < 3) return Status::Aborted("forced retry");
        return t.Write(ref, std::string(16, 'z'));
      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(attempts, 3);
}

TEST_F(TxnTest, RunTransactionPassesThroughNotFound) {
  int attempts = 0;
  Status st = RunTransaction(coord_.get(), nullptr, {}, 8,
                             [&](DynamicTxn&) -> Status {
                               attempts++;
                               return Status::NotFound("no key");
                             });
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(attempts, 1);
}

TEST_F(TxnTest, ConcurrentCountersSerialize) {
  const ObjectRef ref = PlainRef(0, 4096);
  {
    DynamicTxn t(coord_.get(), nullptr);
    std::string zero(8, '\0');
    ASSERT_TRUE(t.WriteNew(ref, zero).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  constexpr int kThreads = 4, kIncr = 60;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; i++) {
    ts.emplace_back([&] {
      for (int j = 0; j < kIncr; j++) {
        Status st = RunTransaction(
            coord_.get(), nullptr, {}, 10000, [&](DynamicTxn& t) -> Status {
              auto v = Bytes(t.Read(ObjectRef{ref}, ReadMode::kValidated));
              if (!v.ok()) return v.status();
              std::string next(8, '\0');
              EncodeFixed64(next.data(), DecodeFixed64(v->data()) + 1);
              return t.Write(ref, next);
            });
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& t : ts) t.join();
  DynamicTxn t(coord_.get(), nullptr);
  auto v = Bytes(t.Read(ref, ReadMode::kValidated));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(DecodeFixed64(v->data()),
            static_cast<uint64_t>(kThreads) * kIncr);
}

}  // namespace
}  // namespace minuet::txn
