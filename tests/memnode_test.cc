// Tests for a single memnode: byte space semantics, the prepare/commit/
// abort commit surface, backup images, crash & restore.
#include <gtest/gtest.h>

#include "sinfonia/memnode.h"

namespace minuet::sinfonia {
namespace {

TEST(ByteSpaceTest, UnwrittenReadsAsZero) {
  ByteSpace s;
  std::string out;
  s.Read(12345, 16, &out);
  EXPECT_EQ(out, std::string(16, '\0'));
}

TEST(ByteSpaceTest, WriteThenRead) {
  ByteSpace s;
  s.Write(100, "hello", 5);
  std::string out;
  s.Read(100, 5, &out);
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(s.Extent(), 105u);
}

TEST(ByteSpaceTest, CrossChunkWrite) {
  ByteSpace s;
  const uint64_t off = ByteSpace::kChunkBytes - 3;
  s.Write(off, "abcdef", 6);
  std::string out;
  s.Read(off, 6, &out);
  EXPECT_EQ(out, "abcdef");
}

class MemnodeTest : public ::testing::Test {
 protected:
  // One participant's whole commit: Prepare, then Commit on a yes vote.
  // Returns Prepare's status; *r carries the vote, the reads and the
  // failed compares.
  Status PrepareAndCommit(TxId tx,
                          const std::vector<MiniTxn::CompareItem>& compares,
                          const std::vector<MiniTxn::ReadItem>& reads,
                          const std::vector<MiniTxn::WriteItem>& writes,
                          MiniResult* r) {
    r->read_results.clear();
    r->failed_compares.clear();
    const Status st = node_.Prepare(tx, compares, reads, writes, false,
                                    &r->committed, &r->read_results,
                                    &r->failed_compares);
    if (st.ok() && r->committed) node_.Commit(tx, writes);
    return st;
  }

  Memnode node_{0};
};

TEST_F(MemnodeTest, PrepareCommitAppliesWritesWhenComparesMatch) {
  MiniResult r;
  // Empty compare set commits unconditionally.
  ASSERT_TRUE(PrepareAndCommit(1, {}, {}, {{Addr{0, 64}, "data"}}, &r).ok());
  EXPECT_TRUE(r.committed);

  // Compare against what we wrote: should match and apply the new write.
  MiniResult r2;
  ASSERT_TRUE(PrepareAndCommit(2, {{Addr{0, 64}, "data"}}, {},
                               {{Addr{0, 128}, "more"}}, &r2).ok());
  EXPECT_TRUE(r2.committed);

  std::string out;
  node_.RawRead(128, 4, &out);
  EXPECT_EQ(out, "more");
}

TEST_F(MemnodeTest, PrepareNoVoteAppliesNothing) {
  MiniResult r;
  ASSERT_TRUE(PrepareAndCommit(1, {{Addr{0, 64}, "expected"}}, {},
                               {{Addr{0, 128}, "neverwritten"}}, &r).ok());
  EXPECT_FALSE(r.committed);
  ASSERT_EQ(r.failed_compares.size(), 1u);
  EXPECT_EQ(r.failed_compares[0], 0u);

  std::string out;
  node_.RawRead(128, 12, &out);
  EXPECT_EQ(out, std::string(12, '\0'));
}

TEST_F(MemnodeTest, PrepareReturnsReads) {
  node_.RawWrite(64, "abcd");
  MiniResult r;
  ASSERT_TRUE(
      PrepareAndCommit(1, {}, {{Addr{0, 64}, 4}, {Addr{0, 66}, 2}}, {}, &r)
          .ok());
  ASSERT_TRUE(r.committed);
  ASSERT_EQ(r.read_results.size(), 2u);
  EXPECT_EQ(r.read_results[0], "abcd");
  EXPECT_EQ(r.read_results[1], "cd");
}

TEST_F(MemnodeTest, PrepareReadsAndCommitWritesAtomicTogether) {
  node_.RawWrite(64, "v1");
  MiniResult r;
  ASSERT_TRUE(PrepareAndCommit(1, {{Addr{0, 64}, "v1"}}, {{Addr{0, 64}, 2}},
                               {{Addr{0, 64}, "v2"}}, &r).ok());
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.read_results[0], "v1");  // reads see pre-write state
  std::string out;
  node_.RawRead(64, 2, &out);
  EXPECT_EQ(out, "v2");
}

TEST_F(MemnodeTest, PrepareHoldsLocksUntilCommit) {
  bool vote = false;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node_.Prepare(1, {}, {}, {{Addr{0, 64}, "x"}}, false, &vote,
                            &reads, &failed).ok());
  EXPECT_TRUE(vote);

  // Another transaction on the same range must see Busy.
  MiniResult r;
  EXPECT_TRUE(PrepareAndCommit(2, {}, {}, {{Addr{0, 64}, "y"}}, &r).IsBusy());

  node_.Commit(1, {{Addr{0, 64}, "x"}});
  std::string out;
  node_.RawRead(64, 1, &out);
  EXPECT_EQ(out, "x");

  // Locks released after commit.
  ASSERT_TRUE(PrepareAndCommit(3, {}, {}, {{Addr{0, 64}, "y"}}, &r).ok());
  EXPECT_TRUE(r.committed);
}

TEST_F(MemnodeTest, PrepareNoVoteReleasesLocksImmediately) {
  bool vote = true;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node_.Prepare(1, {{Addr{0, 64}, "nope"}}, {},
                            {{Addr{0, 64}, "x"}}, false, &vote, &reads,
                            &failed).ok());
  EXPECT_FALSE(vote);
  ASSERT_EQ(failed.size(), 1u);

  MiniResult r;
  EXPECT_TRUE(PrepareAndCommit(2, {}, {}, {{Addr{0, 64}, "y"}}, &r).ok());
}

TEST_F(MemnodeTest, AbortReleasesLocks) {
  bool vote = false;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node_.Prepare(1, {}, {}, {{Addr{0, 64}, "x"}}, false, &vote,
                            &reads, &failed).ok());
  node_.Abort(1);
  MiniResult r;
  EXPECT_TRUE(PrepareAndCommit(2, {}, {}, {{Addr{0, 64}, "y"}}, &r).ok());
  std::string out;
  node_.RawRead(64, 1, &out);
  EXPECT_EQ(out, "y");  // the aborted write never applied
}

// The lock unit is the node size and reads lock shared: a one-node read
// plus its seqnum compare takes one stripe, not one per 64-byte slot.
TEST_F(MemnodeTest, OneNodeReadWithSeqnumCompareTakesOneStripe) {
  constexpr uint64_t kNode = 8 * 4096;  // node-aligned, as slabs are
  const uint64_t before = node_.lock_table().TotalStats().acquires;
  MiniResult r;
  ASSERT_TRUE(PrepareAndCommit(1, {{Addr{0, kNode}, std::string(8, '\0')}},
                               {{Addr{0, kNode}, 4096}}, {}, &r)
                  .ok());
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(node_.lock_table().TotalStats().acquires - before, 1u);
}

TEST_F(MemnodeTest, ReadOnlyPreparesOnOneNodeShareItsLock) {
  constexpr uint64_t kNode = 8 * 4096;
  const std::vector<MiniTxn::CompareItem> compares = {
      {Addr{0, kNode}, std::string(8, '\0')}};
  const std::vector<MiniTxn::ReadItem> reads = {{Addr{0, kNode}, 4096}};
  bool vote1 = false, vote2 = false;
  std::vector<std::string> reads1, reads2;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node_.Prepare(1, compares, reads, {}, false, &vote1, &reads1,
                            &failed).ok());
  // Tx 1 still holds its locks; tx 2 reads the same node alongside it.
  ASSERT_TRUE(node_.Prepare(2, compares, reads, {}, false, &vote2, &reads2,
                            &failed).ok());
  EXPECT_TRUE(vote1);
  EXPECT_TRUE(vote2);
  // A writer of that node conflicts with both readers.
  MiniResult r;
  EXPECT_TRUE(
      PrepareAndCommit(3, {}, {}, {{Addr{0, kNode + 8}, "w"}}, &r).IsBusy());
  node_.Commit(1, {});
  node_.Commit(2, {});
  EXPECT_TRUE(
      PrepareAndCommit(3, {}, {}, {{Addr{0, kNode + 8}, "w"}}, &r).ok());
  EXPECT_TRUE(r.committed);
}

TEST(MemnodeBackupTest, BackupImageAndRestore) {
  Memnode primary(0), backup(1);
  primary.RawWrite(64, "payload");
  backup.ApplyBackupWrites(0, {{Addr{0, 64}, "payload"}});

  primary.LoseState();
  std::string out;
  primary.RawRead(64, 7, &out);
  EXPECT_EQ(out, std::string(7, '\0'));

  primary.RestoreFrom(backup);
  primary.RawRead(64, 7, &out);
  EXPECT_EQ(out, "payload");
}

TEST(MemnodeBackupTest, RestoreWithoutImageIsNoop) {
  Memnode primary(0), backup(1);
  primary.RestoreFrom(backup);  // no image registered: must not crash
  std::string out;
  primary.RawRead(0, 4, &out);
  EXPECT_EQ(out, std::string(4, '\0'));
}

}  // namespace
}  // namespace minuet::sinfonia
