// Tests for the memnode lock table: try-lock semantics, re-entrancy,
// rollback on partial failure, blocking acquisition with timeout, shared
// and exclusive modes, and the whole-call wait deadline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "sinfonia/lock_table.h"

namespace minuet::sinfonia {
namespace {

using Range = LockTable::Range;
using std::chrono::microseconds;
constexpr LockTable::Mode kShared = LockTable::Mode::kShared;
constexpr LockTable::Mode kExclusive = LockTable::Mode::kExclusive;

TEST(LockTableTest, LockThenUnlock) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  EXPECT_TRUE(lt.IsLocked({0, 64}));
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
}

TEST(LockTableTest, ConflictReturnsBusy) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  EXPECT_TRUE(lt.Lock(2, {{0, 64}}).IsBusy());
  lt.Unlock(1);
  EXPECT_TRUE(lt.Lock(2, {{0, 64}}).ok());
  lt.Unlock(2);
}

TEST(LockTableTest, DisjointRangesDoNotConflict) {
  // Widely separated offsets map to distinct stripes with high probability;
  // use several to make a collision essentially impossible.
  LockTable lt(4096, 64);
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  int ok = 0;
  for (uint64_t off : {1 << 16, 1 << 18, 1 << 20, 1 << 22}) {
    if (lt.Lock(2, {{static_cast<uint64_t>(off), 64}}).ok()) ok++;
  }
  EXPECT_GE(ok, 3);
  lt.Unlock(1);
  lt.Unlock(2);
}

TEST(LockTableTest, ReentrantWithinSameTx) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());  // same stripe, same tx
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
}

TEST(LockTableTest, PartialFailureRollsBack) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{1 << 20, 64}}).ok());
  // Tx 2 wants a free range AND the held range: the whole call must fail
  // and release anything it took.
  ASSERT_TRUE(lt.Lock(2, {{0, 64}, {1 << 20, 64}}).IsBusy());
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  lt.Unlock(1);
}

TEST(LockTableTest, MultiRangeLockAndUnlock) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}, {1 << 16, 128}, {1 << 20, 4096}}).ok());
  EXPECT_TRUE(lt.IsLocked({1 << 16, 1}));
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  EXPECT_FALSE(lt.IsLocked({1 << 16, 1}));
  EXPECT_FALSE(lt.IsLocked({1 << 20, 1}));
}

TEST(LockTableTest, ZeroLengthRangeIsNoop) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 0}}).ok());
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  lt.Unlock(1);
}

TEST(LockTableTest, RangeSpanningGranularityLocksAllStripes) {
  LockTable lt(4096, 64);
  // A 256-byte range covers 4 slots; a conflicting lock on any of them
  // must fail.
  ASSERT_TRUE(lt.Lock(1, {{0, 256}}).ok());
  EXPECT_TRUE(lt.Lock(2, {{128, 8}}).IsBusy());
  lt.Unlock(1);
  EXPECT_TRUE(lt.Lock(2, {{128, 8}}).ok());
  lt.Unlock(2);
}

TEST(LockTableTest, BlockingWaitTimesOut) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  const auto start = std::chrono::steady_clock::now();
  Status st = lt.Lock(2, {{0, 64}}, microseconds(20000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(st.IsTimedOut());
  EXPECT_GE(elapsed, std::chrono::microseconds(15000));
  lt.Unlock(1);
}

TEST(LockTableTest, BlockingWaitSucceedsWhenReleased) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    lt.Unlock(1);
  });
  Status st = lt.Lock(2, {{0, 64}}, microseconds(500000));
  releaser.join();
  EXPECT_TRUE(st.ok());
  lt.Unlock(2);
}

TEST(LockTableTest, ConcurrentDisjointThroughput) {
  LockTable lt;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        const TxId tx = t * 1000 + i + 1;
        // Every thread uses its own offset region.
        const uint64_t off = (static_cast<uint64_t>(t) << 24) + i * 4096;
        if (!lt.Lock(tx, {{off, 64}},
                     std::chrono::microseconds(100000)).ok()) {
          failures++;
        }
        lt.Unlock(tx);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(LockTableTest, SharedHoldsCoexist) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64, kShared}}).ok());
  ASSERT_TRUE(lt.Lock(2, {{0, 64, kShared}}).ok());
  EXPECT_TRUE(lt.IsLocked({0, 64}));
  lt.Unlock(1);
  EXPECT_TRUE(lt.IsLocked({0, 64}));  // tx 2 still reads
  lt.Unlock(2);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
}

TEST(LockTableTest, SharedAndExclusiveConflictBothWays) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64, kShared}}).ok());
  EXPECT_TRUE(lt.Lock(2, {{0, 64, kExclusive}}).IsBusy());
  lt.Unlock(1);

  ASSERT_TRUE(lt.Lock(1, {{0, 64, kExclusive}}).ok());
  EXPECT_TRUE(lt.Lock(2, {{0, 64, kShared}}).IsBusy());
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
}

TEST(LockTableTest, MixedModesOnOneStripeTakeItExclusive) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 8, kShared}, {8, 8, kExclusive}}).ok());
  EXPECT_TRUE(lt.Lock(2, {{0, 8, kShared}}).IsBusy());
  // The reverse order within a call merges the same way.
  ASSERT_TRUE(lt.Lock(3, {{1 << 20, 8, kExclusive}, {1 << 20, 8, kShared}})
                  .ok());
  EXPECT_TRUE(lt.Lock(2, {{1 << 20, 8, kShared}}).IsBusy());
  lt.Unlock(1);
  lt.Unlock(3);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  EXPECT_FALSE(lt.IsLocked({1 << 20, 64}));
}

TEST(LockTableTest, PartialFailureRollsBackSharedHolds) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{1 << 20, 64, kExclusive}}).ok());
  ASSERT_TRUE(
      lt.Lock(2, {{0, 64, kShared}, {1 << 20, 64, kShared}}).IsBusy());
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  // Nothing of tx 2 lingers: an exclusive lock of the range goes through.
  ASSERT_TRUE(lt.Lock(3, {{0, 64, kExclusive}}).ok());
  lt.Unlock(1);
  lt.Unlock(3);
}

TEST(LockTableTest, UnlockReleasesSharedHolds) {
  LockTable lt;
  ASSERT_TRUE(
      lt.Lock(1, {{0, 64, kShared}, {1 << 16, 128, kShared}}).ok());
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  EXPECT_FALSE(lt.IsLocked({1 << 16, 128}));
  ASSERT_TRUE(lt.Lock(2, {{0, 64}, {1 << 16, 128}}).ok());
  lt.Unlock(2);
}

TEST(LockTableTest, BlockingWriterIsNotStarvedBySharedTryLockers) {
  LockTable lt;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> shared_ok{0};
  std::vector<std::thread> readers;
  for (TxId base : {1000000ull, 2000000ull}) {
    readers.emplace_back([&, base] {
      // Hand over hand: take the next shared hold before dropping the
      // last, so the stripe drains only when a new hold is refused.
      TxId held = 0;
      for (TxId tx = base; !stop.load(); tx++) {
        const bool ok = lt.Lock(tx, {{0, 64, kShared}}).ok();
        if (held != 0) lt.Unlock(held);
        held = ok ? tx : 0;
        if (ok) shared_ok++;
      }
      if (held != 0) lt.Unlock(held);
    });
  }
  // Let the readers overlap their holds before the writer arrives.
  while (shared_ok.load() < 1000) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  const Status st = lt.Lock(1, {{0, 64, kExclusive}}, microseconds(200000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::microseconds(200000));
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
}

// `max_wait` bounds the whole call. Two held stripes are released at 15 and
// 30 ms; a 20-ms call must time out whichever of them it waits on first
// (with a per-stripe allowance, the order releasing the earlier-sorted
// stripe first would succeed at about 30 ms).
TEST(LockTableTest, BlockingWaitIsOneDeadlineForTheWholeCall) {
  using std::chrono::milliseconds;
  const uint64_t a = 0, b = 1 << 20;
  for (const bool release_a_first : {true, false}) {
    LockTable lt;
    ASSERT_TRUE(lt.Lock(1, {{a, 64}}).ok());
    ASSERT_FALSE(lt.IsLocked({b, 64})) << "offsets share a stripe";
    ASSERT_TRUE(lt.Lock(2, {{b, 64}}).ok());
    std::thread releaser([&] {
      std::this_thread::sleep_for(milliseconds(15));
      lt.Unlock(release_a_first ? 1 : 2);
      std::this_thread::sleep_for(milliseconds(15));
      lt.Unlock(release_a_first ? 2 : 1);
    });
    const auto start = std::chrono::steady_clock::now();
    const Status st = lt.Lock(3, {{a, 64}, {b, 64}}, microseconds(20000));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    releaser.join();
    EXPECT_TRUE(st.IsTimedOut())
        << "release_a_first=" << release_a_first << " " << st.ToString();
    EXPECT_LT(elapsed, milliseconds(29))
        << "release_a_first=" << release_a_first;
    EXPECT_FALSE(lt.IsLocked({a, 64}));
    EXPECT_FALSE(lt.IsLocked({b, 64}));
  }
}

}  // namespace
}  // namespace minuet::sinfonia
