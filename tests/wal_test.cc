// WAL and durable-store unit tests: record framing round-trips, the
// changed-range diff a record carries, torn-tail truncation at every byte
// offset, CRC bit-flip fuzzing (the reader never crashes and never returns
// a corrupt record), group-commit batching, and the SlabStore / Superblock
// / CheckpointedStore building blocks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "store/checkpointed_store.h"
#include "store/slab_store.h"
#include "store/superblock.h"
#include "test_seed.h"
#include "wal/wal.h"

namespace minuet {
namespace {

namespace fs = std::filesystem;

// Fresh directory under the system temp root; removed by the fixture.
std::string MakeTempDir(const char* tag) {
  static std::atomic<int> counter{0};
  fs::path p = fs::temp_directory_path() /
               ("minuet-test-" + std::string(tag) + "-" +
                std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)));
  fs::create_directories(p);
  return p.string();
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("wal"); }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

std::vector<wal::WalWrite> MakeWrites(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<wal::WalWrite> writes;
  for (int i = 0; i < n; i++) {
    wal::WalWrite w;
    w.offset = rng.Uniform(1 << 20);
    w.data.assign(1 + rng.Uniform(24), static_cast<char>('a' + i % 26));
    writes.push_back(std::move(w));
  }
  return writes;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(WalTest, RecordRoundTrip) {
  std::string buf;
  std::vector<wal::WalRecord> originals;
  for (uint64_t lsn = 1; lsn <= 8; lsn++) {
    wal::WalRecord rec;
    rec.lsn = lsn;
    rec.writes = MakeWrites(lsn, static_cast<int>(lsn % 5));  // incl. empty
    wal::EncodeRecord(rec, &buf);
    originals.push_back(std::move(rec));
  }
  const std::string path = dir_ + "/roundtrip.bin";
  WriteFileBytes(path, buf);

  wal::WalReader reader(std::vector<std::string>{path});
  wal::WalRecord rec;
  size_t i = 0;
  while (reader.Next(&rec)) {
    ASSERT_LT(i, originals.size());
    EXPECT_EQ(rec.lsn, originals[i].lsn);
    ASSERT_EQ(rec.writes.size(), originals[i].writes.size());
    for (size_t w = 0; w < rec.writes.size(); w++) {
      EXPECT_EQ(rec.writes[w].offset, originals[i].writes[w].offset);
      EXPECT_EQ(rec.writes[w].data, originals[i].writes[w].data);
    }
    i++;
  }
  EXPECT_EQ(i, originals.size());
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
}

// ---------------------------------------------------------------------------
// Changed-range redo: AppendChangedRanges

// `pre` (the bytes at `offset`) with `writes` laid over it, as replay does.
std::string ReplayOver(uint64_t offset, std::string pre,
                       const std::vector<wal::WalWrite>& writes) {
  for (const wal::WalWrite& w : writes) {
    pre.replace(w.offset - offset, w.data.size(), w.data);
  }
  return pre;
}

TEST(WalDiffTest, EqualImagesAppendNothing) {
  const std::string image(4096, 'x');
  std::vector<wal::WalWrite> writes;
  wal::AppendChangedRanges(100, image, image, &writes);
  EXPECT_TRUE(writes.empty());
  wal::AppendChangedRanges(100, "", "", &writes);
  EXPECT_TRUE(writes.empty());
}

TEST(WalDiffTest, ChangeAtFirstAndLastByte) {
  const std::string pre(64, 'a');
  std::string first = pre;
  first.front() = 'b';
  std::string last = pre;
  last.back() = 'c';
  std::string both = first;
  both.back() = 'c';

  std::vector<wal::WalWrite> writes;
  wal::AppendChangedRanges(1000, pre, first, &writes);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].offset, 1000u);
  EXPECT_EQ(writes[0].data, "b");

  writes.clear();
  wal::AppendChangedRanges(1000, pre, last, &writes);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].offset, 1063u);
  EXPECT_EQ(writes[0].data, "c");

  // A 62-byte gap costs more than a second header: two writes.
  writes.clear();
  wal::AppendChangedRanges(1000, pre, both, &writes);
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].offset, 1000u);
  EXPECT_EQ(writes[0].data, "b");
  EXPECT_EQ(writes[1].offset, 1063u);
  EXPECT_EQ(writes[1].data, "c");
}

TEST(WalDiffTest, RunsMergeOnlyAcrossGapsShorterThanAHeader) {
  static_assert(wal::kWriteHeaderBytes == 12, "the gaps below assume it");
  const std::string pre(128, '\0');
  // Two one-byte changes at 10 and 11 + gap.
  auto diff_with_gap = [&pre](size_t gap) {
    std::string post = pre;
    post[10] = 'x';
    post[11 + gap] = 'y';
    std::vector<wal::WalWrite> writes;
    wal::AppendChangedRanges(0, pre, post, &writes);
    EXPECT_EQ(ReplayOver(0, pre, writes), post) << "gap " << gap;
    return writes;
  };

  const auto merged = diff_with_gap(11);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].offset, 10u);
  EXPECT_EQ(merged[0].data, "x" + std::string(11, '\0') + "y");

  // A gap of exactly one header costs the same either way: not merged.
  EXPECT_EQ(diff_with_gap(12).size(), 2u);

  const auto split = diff_with_gap(13);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].offset, 10u);
  EXPECT_EQ(split[0].data, "x");
  EXPECT_EQ(split[1].offset, 24u);
  EXPECT_EQ(split[1].data, "y");
}

// Random pre/post pairs: replaying the ranges over the pre-image yields the
// post-image byte for byte, and the ranges are ordered, disjoint, begin and
// end on a changed byte, and sit at least one header apart.
TEST(WalDiffTest, ReplayOverPreImageYieldsPostImage) {
  Rng rng(testing::SuiteSeed("ReplayOverPreImageYieldsPostImage", 0xD1FF));
  for (int iter = 0; iter < 3000; iter++) {
    const size_t n = rng.Uniform(300);
    std::string pre(n, '\0');
    for (char& c : pre) c = static_cast<char>('a' + rng.Uniform(3));
    std::string post = pre;
    const uint64_t edits = n == 0 ? 0 : rng.Uniform(8);
    for (uint64_t e = 0; e < edits; e++) {
      // A run of random bytes from a small alphabet: some "edits" rewrite
      // a byte to the value it already had.
      const size_t at = rng.Uniform(n);
      const size_t len = std::min<size_t>(n - at, 1 + rng.Uniform(20));
      for (size_t k = at; k < at + len; k++) {
        post[k] = static_cast<char>('a' + rng.Uniform(3));
      }
    }
    const uint64_t offset = rng.Uniform(1 << 20);
    std::vector<wal::WalWrite> writes;
    wal::AppendChangedRanges(offset, pre, post, &writes);
    ASSERT_EQ(ReplayOver(offset, pre, writes), post) << "iter " << iter;
    if (pre == post) {
      EXPECT_TRUE(writes.empty());
    }
    uint64_t prev_end = 0;
    for (size_t i = 0; i < writes.size(); i++) {
      const wal::WalWrite& w = writes[i];
      ASSERT_FALSE(w.data.empty());
      ASSERT_GE(w.offset, offset);
      const size_t begin = w.offset - offset;
      const size_t end = begin + w.data.size();
      ASSERT_LE(end, n);
      EXPECT_NE(pre[begin], post[begin]) << "iter " << iter;
      EXPECT_NE(pre[end - 1], post[end - 1]) << "iter " << iter;
      if (i > 0) {
        ASSERT_GE(begin, prev_end) << "iter " << iter;
        EXPECT_GE(begin - prev_end, wal::kWriteHeaderBytes) << "iter " << iter;
      }
      prev_end = end;
    }
  }
}

TEST_F(WalTest, AppendAssignsMonotonicLsnsAndReopenContinues) {
  wal::Wal w(dir_);
  ASSERT_TRUE(w.Open().ok());
  for (uint64_t i = 1; i <= 20; i++) {
    auto lsn = w.Append(MakeWrites(i, 2));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, i);
  }
  ASSERT_TRUE(w.Sync(20).ok());
  EXPECT_EQ(w.CurrentLsn(), 20u);
  EXPECT_EQ(w.SyncedLsn(), 20u);
  w.Close();

  // A new Wal over the same directory resumes after the highest LSN.
  wal::Wal reopened(dir_);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.CurrentLsn(), 20u);
  auto lsn = reopened.Append(MakeWrites(99, 1));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 21u);

  wal::WalReader reader(dir_);
  wal::WalRecord rec;
  uint64_t expect = 1;
  while (reader.Next(&rec)) EXPECT_EQ(rec.lsn, expect++);
  EXPECT_EQ(expect, 22u);
  EXPECT_TRUE(reader.status().ok());
}

// The acceptance matrix's torn-tail case: cut the segment at EVERY byte
// offset spanning the final record. The reader must return exactly the
// records whose frames are complete, then stop — OK at a clean boundary,
// Corruption anywhere inside a frame. It must never crash and never return
// a record that differs from what was written.
TEST_F(WalTest, TornTailTruncationAtEveryByteOffset) {
  constexpr int kRecords = 6;
  std::vector<std::vector<wal::WalWrite>> writes;
  std::vector<size_t> frame_end;  // cumulative byte offset after record i
  {
    wal::Wal w(dir_);
    ASSERT_TRUE(w.Open().ok());
    std::string shadow;
    for (int i = 0; i < kRecords; i++) {
      writes.push_back(MakeWrites(1000 + i, 3));
      auto lsn = w.Append(writes.back());
      ASSERT_TRUE(lsn.ok());
      wal::EncodeRecord(*lsn, writes.back(), &shadow);
      frame_end.push_back(shadow.size());
    }
    ASSERT_TRUE(w.Sync(kRecords).ok());
    w.Close();
  }
  const auto segments = wal::ListSegmentFiles(dir_);
  ASSERT_EQ(segments.size(), 1u);
  const std::string full = ReadFileBytes(segments[0]);
  ASSERT_EQ(full.size(), frame_end.back());

  const size_t last_start = frame_end[kRecords - 2];
  const std::string cut_path = dir_ + "/cut.bin";
  for (size_t cut = last_start; cut <= full.size(); cut++) {
    WriteFileBytes(cut_path, full.substr(0, cut));
    wal::WalReader reader(std::vector<std::string>{cut_path});
    wal::WalRecord rec;
    uint64_t expect = 1;
    while (reader.Next(&rec)) {
      ASSERT_EQ(rec.lsn, expect) << "cut=" << cut;
      const auto& orig = writes[expect - 1];
      ASSERT_EQ(rec.writes.size(), orig.size());
      for (size_t k = 0; k < orig.size(); k++) {
        ASSERT_EQ(rec.writes[k].offset, orig[k].offset);
        ASSERT_EQ(rec.writes[k].data, orig[k].data);
      }
      expect++;
    }
    const uint64_t whole = cut == full.size()
                               ? static_cast<uint64_t>(kRecords)
                               : static_cast<uint64_t>(kRecords) - 1;
    EXPECT_EQ(expect - 1, whole) << "cut=" << cut;
    if (cut == last_start || cut == full.size()) {
      EXPECT_TRUE(reader.status().ok()) << "cut=" << cut;
    } else {
      EXPECT_TRUE(reader.status().IsCorruption()) << "cut=" << cut;
    }
  }
}

// Single-bit flips at every byte of the segment. CRC-32 catches every
// single-bit error, so the reader must yield exactly the records BEFORE the
// flipped byte's frame, each byte-identical to the original — corruption
// never crashes the reader and never surfaces as a mangled record.
TEST_F(WalTest, BitFlipFuzzNeverReturnsCorruptRecord) {
  constexpr int kRecords = 5;
  std::vector<std::vector<wal::WalWrite>> writes;
  std::vector<size_t> frame_end;
  std::string full;
  for (int i = 0; i < kRecords; i++) {
    writes.push_back(MakeWrites(2000 + i, 2));
    wal::EncodeRecord(static_cast<uint64_t>(i + 1), writes.back(), &full);
    frame_end.push_back(full.size());
  }

  const std::string path = dir_ + "/fuzz.bin";
  for (size_t byte = 0; byte < full.size(); byte++) {
    std::string corrupted = full;
    corrupted[byte] =
        static_cast<char>(corrupted[byte] ^ (1 << (byte % 8)));
    WriteFileBytes(path, corrupted);

    size_t flipped_record = 0;
    while (frame_end[flipped_record] <= byte) flipped_record++;

    wal::WalReader reader(std::vector<std::string>{path});
    wal::WalRecord rec;
    uint64_t expect = 1;
    while (reader.Next(&rec)) {
      ASSERT_EQ(rec.lsn, expect) << "byte=" << byte;
      const auto& orig = writes[expect - 1];
      ASSERT_EQ(rec.writes.size(), orig.size()) << "byte=" << byte;
      for (size_t k = 0; k < orig.size(); k++) {
        ASSERT_EQ(rec.writes[k].offset, orig[k].offset);
        ASSERT_EQ(rec.writes[k].data, orig[k].data);
      }
      expect++;
    }
    EXPECT_EQ(expect - 1, static_cast<uint64_t>(flipped_record))
        << "byte=" << byte;
    EXPECT_TRUE(reader.status().IsCorruption()) << "byte=" << byte;
  }
}

TEST_F(WalTest, GroupCommitOneFsyncCoversManyAppends) {
  wal::Wal w(dir_);
  ASSERT_TRUE(w.Open().ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(w.Append(MakeWrites(i, 1)).ok());
  }
  EXPECT_EQ(w.metrics().fsyncs.Value(), 0u);
  ASSERT_TRUE(w.Sync(100).ok());
  // One batch: a single fsync made all 100 appends durable.
  EXPECT_EQ(w.metrics().fsyncs.Value(), 1u);
  EXPECT_EQ(w.SyncedLsn(), 100u);
}

TEST_F(WalTest, GroupCommitConcurrentSyncersShareBatches) {
  wal::Wal w(dir_);
  ASSERT_TRUE(w.Open().ok());
  // A slow fsync slot widens the batching window: while the leader is in
  // the hook, other threads append and ride the next batch.
  w.SetSyncHookForTest(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        auto lsn = w.Append(MakeWrites(t * 1000 + i, 1));
        if (!lsn.ok() || !w.Sync(*lsn).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(w.SyncedLsn(), static_cast<uint64_t>(kThreads * kPerThread));
  // Batching must have occurred: strictly fewer fsyncs than sync'd appends
  // (with the 1ms hook, one-fsync-per-append would take 100ms of serialized
  // hooks while every waiter is eligible to ride along).
  EXPECT_LT(w.metrics().fsyncs.Value(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(w.metrics().fsyncs.Value(), 1u);
}

TEST_F(WalTest, CrashLoseVolatileDropsUnsyncedTailOnly) {
  wal::Wal w(dir_);
  ASSERT_TRUE(w.Open().ok());
  for (int i = 0; i < 10; i++) ASSERT_TRUE(w.Append(MakeWrites(i, 1)).ok());
  ASSERT_TRUE(w.Sync(6).ok());  // batch covers everything appended: all 10
  for (int i = 10; i < 15; i++) {
    ASSERT_TRUE(w.Append(MakeWrites(i, 1)).ok());
  }
  EXPECT_EQ(w.CurrentLsn(), 15u);
  w.CrashLoseVolatile();
  // The fsync snapshotted all 10 appends; the 5 after it are page-cache
  // bytes and die with the crash.
  EXPECT_EQ(w.CurrentLsn(), 10u);
  w.Close();

  wal::WalReader reader(dir_);
  wal::WalRecord rec;
  uint64_t last = 0, count = 0;
  while (reader.Next(&rec)) {
    last = rec.lsn;
    count++;
  }
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(last, 10u);
}

TEST_F(WalTest, TruncateToDeletesCoveredSegmentsAndContinues) {
  wal::Wal w(dir_);
  ASSERT_TRUE(w.Open().ok());
  for (int i = 0; i < 8; i++) ASSERT_TRUE(w.Append(MakeWrites(i, 1)).ok());
  ASSERT_TRUE(w.Sync(8).ok());
  ASSERT_TRUE(w.TruncateTo(8).ok());
  EXPECT_GE(w.metrics().truncations.Value(), 1u);

  // Everything at or below LSN 8 is gone; appends continue past it.
  auto lsn = w.Append(MakeWrites(77, 1));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 9u);
  ASSERT_TRUE(w.Sync(9).ok());
  w.Close();

  wal::WalReader reader(dir_);
  wal::WalRecord rec;
  uint64_t count = 0, first = 0;
  while (reader.Next(&rec)) {
    if (count == 0) first = rec.lsn;
    count++;
  }
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(first, 9u);
}

// ---------------------------------------------------------------------------
// SlabStore

TEST_F(WalTest, RamAndFileSlabStoresAgree) {
  store::RamSlabStore ram;
  store::FileSlabStore file(dir_ + "/parity.img");
  ASSERT_TRUE(file.Open().ok());

  Rng rng(42);
  for (int i = 0; i < 500; i++) {
    const uint64_t off = rng.Uniform(1 << 18);
    std::string data(1 + rng.Uniform(200), static_cast<char>(rng.Next()));
    ram.Write(off, data.data(), static_cast<uint32_t>(data.size()));
    file.Write(off, data.data(), static_cast<uint32_t>(data.size()));
  }
  EXPECT_EQ(ram.Extent(), file.Extent());
  for (int i = 0; i < 500; i++) {
    const uint64_t off = rng.Uniform(1 << 18);
    const uint32_t len = 1 + rng.Uniform(300);
    std::string a, b;
    ram.Read(off, len, &a);
    file.Read(off, len, &b);
    ASSERT_EQ(a, b) << "off=" << off << " len=" << len;
  }
  // Reads past the extent zero-fill on both.
  std::string a, b;
  ram.Read(ram.Extent() + 4096, 64, &a);
  file.Read(file.Extent() + 4096, 64, &b);
  EXPECT_EQ(a, std::string(64, '\0'));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(file.status().ok());

  file.Reset();
  ram.Reset();
  EXPECT_EQ(file.Extent(), 0u);
  EXPECT_EQ(ram.Extent(), 0u);
  file.Close();
}

// ---------------------------------------------------------------------------
// Superblock

TEST_F(WalTest, SuperblockFlipAlternatesSlotsAndSurvivesTornWrite) {
  const std::string path = dir_ + "/superblock";
  store::Superblock sb(path);

  store::SuperblockState state;
  ASSERT_TRUE(sb.Load(&state).ok());
  EXPECT_EQ(state.generation, 0u);  // absent file: pristine default

  state.generation = 1;
  state.checkpoint_lsn = 10;
  state.extent = 1 << 16;
  state.image_slot = 0;
  ASSERT_TRUE(sb.Flip(state).ok());
  state.generation = 2;
  state.checkpoint_lsn = 25;
  state.image_slot = 1;
  ASSERT_TRUE(sb.Flip(state).ok());

  store::SuperblockState loaded;
  ASSERT_TRUE(sb.Load(&loaded).ok());
  EXPECT_EQ(loaded.generation, 2u);
  EXPECT_EQ(loaded.checkpoint_lsn, 25u);
  EXPECT_EQ(loaded.image_slot, 1u);

  // Tear the generation-2 slot (generation % 2 == 0 lives at offset 0):
  // load falls back to the intact generation-1 slot instead of failing.
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 512u);
  bytes[16] = static_cast<char>(bytes[16] ^ 0xFF);
  WriteFileBytes(path, bytes);
  ASSERT_TRUE(sb.Load(&loaded).ok());
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.checkpoint_lsn, 10u);
  EXPECT_EQ(loaded.image_slot, 0u);
}

// ---------------------------------------------------------------------------
// CheckpointedStore

TEST_F(WalTest, CheckpointedStoreRoundTripsImagePlusRedo) {
  store::CheckpointedStore ds(dir_ + "/bundle");
  ASSERT_TRUE(ds.Open().ok());

  // Build the "live" space and mirror every write into the WAL, as the
  // commit path does.
  store::RamSlabStore space;
  auto apply = [&](uint64_t seed, int n) {
    auto writes = MakeWrites(seed, n);
    for (const auto& wr : writes) {
      space.Write(wr.offset, wr.data.data(),
                  static_cast<uint32_t>(wr.data.size()));
    }
    auto lsn = ds.wal().Append(writes);
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(ds.wal().Sync(*lsn).ok());
  };
  for (int i = 0; i < 10; i++) apply(3000 + i, 3);

  // Fuzzy checkpoint: capture L, dump the space, flip, truncate.
  const uint64_t ckpt_lsn = ds.wal().CurrentLsn();
  ASSERT_TRUE(ds.TryBeginCheckpoint());
  ASSERT_TRUE(ds.StageCheckpoint(ckpt_lsn, space.Extent()).ok());
  std::string block;
  for (uint64_t off = 0; off < space.Extent(); off += 64 * 1024) {
    space.Read(off, 64 * 1024, &block);
    ASSERT_TRUE(ds.WriteImageBlock(off, block).ok());
  }
  ASSERT_TRUE(ds.SealImageAndFlipRoot().ok());
  ASSERT_TRUE(ds.TruncateWal().ok());
  ds.EndCheckpoint();
  EXPECT_EQ(ds.LastCheckpointLsn(), ckpt_lsn);
  EXPECT_EQ(ds.metrics().checkpoints.Value(), 1u);

  // Post-checkpoint traffic lives only in the WAL.
  for (int i = 0; i < 5; i++) apply(4000 + i, 2);

  // Recover into a fresh space: image + redo == the live space.
  store::RamSlabStore recovered;
  store::CheckpointedStore::RecoveryInfo info;
  ASSERT_TRUE(ds.RecoverInto(&recovered, &info).ok());
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.lsn, ds.wal().CurrentLsn());
  EXPECT_EQ(info.replayed, 5u);

  ASSERT_EQ(recovered.Extent(), space.Extent());
  std::string a, b;
  for (uint64_t off = 0; off < space.Extent(); off += 64 * 1024) {
    space.Read(off, 64 * 1024, &a);
    recovered.Read(off, 64 * 1024, &b);
    ASSERT_EQ(a, b) << "off=" << off;
  }

  // Appends continue past the recovered LSN on a fresh segment.
  auto lsn = ds.wal().Append(MakeWrites(5000, 1));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, info.lsn + 1);

  // DiscardDurableState wipes everything: the next recovery has nothing.
  ASSERT_TRUE(ds.DiscardDurableState().ok());
  store::RamSlabStore empty;
  store::CheckpointedStore::RecoveryInfo info2;
  ASSERT_TRUE(ds.RecoverInto(&empty, &info2).ok());
  EXPECT_FALSE(info2.from_checkpoint);
  EXPECT_EQ(info2.lsn, 0u);
  EXPECT_EQ(empty.Extent(), 0u);
  ds.Close();
}

}  // namespace
}  // namespace minuet
