// Crash-point recovery matrix: a memnode dies at every interesting instant
// of the commit and checkpoint protocols, and recovery must rebuild an
// image that is correct, identical to the surviving peer's backup, and
// served identically afterwards — from the local log when it is current,
// from the peer when it is not. Ends with the full-cluster cold restart:
// every in-memory image destroyed, the cluster reconstructed from
// checkpoints + WAL alone.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/key_codec.h"
#include "minuet/cluster.h"
#include "minuet/write_batch.h"
#include "sinfonia/addr.h"
#include "sinfonia/coordinator.h"
#include "sinfonia/memnode.h"
#include "sinfonia/minitxn.h"
#include "store/checkpointed_store.h"
#include "store/slab_store.h"
#include "wal/wal.h"

namespace minuet {
namespace {

using sinfonia::CrashPoint;

ClusterOptions DurableOpts(wal::DurabilityMode mode) {
  ClusterOptions o;
  o.machines = 4;
  o.node_size = 1024;
  o.replication = true;
  o.durability = mode;
  return o;
}

void Preload(Cluster& cluster, const TreeHandle& tree, int n) {
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(tree, EncodeUserKey(i), EncodeValue(i))
                    .ok())
        << i;
  }
}

void VerifyKeys(Cluster& cluster, const TreeHandle& tree, int n,
                uint32_t proxy) {
  std::string value;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(cluster.proxy(proxy).Get(tree, EncodeUserKey(i), &value).ok())
        << "key " << i << " via proxy " << proxy;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

// The recovered primary must be byte-identical to the backup image the
// surviving peer hosts for it (local recovery re-seeds the peer from the
// rebuilt image, so any divergence between log replay and the ring shows
// up here).
void ExpectImageMatchesPeerBackup(Cluster& cluster, uint32_t victim) {
  sinfonia::Coordinator* coord = cluster.coordinator();
  const uint32_t backup = coord->BackupOf(victim);
  ASSERT_NE(backup, victim);
  std::string image;
  ASSERT_TRUE(coord->memnode(backup)->CopyBackupImage(victim, &image));
  EXPECT_EQ(image.size(), coord->memnode(victim)->Extent());
  constexpr uint32_t kChunk = 1 << 20;
  std::string primary;
  for (uint64_t off = 0; off < image.size(); off += kChunk) {
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(kChunk, image.size() - off));
    coord->memnode(victim)->RawRead(off, n, &primary);
    ASSERT_EQ(primary, image.substr(off, n)) << "offset " << off;
  }
}

// One raw single-memnode write at a known offset: the minimal commit the
// durability path sees, with no cross-node write set to tear. With a
// `peer`, the write rides a two-participant minitransaction instead: the
// peer only compares zeros past its extent, so it votes yes and writes
// nothing (two-phase, still no write set to tear). Returns the Execute
// status; *committed reports the protocol outcome.
Status RawWrite(Cluster& cluster, uint32_t node, uint64_t offset,
                const std::string& data, bool* committed, int peer = -1) {
  sinfonia::MiniTxn mtx;
  mtx.AddWrite(sinfonia::Addr{node, offset}, data);
  if (peer >= 0) {
    const uint32_t p = static_cast<uint32_t>(peer);
    const uint64_t past =
        ((cluster.coordinator()->memnode(p)->Extent() >> 20) + 4) << 20;
    mtx.AddCompare(sinfonia::Addr{p, past}, std::string(8, '\0'));
  }
  sinfonia::MiniResult res;
  const Status st = cluster.coordinator()->Execute(mtx, &res);
  *committed = res.committed;
  return st;
}

std::string RawReadAt(Cluster& cluster, uint32_t node, uint64_t offset,
                      uint32_t len) {
  std::string out;
  cluster.coordinator()->memnode(node)->RawRead(offset, len, &out);
  return out;
}

// Framed WAL bytes appended cluster-wide, summed from the metrics
// registry's memnode*.wal.append_bytes counters.
int64_t WalAppendBytes(const Cluster& cluster) {
  int64_t total = 0;
  for (const obs::Sample& s : cluster.metrics_registry().Snapshot()) {
    if (s.subsystem.rfind("memnode", 0) == 0 && s.name == "append_bytes") {
      total += s.value;
    }
  }
  return total;
}

// Holds an exclusive lock on [offset, offset + 8) of `node` the way a
// yes-voting participant does, stalling a checkpoint dump that reaches the
// range until Release. The id sits far above the coordinator's counter.
class RangeHold {
 public:
  RangeHold(sinfonia::Memnode* node, uint64_t offset) : node_(node) {
    bool vote = false;
    std::vector<std::string> reads;
    std::vector<uint32_t> failed;
    const std::vector<sinfonia::MiniTxn::WriteItem> writes{
        {sinfonia::Addr{node->id(), offset}, std::string(8, 'S'), false}};
    held_ = node_->Prepare(kTx, {}, {}, writes, /*blocking=*/false, &vote,
                           &reads, &failed)
                .ok() &&
            vote;
  }
  ~RangeHold() { Release(); }
  RangeHold(const RangeHold&) = delete;
  RangeHold& operator=(const RangeHold&) = delete;

  bool held() const { return held_; }
  void Release() {
    if (held_) node_->Abort(kTx);
    held_ = false;
  }

 private:
  static constexpr sinfonia::TxId kTx = ~sinfonia::TxId{0} - 1;
  sinfonia::Memnode* node_;
  bool held_ = false;
};

// Runs a checkpoint of `id` on another thread. The constructor returns once
// the dump is stalled on a held lock (a busy retry) or has finished; Wait
// joins the thread and returns the checkpoint's status.
class BackgroundCheckpoint {
 public:
  BackgroundCheckpoint(Cluster& cluster, uint32_t id) {
    sinfonia::Coordinator* coord = cluster.coordinator();
    const uint64_t retries_before = coord->metrics().busy_retries.Value();
    thread_ = std::thread([this, &cluster, id] {
      status_ = cluster.CheckpointMemnode(id);
      done_.store(true, std::memory_order_release);
    });
    while (!done_.load(std::memory_order_acquire) &&
           coord->metrics().busy_retries.Value() == retries_before) {
      std::this_thread::yield();
    }
  }
  ~BackgroundCheckpoint() { IgnoreStatus(Wait()); }
  BackgroundCheckpoint(const BackgroundCheckpoint&) = delete;
  BackgroundCheckpoint& operator=(const BackgroundCheckpoint&) = delete;

  Status Wait() {
    if (thread_.joinable()) thread_.join();
    return status_;
  }

 private:
  std::atomic<bool> done_{false};
  Status status_;
  std::thread thread_;  // last: it uses the members above
};

// The dump reads the space in blocks of this size.
constexpr uint64_t kDumpBlock = 64 * 1024;

// --- The commit-path crash matrix -----------------------------------------
//
// For each injection point: acked writes before the crash must survive
// recovery; the in-flight (never-acked) write's fate is determined by
// whether its WAL record reached the disk:
//
//   before-append             -> record never existed      -> absent
//   after-append-before-fsync -> record in page cache only -> absent
//   after-fsync-before-ack    -> record durable            -> PRESENT
//                                (local log ahead of the ring: the local
//                                 path must win and re-seed the peer)
//
// Each point runs twice: as a one-phase write, and as a two-phase
// minitransaction whose peer only compares. Either way the unacknowledged
// write is never applied to the victim's RAM image: a write applies only
// after its record is logged.
struct CommitCrashCase {
  CrashPoint point;
  bool in_flight_survives;
  bool two_phase = false;
};

class CommitCrashMatrix
    : public ::testing::TestWithParam<CommitCrashCase> {};

TEST_P(CommitCrashMatrix, RecoversToConsistentImage) {
  const CommitCrashCase c = GetParam();
  constexpr uint32_t kVictim = 1;
  constexpr int kKeys = 200;
  const int peer = c.two_phase ? 3 : -1;

  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  // Raw writes land far past the organic extent so nothing else ever
  // touches these offsets.
  const uint64_t base =
      ((cluster.coordinator()->memnode(kVictim)->Extent() >> 20) + 4) << 20;
  const std::string payload(64, 'A');
  bool committed = false;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(
        RawWrite(cluster, kVictim, base + i * 64, payload, &committed).ok());
    ASSERT_TRUE(committed);
  }

  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  ASSERT_NE(ds, nullptr);
  const uint64_t lsn_before = ds->wal().CurrentLsn();
  const uint64_t local_before = ds->metrics().recoveries_local.Value();

  cluster.coordinator()->ArmCrashPoint(kVictim, c.point);
  const std::string doomed(64, 'B');
  const uint64_t two_phase_before =
      cluster.coordinator()->metrics().two_phase.Value();
  Status st =
      RawWrite(cluster, kVictim, base + 5 * 64, doomed, &committed, peer);
  ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(cluster.coordinator()->metrics().two_phase.Value(),
            two_phase_before + (c.two_phase ? 1 : 0));
  EXPECT_FALSE(cluster.fabric()->IsUp(kVictim));
  // Never acknowledged, so never applied: the RAM image still reads zeros.
  EXPECT_EQ(RawReadAt(cluster, kVictim, base + 5 * 64, 64),
            std::string(64, '\0'));

  // The node is down: nothing touching it can commit.
  st = RawWrite(cluster, kVictim, base + 6 * 64, payload, &committed);
  EXPECT_TRUE(st.IsUnavailable());

  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  // Sync durability keeps the local log at (or ahead of) the ring
  // watermark, so every commit-path point recovers from the local log.
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), local_before + 1);
  EXPECT_EQ(ds->wal().CurrentLsn(),
            c.in_flight_survives ? lsn_before + 1 : lsn_before);

  // Acked raw writes: durable, always.
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(RawReadAt(cluster, kVictim, base + i * 64, 64), payload) << i;
  }
  // The in-flight write's fate follows its WAL record.
  EXPECT_EQ(RawReadAt(cluster, kVictim, base + 5 * 64, 64),
            c.in_flight_survives ? doomed : std::string(64, '\0'));

  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys, 1);

  // The recovered node serves new commits, raw and through the tree.
  ASSERT_TRUE(
      RawWrite(cluster, kVictim, base + 7 * 64, payload, &committed).ok());
  EXPECT_TRUE(committed);
  ASSERT_TRUE(cluster.proxy(0)
                  .Put(*tree, EncodeUserKey(kKeys), EncodeValue(kKeys))
                  .ok());
  VerifyKeys(cluster, *tree, kKeys + 1, 0);
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, CommitCrashMatrix,
    ::testing::Values(
        CommitCrashCase{CrashPoint::kBeforeWalAppend, false},
        CommitCrashCase{CrashPoint::kAfterWalAppendBeforeSync, false},
        CommitCrashCase{CrashPoint::kAfterWalSyncBeforeAck, true},
        CommitCrashCase{CrashPoint::kBeforeWalAppend, false, true},
        CommitCrashCase{CrashPoint::kAfterWalAppendBeforeSync, false, true},
        CommitCrashCase{CrashPoint::kAfterWalSyncBeforeAck, true, true}),
    [](const ::testing::TestParamInfo<CommitCrashCase>& info) {
      std::string name;
      switch (info.param.point) {
        case CrashPoint::kBeforeWalAppend:
          name = "BeforeWalAppend";
          break;
        case CrashPoint::kAfterWalAppendBeforeSync:
          name = "AfterWalAppendBeforeSync";
          break;
        default:
          name = "AfterWalSyncBeforeAck";
      }
      return info.param.two_phase ? name + "TwoPhase" : name;
    });

// --- Checkpoint-path crash points ------------------------------------------

TEST(RecoveryTest, CrashMidCheckpointKeepsPreviousRoot) {
  constexpr uint32_t kVictim = 2;
  constexpr int kKeys = 200;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys / 2);

  // Baseline checkpoint, then more traffic into the WAL tail.
  ASSERT_TRUE(cluster.CheckpointMemnode(kVictim).ok());
  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  const uint64_t baseline_lsn = ds->LastCheckpointLsn();
  const uint64_t baseline_ckpts = ds->metrics().checkpoints.Value();
  for (int i = kKeys / 2; i < kKeys; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }

  cluster.coordinator()->ArmCrashPoint(kVictim, CrashPoint::kMidCheckpoint);
  Status st = cluster.CheckpointMemnode(kVictim);
  ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_FALSE(cluster.fabric()->IsUp(kVictim));
  // The root never flipped: the staged half-image is garbage, the baseline
  // checkpoint remains the recovery anchor.
  EXPECT_EQ(ds->metrics().checkpoints.Value(), baseline_ckpts);
  EXPECT_EQ(ds->LastCheckpointLsn(), baseline_lsn);

  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_GE(ds->metrics().recoveries_local.Value(), 1u);
  // Everything past the baseline checkpoint came back through WAL redo.
  EXPECT_GT(ds->metrics().replayed.Value(), 0u);

  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys, 1);

  // A clean checkpoint goes through afterwards.
  ASSERT_TRUE(cluster.CheckpointMemnode(kVictim).ok());
  EXPECT_EQ(ds->metrics().checkpoints.Value(), baseline_ckpts + 1);
  EXPECT_GT(ds->LastCheckpointLsn(), baseline_lsn);
}

TEST(RecoveryTest, CrashAfterRootFlipBeforeTruncateReplaysIdempotently) {
  constexpr uint32_t kVictim = 0;
  constexpr int kKeys = 200;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  const uint64_t baseline_ckpts = ds->metrics().checkpoints.Value();
  const uint64_t baseline_truncs = ds->wal().metrics().truncations.Value();

  cluster.coordinator()->ArmCrashPoint(
      kVictim, CrashPoint::kAfterRootFlipBeforeTruncate);
  Status st = cluster.CheckpointMemnode(kVictim);
  ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
  // The flip landed; the covered WAL segments are still on disk.
  EXPECT_EQ(ds->metrics().checkpoints.Value(), baseline_ckpts + 1);
  EXPECT_EQ(ds->wal().metrics().truncations.Value(), baseline_truncs);
  const uint64_t flipped_lsn = ds->LastCheckpointLsn();
  EXPECT_GT(flipped_lsn, 0u);

  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  // Recovery replayed the covered records over the new image — physical
  // redo is idempotent, so the result is exactly the checkpointed state.
  EXPECT_GE(ds->metrics().recoveries_local.Value(), 1u);

  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys, 1);

  // The next checkpoint truncates what the crash left behind.
  ASSERT_TRUE(cluster.CheckpointMemnode(kVictim).ok());
  EXPECT_GT(ds->wal().metrics().truncations.Value(), baseline_truncs);
  ASSERT_TRUE(cluster.proxy(0)
                  .Put(*tree, EncodeUserKey(kKeys), EncodeValue(kKeys))
                  .ok());
  VerifyKeys(cluster, *tree, kKeys + 1, 0);
}

// A fuzzy checkpoint that starts after a write's record is logged but
// before the write applies must still capture it: replay skips records at
// or below the checkpoint LSN, and truncation may drop them. The write
// lands in a fresh slab past the node's extent, the case where the dump
// would otherwise never read the range. The test steps the participant
// through the commit pipeline's order by hand (Prepare, WAL append and
// fsync, then Commit) and runs the checkpoint in the gap.
TEST(RecoveryTest, CheckpointBetweenLogAndApplyKeepsWrite) {
  constexpr uint32_t kVictim = 2;
  constexpr int kKeys = 100;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  sinfonia::Coordinator* coord = cluster.coordinator();
  sinfonia::Memnode* node = coord->memnode(kVictim);
  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  ASSERT_NE(ds, nullptr);
  const uint64_t offset = ((node->Extent() >> 20) + 4) << 20;
  const std::string data(64, 'C');
  const std::vector<sinfonia::MiniTxn::WriteItem> writes{
      {sinfonia::Addr{kVictim, offset}, data, false}};

  // Lock and vote yes. The id sits far above the coordinator's counter.
  constexpr sinfonia::TxId kTx = ~sinfonia::TxId{0};
  bool vote = false;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node->Prepare(kTx, {}, {}, writes, /*blocking=*/false, &vote,
                            &reads, &failed)
                  .ok());
  ASSERT_TRUE(vote);
  // The record is durable; the write has not applied yet.
  auto lsn = ds->wal().Append({wal::WalWrite{offset, data}});
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE(ds->wal().Sync(*lsn).ok());

  // The checkpoint's LSN covers the record. Apply once its dump is waiting
  // on the write's lock (a busy retry), or once it has finished without
  // reading the range.
  const uint64_t retries_before = coord->metrics().busy_retries.Value();
  std::atomic<bool> done{false};
  Status ckpt;
  std::thread checkpointer([&] {
    ckpt = cluster.CheckpointMemnode(kVictim);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire) &&
         coord->metrics().busy_retries.Value() == retries_before) {
    std::this_thread::yield();
  }
  node->Commit(kTx, writes);
  checkpointer.join();
  ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  ASSERT_GE(ds->LastCheckpointLsn(), *lsn);

  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_EQ(RawReadAt(cluster, kVictim, offset, 64), data);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys, 1);
}

// --- Changed-range records -------------------------------------------------
//
// A record carries only the bytes its commit changed. Recovery rebuilds
// every omitted byte from the checkpoint image plus earlier records.

// A fuzzy checkpoint whose image holds a LATER state than the first record
// replayed over it. The dump stalls on a lock in one block while two
// commits rewrite a range in the next: the image holds the second commit's
// bytes, and the checkpoint LSN precedes both records. The second commit
// undoes the first one's run, so replaying the first record over the image
// is wrong until the second replays too.
TEST(RecoveryTest, ChangedRangesReplayOverLaterCheckpointImage) {
  constexpr uint32_t kVictim = 1;
  constexpr int kKeys = 100;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  sinfonia::Memnode* node = cluster.coordinator()->memnode(kVictim);
  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  ASSERT_NE(ds, nullptr);
  const uint64_t stall = ((node->Extent() >> 20) + 4) << 20;
  const uint64_t target = stall + kDumpBlock;
  const std::string v0(64, 'A');
  std::string v1 = v0;
  v1.replace(0, 16, 16, 'B');
  std::string v2 = v0;
  v2.replace(32, 16, 16, 'C');
  bool committed = false;
  ASSERT_TRUE(RawWrite(cluster, kVictim, target, v0, &committed).ok());
  ASSERT_TRUE(committed);

  RangeHold hold(node, stall);
  ASSERT_TRUE(hold.held());
  BackgroundCheckpoint checkpoint(cluster, kVictim);
  const int64_t bytes_before = WalAppendBytes(cluster);
  ASSERT_TRUE(RawWrite(cluster, kVictim, target, v1, &committed).ok());
  ASSERT_TRUE(committed);
  const uint64_t first_lsn = ds->wal().CurrentLsn();
  const int64_t bytes_mid = WalAppendBytes(cluster);
  ASSERT_TRUE(RawWrite(cluster, kVictim, target, v2, &committed).ok());
  ASSERT_TRUE(committed);
  const int64_t bytes_after = WalAppendBytes(cluster);
  hold.Release();
  const Status ckpt = checkpoint.Wait();
  ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  ASSERT_LT(ds->LastCheckpointLsn(), first_lsn);

  // Frame, payload header, then one 16-byte run for v1 and two for v2.
  constexpr int64_t kRecordHeader =
      wal::kFrameHeaderBytes + wal::kPayloadHeaderBytes;
  EXPECT_EQ(bytes_mid - bytes_before,
            kRecordHeader + wal::kWriteHeaderBytes + 16);
  EXPECT_EQ(bytes_after - bytes_mid,
            kRecordHeader + 2 * (wal::kWriteHeaderBytes + 16));

  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 1u);
  EXPECT_EQ(RawReadAt(cluster, kVictim, target, 64), v2);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys, 1);
}

// Write items of one minitransaction may overlap; they apply in order. A
// later item's changed ranges are taken against the bytes the earlier
// items leave, so an item that restores a byte an earlier one changed
// still logs it.
TEST(RecoveryTest, OverlappingWriteItemsReplayInOrder) {
  constexpr uint32_t kVictim = 2;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, 50);

  const uint64_t base =
      ((cluster.coordinator()->memnode(kVictim)->Extent() >> 20) + 4) << 20;
  bool committed = false;
  ASSERT_TRUE(
      RawWrite(cluster, kVictim, base, std::string(64, 'A'), &committed)
          .ok());
  sinfonia::MiniTxn mtx;
  mtx.AddWrite(sinfonia::Addr{kVictim, base}, std::string(32, 'B'));
  mtx.AddWrite(sinfonia::Addr{kVictim, base + 8}, std::string(16, 'A'));
  sinfonia::MiniResult res;
  ASSERT_TRUE(cluster.coordinator()->Execute(mtx, &res).ok());
  ASSERT_TRUE(res.committed);
  const std::string want = std::string(8, 'B') + std::string(16, 'A') +
                           std::string(8, 'B') + std::string(32, 'A');
  ASSERT_EQ(RawReadAt(cluster, kVictim, base, 64), want);

  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_EQ(RawReadAt(cluster, kVictim, base, 64), want);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
}

// A log written before records carried changed ranges holds whole-item
// writes. Continued with changed-range records, it replays to the live
// bytes.
TEST(RecoveryTest, FullImageRecordsThenChangedRangeRecordsReplay) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("minuet-mixed-wal-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "wal");

  // The older log: whole 256-byte objects, framed by EncodeRecord.
  constexpr uint32_t kObject = 256;
  store::RamSlabStore live;
  std::string old_log;
  uint64_t lsn = 0;
  for (int r = 0; r < 6; r++) {
    std::vector<wal::WalWrite> writes;
    for (uint64_t obj = 0; obj < 3; obj++) {
      std::string image(kObject, static_cast<char>('a' + r));
      image[obj * 7] = 'z';
      writes.push_back(wal::WalWrite{obj * 4096, image});
      live.Write(obj * 4096, image.data(), kObject);
    }
    wal::EncodeRecord(++lsn, writes, &old_log);
  }
  {
    std::ofstream out(dir / "wal" / "wal-000001.log", std::ios::binary);
    out.write(old_log.data(), static_cast<std::streamsize>(old_log.size()));
  }

  store::CheckpointedStore ds(dir.string());
  ASSERT_TRUE(ds.Open().ok());
  EXPECT_EQ(ds.wal().CurrentLsn(), lsn);

  // Newer records: the changed ranges of small edits to the live objects.
  std::string pre;
  for (int r = 0; r < 8; r++) {
    std::vector<wal::WalWrite> writes;
    for (uint64_t obj = 0; obj < 3; obj++) {
      live.Read(obj * 4096, kObject, &pre);
      std::string post = pre;
      post[(r * 31 + obj * 17) % kObject] = static_cast<char>('0' + r);
      post[(r * 53 + 100) % kObject] = static_cast<char>('A' + obj);
      wal::AppendChangedRanges(obj * 4096, pre, post, &writes);
      live.Write(obj * 4096, post.data(), kObject);
    }
    auto appended = ds.wal().Append(writes);
    ASSERT_TRUE(appended.ok());
    ASSERT_TRUE(ds.wal().Sync(*appended).ok());
  }

  store::RamSlabStore recovered;
  store::CheckpointedStore::RecoveryInfo info;
  ASSERT_TRUE(ds.RecoverInto(&recovered, &info).ok());
  EXPECT_EQ(info.replayed, 6u + 8u);
  EXPECT_EQ(info.lsn, lsn + 8);
  std::string want, got;
  live.Read(0, static_cast<uint32_t>(live.Extent()), &want);
  recovered.Read(0, static_cast<uint32_t>(live.Extent()), &got);
  EXPECT_EQ(got, want);
  ds.Close();
  fs::remove_all(dir);
}

// Cross-memnode WriteBatches under sync durability, overwriting and adding
// keys around a checkpoint: after every memnode loses its RAM and its
// backups, every acknowledged key reads back its last acknowledged value.
TEST(RecoveryTest, CrossMemnodeWriteBatchesSurviveColdRestart) {
  constexpr int kKeys = 300;
  constexpr int kBatches = 60;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);
  std::map<int, uint64_t> acked;
  for (int i = 0; i < kKeys; i++) acked[i] = i;

  const uint64_t two_phase_before =
      cluster.coordinator()->metrics().two_phase.Value();
  int next_key = kKeys;
  for (int b = 0; b < kBatches; b++) {
    if (b == kBatches / 2) {
      ASSERT_TRUE(cluster.CheckpointAll().ok());
    }
    WriteBatch batch;
    std::map<int, uint64_t> staged;
    for (int k = 0; k < 7; k++) {
      const int key = (b * 37 + k * 43) % kKeys;  // spread over the leaves
      staged[key] = 1000000 + b * 10 + k;
    }
    staged[next_key++] = 2000000 + b;  // one new key per batch
    for (const auto& [key, value] : staged) {
      batch.Put(*tree, EncodeUserKey(key), EncodeValue(value));
    }
    ASSERT_TRUE(cluster.proxy(b % cluster.n_proxies()).Apply(batch).ok())
        << "batch " << b;
    for (const auto& [key, value] : staged) acked[key] = value;
  }
  // The batches spanned memnodes: they committed in two phases.
  EXPECT_GT(cluster.coordinator()->metrics().two_phase.Value(),
            two_phase_before);

  cluster.CrashAllMemnodes();
  cluster.RecoverAllMemnodes();
  cluster.DropProxyCaches();
  std::string value;
  for (uint32_t p = 0; p < cluster.n_proxies(); p++) {
    for (const auto& [key, want] : acked) {
      ASSERT_TRUE(cluster.proxy(p).Get(*tree, EncodeUserKey(key), &value).ok())
          << "key " << key << " via proxy " << p;
      EXPECT_EQ(DecodeValue(value), want) << "key " << key;
    }
  }
  for (uint32_t id = 0; id < cluster.n_memnodes(); id++) {
    ExpectImageMatchesPeerBackup(cluster, id);
  }
}

// Structural gate: a warm same-size overwrite of one key logs the bytes
// it changes, not the leaf it rewrites.
TEST(RecoveryTest, WarmSameSizePutLogsOnlyChangedBytes) {
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, 200);
  Proxy& proxy = cluster.proxy(0);
  // Warm the path to the key's leaf.
  ASSERT_TRUE(proxy.Put(*tree, EncodeUserKey(77), EncodeValue(1)).ok());

  const int64_t before = WalAppendBytes(cluster);
  ASSERT_TRUE(proxy.Put(*tree, EncodeUserKey(77), EncodeValue(2)).ok());
  const int64_t appended = WalAppendBytes(cluster) - before;
  std::printf("[ MEASURED ] warm same-size Put: %lld WAL bytes\n",
              static_cast<long long>(appended));
  EXPECT_GT(appended, 0);
  EXPECT_LE(appended, 64);
}

// A node that joins keeps its seed (the cloned replicated region) only in
// RAM until its seed checkpoint lands. When that checkpoint fails,
// AddMemnode says so, and the node's recovery re-seeds from its peer
// rather than rebuild from a log that never held the seed.
TEST(RecoveryTest, FailedSeedCheckpointFailsAddMemnodeAndReseeds) {
  constexpr int kKeys = 150;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  const uint32_t id = cluster.n_memnodes();
  cluster.coordinator()->ArmCrashPoint(id, CrashPoint::kMidCheckpoint);
  auto added = cluster.AddMemnode();
  ASSERT_FALSE(added.ok());
  EXPECT_TRUE(added.status().IsUnavailable()) << added.status().ToString();
  ASSERT_EQ(cluster.n_memnodes(), id + 1);
  EXPECT_FALSE(cluster.fabric()->IsUp(id));

  store::CheckpointedStore* ds = cluster.durable_store(id);
  ASSERT_NE(ds, nullptr);
  cluster.RecoverMemnode(id);
  ASSERT_TRUE(cluster.fabric()->IsUp(id));
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 1u);
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 0u);
  // The replicated region sits at the same offsets on every memnode.
  const uint32_t region =
      static_cast<uint32_t>(cluster.layout().alloc_meta_base());
  EXPECT_EQ(RawReadAt(cluster, id, 0, region), RawReadAt(cluster, 0, 0, region));
  ExpectImageMatchesPeerBackup(cluster, id);
  VerifyKeys(cluster, *tree, kKeys, id % cluster.n_proxies());
}

// Under async durability the log is synced before a checkpoint's root
// flips, so a crash between the flip and the truncation cannot leave an
// image that reflects a record the crash lost. The dump stalls on a held
// lock while one commit lands in a block it has read and one in a block it
// has yet to read; without replication the local log is the only source.
// The victim is the memnode with the smallest extent, and the held lock's
// stripe is chosen so that no block below it shares the stripe: the dump
// must pass the first block before it stalls.
TEST(RecoveryTest, AsyncCheckpointImageReflectsOnlyDurableRecords) {
  ClusterOptions opts = DurableOpts(wal::DurabilityMode::kAsync);
  opts.replication = false;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, 50);

  sinfonia::Coordinator* coord = cluster.coordinator();
  uint32_t victim = 0;
  for (uint32_t id = 1; id < cluster.n_memnodes(); id++) {
    if (coord->memnode(id)->Extent() < coord->memnode(victim)->Extent()) {
      victim = id;
    }
  }
  sinfonia::Memnode* node = coord->memnode(victim);
  const uint64_t read = (node->Extent() / kDumpBlock + 1) * kDumpBlock;
  const uint64_t unread = read + 2 * kDumpBlock;
  bool committed = false;
  for (uint64_t off : {read, unread}) {
    ASSERT_TRUE(
        RawWrite(cluster, victim, off, std::string(64, 'A'), &committed)
            .ok());
  }
  std::unique_ptr<RangeHold> hold;
  for (uint64_t stall = read + kDumpBlock; stall < unread; stall += 1024) {
    hold = std::make_unique<RangeHold>(node, stall);
    ASSERT_TRUE(hold->held());
    if (!node->lock_table().IsLocked(
            {0, read + kDumpBlock, sinfonia::LockTable::Mode::kShared})) {
      break;
    }
    hold.reset();
  }
  ASSERT_NE(hold, nullptr) << "every stall offset shares a stripe below it";

  coord->ArmCrashPoint(victim, CrashPoint::kAfterRootFlipBeforeTruncate);
  BackgroundCheckpoint checkpoint(cluster, victim);
  const std::string first(64, 'B'), second(64, 'C');
  ASSERT_TRUE(RawWrite(cluster, victim, read, first, &committed).ok());
  ASSERT_TRUE(RawWrite(cluster, victim, unread, second, &committed).ok());
  hold->Release();
  const Status ckpt = checkpoint.Wait();
  ASSERT_TRUE(ckpt.IsUnavailable()) << ckpt.ToString();

  cluster.RecoverMemnode(victim);
  ASSERT_TRUE(cluster.fabric()->IsUp(victim));
  // Both records were synced before the flip and replay in order: the
  // recovered bytes are a prefix of the history, never the second write
  // without the first.
  EXPECT_EQ(RawReadAt(cluster, victim, read, 64), first);
  EXPECT_EQ(RawReadAt(cluster, victim, unread, 64), second);
  VerifyKeys(cluster, *tree, 50, 1);
}

// --- Local-log vs peer-re-seed convergence ---------------------------------

TEST(RecoveryTest, DiscardedLogFallsBackToPeerThenConverges) {
  constexpr uint32_t kVictim = 3;
  constexpr int kKeys = 250;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  ASSERT_TRUE(ds->DiscardDurableState().ok());
  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  // Empty local log, ring watermark ahead: the peer re-seed path, which
  // immediately re-anchors durable state with a quiesced checkpoint.
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 1u);
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 0u);
  EXPECT_GE(ds->metrics().checkpoints.Value(), 1u);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys, 2);

  // More traffic, then a second crash: the re-anchored local log is
  // current again, so THIS recovery takes the local path — and both
  // recovery flavors converge on the same served state.
  for (int i = kKeys; i < kKeys + 50; i++) {
    ASSERT_TRUE(cluster.proxy(1)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 1u);
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 1u);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys + 50, 0);
}

// A re-seed re-anchors durable state with a checkpoint. When that
// checkpoint fails, the local log cannot rebuild the re-seeded bytes (later
// records omit what they leave unchanged), so the next recovery re-seeds
// again instead of trusting it. That re-seed's re-anchor lands, and the
// recovery after it is local.
TEST(RecoveryTest, FailedReanchorReseedsNextRecovery) {
  constexpr uint32_t kVictim = 3;
  constexpr int kKeys = 200;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  ASSERT_TRUE(ds->DiscardDurableState().ok());
  cluster.CrashMemnode(kVictim);
  cluster.coordinator()->ArmCrashPoint(kVictim, CrashPoint::kMidCheckpoint);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 1u);
  EXPECT_EQ(ds->metrics().checkpoints.Value(), 0u);  // the re-anchor failed
  VerifyKeys(cluster, *tree, kKeys, 2);

  for (int i = kKeys; i < kKeys + 50; i++) {
    ASSERT_TRUE(cluster.proxy(1)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 2u);
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 0u);
  EXPECT_EQ(ds->metrics().checkpoints.Value(), 1u);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys + 50, 0);

  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 1u);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys + 50, 3);
}

// Async durability: commits are acked without fsync, so a crash loses the
// page-cache tail of the log — the ring watermark runs ahead and recovery
// must take the peer path rather than serve a stale local image.
TEST(RecoveryTest, AsyncModeFallsBackToPeerWhenLogIsBehind) {
  constexpr uint32_t kVictim = 1;
  constexpr int kKeys = 200;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kAsync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  store::CheckpointedStore* ds = cluster.durable_store(kVictim);
  // Never fsynced: the whole appended tail is page cache.
  EXPECT_GT(ds->wal().CurrentLsn(), ds->wal().SyncedLsn());

  cluster.CrashMemnode(kVictim);
  cluster.RecoverMemnode(kVictim);
  ASSERT_TRUE(cluster.fabric()->IsUp(kVictim));
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 1u);
  ExpectImageMatchesPeerBackup(cluster, kVictim);
  VerifyKeys(cluster, *tree, kKeys, 1);
}

// A backup-ring rewire moves a primary's backup image to a new host; the
// ring watermark must move with it. Here memnode 3's image moves from
// memnode 0 to the joining memnode 4 while memnode 3's async log tail is
// unsynced, so a crash of memnode 3 must re-seed from memnode 4: a
// watermark left behind reads 0, recovery trusts the short local log, and
// acked writes vanish.
TEST(RecoveryTest, AddMemnodeRewireCarriesRingWatermark) {
  constexpr uint32_t kRehomed = 3;
  constexpr int kKeys = 300;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kAsync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);
  store::CheckpointedStore* ds = cluster.durable_store(kRehomed);
  ASSERT_GT(ds->wal().CurrentLsn(), ds->wal().SyncedLsn());

  auto added = cluster.AddMemnode();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_EQ(cluster.coordinator()->BackupOf(kRehomed), *added);

  cluster.CrashMemnode(kRehomed);
  cluster.RecoverMemnode(kRehomed);
  ASSERT_TRUE(cluster.fabric()->IsUp(kRehomed));
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 1u);
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 0u);
  VerifyKeys(cluster, *tree, kKeys, 0);
}

// The scale-in rewire: retiring memnode 2 moves memnode 1's backup image
// from memnode 2 to memnode 3, and memnode 1's watermark must follow.
TEST(RecoveryTest, RetireMemnodeRewireCarriesRingWatermark) {
  constexpr uint32_t kRetired = 2;
  constexpr uint32_t kRehomed = 1;
  constexpr int kKeys = 300;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kAsync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys);

  ASSERT_TRUE(cluster.RemoveMemnode(kRetired).ok());
  ASSERT_EQ(cluster.coordinator()->BackupOf(kRehomed), kRetired + 1);
  store::CheckpointedStore* ds = cluster.durable_store(kRehomed);
  ASSERT_GT(ds->wal().CurrentLsn(), ds->wal().SyncedLsn());

  cluster.CrashMemnode(kRehomed);
  cluster.RecoverMemnode(kRehomed);
  ASSERT_TRUE(cluster.fabric()->IsUp(kRehomed));
  EXPECT_EQ(ds->metrics().recoveries_reseed.Value(), 1u);
  EXPECT_EQ(ds->metrics().recoveries_local.Value(), 0u);
  VerifyKeys(cluster, *tree, kKeys, 0);
}

// --- The acceptance gate: full-cluster cold restart ------------------------
//
// Four nodes, durability=sync: checkpoint everything, keep writing, then
// destroy EVERY in-memory image (primaries, hosted backups, page-cache WAL
// bytes). The cluster must reconstruct itself from checkpoints + WAL alone,
// every node via its own local log, and serve every key through every proxy
// with tip and snapshot in agreement.
TEST(RecoveryTest, FullClusterColdRestartFromCheckpointsAndWal) {
  constexpr int kKeys = 400;
  Cluster cluster(DurableOpts(wal::DurabilityMode::kSync));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, kKeys / 2);

  ASSERT_TRUE(cluster.CheckpointAll().ok());

  // Post-checkpoint traffic lives only in the WAL tails.
  for (int i = kKeys / 2; i < kKeys; i++) {
    ASSERT_TRUE(cluster.proxy(i % cluster.n_proxies())
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }

  uint64_t local_before = 0;
  for (uint32_t id = 0; id < cluster.n_memnodes(); id++) {
    local_before += cluster.durable_store(id)->metrics()
                        .recoveries_local.Value();
  }

  cluster.CrashAllMemnodes();
  for (uint32_t id = 0; id < cluster.n_memnodes(); id++) {
    EXPECT_FALSE(cluster.fabric()->IsUp(id));
  }
  cluster.RecoverAllMemnodes();

  uint64_t local_after = 0, reseed_after = 0;
  for (uint32_t id = 0; id < cluster.n_memnodes(); id++) {
    ASSERT_TRUE(cluster.fabric()->IsUp(id));
    local_after += cluster.durable_store(id)->metrics()
                       .recoveries_local.Value();
    reseed_after += cluster.durable_store(id)->metrics()
                        .recoveries_reseed.Value();
  }
  // Every node came back from its own checkpoint + log; the ring had
  // nothing to offer (all backups died too).
  EXPECT_EQ(local_after - local_before, cluster.n_memnodes());
  EXPECT_EQ(reseed_after, 0u);

  // Cold caches, then every key through EVERY proxy.
  cluster.DropProxyCaches();
  for (uint32_t p = 0; p < cluster.n_proxies(); p++) {
    VerifyKeys(cluster, *tree, kKeys, p);
  }

  // Tip and a fresh snapshot agree exactly.
  auto snap = cluster.proxy(0).Snapshot(*tree);
  ASSERT_TRUE(snap.ok());
  std::vector<std::pair<std::string, std::string>> tip_scan, snap_scan;
  ASSERT_TRUE(
      cluster.proxy(0).Tip(*tree).Scan("", kKeys + 1, &tip_scan).ok());
  ASSERT_TRUE(snap->Scan("", kKeys + 1, &snap_scan).ok());
  EXPECT_EQ(tip_scan.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(tip_scan, snap_scan);

  // The ring re-formed: every node's peer holds a backup image matching
  // its recovered primary, and writes flow again.
  for (uint32_t id = 0; id < cluster.n_memnodes(); id++) {
    ExpectImageMatchesPeerBackup(cluster, id);
  }
  for (int i = kKeys; i < kKeys + 40; i++) {
    ASSERT_TRUE(cluster.proxy(i % cluster.n_proxies())
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  VerifyKeys(cluster, *tree, kKeys + 40, 1);
}

// Durability off: CrashAll/RecoverAll degrade to the historical behavior
// (no durable state, nothing to restore from once backups are gone too) —
// the cluster must fail safe, not resurrect garbage.
TEST(RecoveryTest, ColdRestartWithoutDurabilityFailsSafe) {
  ClusterOptions opts = DurableOpts(wal::DurabilityMode::kNone);
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Preload(cluster, *tree, 100);
  cluster.CrashAllMemnodes();
  cluster.RecoverAllMemnodes();
  // Every image is gone and the ring had nothing: reads may miss or abort
  // but never return a wrong value or crash the process.
  std::string value;
  for (int i = 0; i < 100; i++) {
    Status st = cluster.proxy(0).Get(*tree, EncodeUserKey(i), &value);
    if (st.ok()) {
      EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
    }
  }
}

}  // namespace
}  // namespace minuet
