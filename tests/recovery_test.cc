// Crash-point recovery matrix: a memnode dies at every interesting instant
// of the commit and checkpoint protocols, and recovery must rebuild an
// image that is correct, identical to the surviving peer's backup, and
// served identically afterwards — from the local log when it is current,
// from the peer when it is not. Ends with the full-cluster cold restart:
// every in-memory image destroyed, the cluster reconstructed from
// checkpoints + WAL alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/key_codec.h"
#include "minuet/cluster.h"
#include "sinfonia/addr.h"
#include "sinfonia/coordinator.h"
#include "sinfonia/memnode.h"
#include "sinfonia/minitxn.h"
#include "store/checkpointed_store.h"
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
