// Fault tolerance: Sinfonia's primary-backup replication masks a memnode
// crash. Data written before the crash survives recovery from the backup
// image, and the B-tree keeps serving once the node is restored.
//
//   $ ./build/examples/fault_tolerance
#include <cstdio>

#include "common/key_codec.h"
#include "minuet/cluster.h"

int main() {
  using namespace minuet;

  ClusterOptions options;
  options.machines = 4;
  options.replication = true;  // every commit mirrors to a backup peer
  Cluster cluster(options);
  auto tree = cluster.CreateTree();
  if (!tree.ok()) return 1;
  TipView tip = cluster.proxy(0).Tip(*tree);

  constexpr uint64_t kKeys = 2000;
  for (uint64_t i = 0; i < kKeys; i++) {
    if (!tip.Put(EncodeUserKey(i), EncodeValue(i)).ok()) return 1;
  }
  std::printf("loaded %llu keys across 4 memnodes\n",
              static_cast<unsigned long long>(kKeys));

  // Crash memnode 2: its main-memory state is lost entirely.
  cluster.CrashMemnode(2);
  std::printf("memnode 2 crashed\n");

  uint64_t unavailable = 0, served = 0;
  std::string value;
  for (uint64_t i = 0; i < kKeys; i += 10) {
    Status st = tip.Get(EncodeUserKey(i), &value);
    if (st.IsUnavailable()) {
      unavailable++;
    } else if (st.ok()) {
      served++;
    }
  }
  std::printf("while down: %llu reads served, %llu unavailable\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(unavailable));

  // Recover: the coordinator restores the lost state from the backup image
  // held by the crash victim's peer.
  cluster.RecoverMemnode(2);
  std::printf("memnode 2 recovered from backup\n");

  uint64_t wrong = 0;
  for (uint64_t i = 0; i < kKeys; i++) {
    if (!tip.Get(EncodeUserKey(i), &value).ok() ||
        DecodeValue(value) != i) {
      wrong++;
    }
  }
  std::printf("after recovery: %llu keys verified, %llu lost/corrupt\n",
              static_cast<unsigned long long>(kKeys - wrong),
              static_cast<unsigned long long>(wrong));

  // The tree accepts new writes immediately.
  Status st = tip.Put(EncodeUserKey(kKeys + 1), EncodeValue(1));
  std::printf("post-recovery write: %s\n", st.ToString().c_str());
  return wrong == 0 ? 0 : 1;
}
