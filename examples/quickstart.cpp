// Quickstart: assemble a Minuet cluster, create a B-tree, and use the
// View API — tip puts/gets, a batched multi-key write, a consistent
// snapshot cursor, and a multi-key transaction.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "common/key_codec.h"
#include "minuet/cluster.h"

int main() {
  using namespace minuet;

  // A 4-machine cluster: 4 memnodes + 4 proxies, primary-backup
  // replication, dirty traversals on (the paper's recommended mode).
  ClusterOptions options;
  options.machines = 4;
  Cluster cluster(options);

  auto tree = cluster.CreateTree();
  if (!tree.ok()) {
    std::fprintf(stderr, "create tree: %s\n",
                 tree.status().ToString().c_str());
    return 1;
  }
  Proxy& proxy = cluster.proxy(0);

  // --- Strictly serializable single-key operations (TipView) --------------
  TipView tip = proxy.Tip(*tree);
  for (int i = 0; i < 100; i++) {
    Status st = tip.Put(EncodeUserKey(i), EncodeValue(i * i));
    if (!st.ok()) {
      std::fprintf(stderr, "put: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::string value;
  if (tip.Get(EncodeUserKey(7), &value).ok()) {
    std::printf("user7 -> %llu\n",
                static_cast<unsigned long long>(DecodeValue(value)));
  }

  // --- A batched write: every key commits atomically, or none do ----------
  WriteBatch batch;
  batch.Put(*tree, EncodeUserKey(200), EncodeValue(1));
  batch.Put(*tree, EncodeUserKey(201), EncodeValue(2));
  batch.Remove(*tree, EncodeUserKey(99));
  Status st = proxy.Apply(batch);
  std::printf("batch of %zu committed: %s\n", batch.size(),
              st.ToString().c_str());

  // --- Range scan over a consistent snapshot ------------------------------
  auto snapshot = proxy.Snapshot(*tree);
  if (!snapshot.ok()) return 1;
  // Writes after the snapshot do not disturb its view.
  (void)tip.Put(EncodeUserKey(7), EncodeValue(0));

  std::printf("snapshot scan from user5:\n");
  auto cursor = snapshot->NewCursor(EncodeUserKey(5));
  for (int n = 0; cursor->Valid() && n < 5; cursor->Next(), n++) {
    std::printf("  %s -> %llu\n", cursor->key().c_str(),
                static_cast<unsigned long long>(DecodeValue(cursor->value())));
  }

  // --- A multi-key transaction (atomic across keys and proxies) -----------
  st = proxy.Transaction([&](txn::DynamicTxn& txn) -> Status {
    std::string balance_a, balance_b;
    MINUET_RETURN_NOT_OK(
        proxy.tree(*tree)->GetInTxn(txn, EncodeUserKey(1), &balance_a));
    MINUET_RETURN_NOT_OK(
        proxy.tree(*tree)->GetInTxn(txn, EncodeUserKey(2), &balance_b));
    const uint64_t a = DecodeValue(balance_a), b = DecodeValue(balance_b);
    // Move one unit from account 1 to account 2, atomically.
    MINUET_RETURN_NOT_OK(
        proxy.tree(*tree)->PutInTxn(txn, EncodeUserKey(1),
                                    EncodeValue(a - 1)));
    return proxy.tree(*tree)->PutInTxn(txn, EncodeUserKey(2),
                                       EncodeValue(b + 1));
  });
  std::printf("transfer committed: %s\n", st.ToString().c_str());

  // Another proxy observes the committed state through its own tip view.
  if (cluster.proxy(1).Tip(*tree).Get(EncodeUserKey(2), &value).ok()) {
    std::printf("user2 (via proxy 1) -> %llu\n",
                static_cast<unsigned long long>(DecodeValue(value)));
  }
  return 0;
}
