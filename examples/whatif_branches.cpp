// What-if analysis with writable clones (paper §5): an analyst forks the
// live portfolio into a side branch, rebalances it there, and compares
// aggregates across versions — "like revision control but for B-trees".
// The mainline keeps taking writes the whole time. Every version is
// accessed through a BranchView; frozen versions refuse writes.
//
//   $ ./build/examples/whatif_branches
#include <cstdio>
#include <cstdlib>

#include "common/key_codec.h"
#include "minuet/cluster.h"

namespace {

uint64_t PortfolioValue(minuet::Proxy& proxy, const minuet::TreeHandle& tree,
                        uint64_t branch) {
  auto view = proxy.Branch(tree, branch);
  if (!view.ok()) {
    std::fprintf(stderr, "branch %llu: %s\n", (unsigned long long)branch,
                 view.status().ToString().c_str());
    std::exit(1);
  }
  // Stream the whole branch through a cursor and aggregate.
  uint64_t total = 0;
  auto cur = view->NewCursor();
  for (; cur->Valid(); cur->Next()) {
    total += minuet::DecodeValue(cur->value());
  }
  if (!cur->status().ok()) {
    std::fprintf(stderr, "scan of branch %llu: %s\n",
                 (unsigned long long)branch,
                 cur->status().ToString().c_str());
    std::exit(1);
  }
  return total;
}

}  // namespace

int main() {
  using namespace minuet;

  ClusterOptions options;
  options.machines = 4;
  options.beta = 2;  // descendant-set bound; also caps version-tree fan-out
  Cluster cluster(options);
  auto tree = cluster.CreateTree(/*branching=*/true);
  if (!tree.ok()) return 1;
  Proxy& proxy = cluster.proxy(0);

  // The live portfolio: 1000 positions valued 100 each (snapshot id 0 is
  // the initial writable tip).
  constexpr uint64_t kPositions = 1000;
  auto live = proxy.Branch(*tree, 0);
  if (!live.ok()) return 1;
  for (uint64_t i = 0; i < kPositions; i++) {
    if (!live->Put(EncodeUserKey(i), EncodeValue(100)).ok()) return 1;
  }

  // Fork: freeze version 0, continue the mainline on branch 1, and run the
  // what-if experiment on branch 2.
  auto mainline_sid = proxy.CreateBranch(*tree, 0);
  auto whatif_sid = proxy.CreateBranch(*tree, 0);
  if (!mainline_sid.ok() || !whatif_sid.ok()) return 1;
  std::printf("version tree: 0 -> {mainline=%llu, whatif=%llu}\n",
              static_cast<unsigned long long>(*mainline_sid),
              static_cast<unsigned long long>(*whatif_sid));
  auto mainline = proxy.Branch(*tree, *mainline_sid);
  auto whatif = proxy.Branch(*tree, *whatif_sid);
  if (!mainline.ok() || !whatif.ok()) return 1;

  // The business keeps trading on the mainline...
  for (uint64_t i = 0; i < kPositions; i += 10) {
    (void)mainline->Put(EncodeUserKey(i), EncodeValue(110));
  }
  // ...while the analyst rebalances the clone: sell half of every even
  // position, double every 7th.
  for (uint64_t i = 0; i < kPositions; i++) {
    uint64_t v = 100;
    if (i % 2 == 0) v = 50;
    if (i % 7 == 0) v = 200;
    (void)whatif->Put(EncodeUserKey(i), EncodeValue(v));
  }

  // Compare the three versions — the frozen baseline, the live mainline,
  // and the hypothetical.
  std::printf("baseline (v0):  %llu\n",
              static_cast<unsigned long long>(
                  PortfolioValue(proxy, *tree, 0)));
  std::printf("mainline (v%llu): %llu\n",
              static_cast<unsigned long long>(*mainline_sid),
              static_cast<unsigned long long>(
                  PortfolioValue(proxy, *tree, *mainline_sid)));
  std::printf("what-if  (v%llu): %llu\n",
              static_cast<unsigned long long>(*whatif_sid),
              static_cast<unsigned long long>(
                  PortfolioValue(proxy, *tree, *whatif_sid)));

  // Writing to the frozen baseline is refused.
  auto frozen = proxy.Branch(*tree, 0);
  if (frozen.ok()) {
    Status st = frozen->Put(EncodeUserKey(0), EncodeValue(1));
    std::printf("write to frozen v0: %s (writable=%d)\n",
                st.ToString().c_str(), frozen->writable());
  }

  // Sub-branch the experiment to try a second variation.
  auto variation_sid = proxy.CreateBranch(*tree, *whatif_sid);
  if (variation_sid.ok()) {
    auto variation = proxy.Branch(*tree, *variation_sid);
    if (variation.ok()) {
      (void)variation->Put(EncodeUserKey(1), EncodeValue(999));
      std::printf("variation (v%llu): %llu\n",
                  static_cast<unsigned long long>(*variation_sid),
                  static_cast<unsigned long long>(
                      PortfolioValue(proxy, *tree, *variation_sid)));
    }
  }

  const auto& stats = proxy.tree(*tree)->stats();
  std::printf("copy-on-write copies: %llu (discretionary: %llu)\n",
              static_cast<unsigned long long>(stats.cow_copies.Value()),
              static_cast<unsigned long long>(
                  stats.discretionary_copies.Value()));
  return 0;
}
