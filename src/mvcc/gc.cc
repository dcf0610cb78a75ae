#include "mvcc/gc.h"

#include <algorithm>

#include "btree/node_view.h"

namespace minuet::mvcc {

using sinfonia::Addr;
using sinfonia::MemnodeId;
using txn::ReadMode;

namespace {

enum class Verdict { kNonNode, kLive, kGarbage };

// The free rule. A node copied at snapshot y serves snapshots in
// [created, y); it is garbage iff y <= lowest. Discretionary copies (§5.2)
// are content duplicates — only a real copy retires the node. Branching
// version trees are not collected by this pass (only nodes whose every real
// copy is at or below the horizon are freed, which is exact for linear
// histories and conservative otherwise).
Verdict Judge(Slice image, uint64_t lowest_sid) {
  btree::NodeView view;
  if (!view.Init(image).ok()) {
    return Verdict::kNonNode;  // free-list link or never-initialized slab
  }
  bool has_real_copy = false;
  for (size_t i = 0; i < view.descendant_count(); i++) {
    const btree::DescendantEntry d = view.descendant(i);
    if (d.discretionary) continue;
    if (d.sid > lowest_sid) return Verdict::kLive;
    has_real_copy = true;
  }
  return has_real_copy ? Verdict::kGarbage : Verdict::kLive;
}

void CountSkipped(Verdict v, GarbageCollector::Report* report) {
  if (v == Verdict::kNonNode) {
    report->skipped_non_node++;
  } else {
    report->skipped_live++;
  }
}

}  // namespace

Status GarbageCollector::FreeCandidates(MemnodeId m,
                                        const std::vector<uint64_t>& candidates,
                                        uint64_t lowest_sid, Report* report) {
  const auto& layout = tree_->layout();
  std::vector<txn::ObjectRef> refs;
  refs.reserve(candidates.size() + 1);
  for (uint64_t off : candidates) refs.push_back(layout.SlabRef(Addr{m, off}));
  refs.push_back(layout.MetaRef(m));

  Report skipped;
  std::vector<uint64_t> garbage;
  Status st = txn::RunTransaction(
      tree_->coordinator(), /*cache=*/nullptr, {}, kFreeAttempts,
      [&](txn::DynamicTxn& txn) -> Status {
        // One round reads the candidates into the read set beside the
        // allocator metadata, so the commit validates every slab it frees.
        // Each attempt judges them again: a slab that stopped being garbage
        // drops out of the batch.
        auto images = txn.Read(refs, ReadMode::kValidated);
        if (!images.ok()) return images.status();
        skipped = Report();
        garbage.clear();
        for (size_t i = 0; i < candidates.size(); i++) {
          const Verdict verdict = Judge((*images)[i].data, lowest_sid);
          if (verdict == Verdict::kGarbage) {
            garbage.push_back(candidates[i]);
          } else {
            CountSkipped(verdict, &skipped);
          }
        }
        return tree_->allocator()->FreeBatch(txn, m, garbage);
      });
  if (!st.ok()) {
    if (!st.IsRetryable()) return st;
    // Every attempt lost a race (with a refill's metadata write, most
    // likely); the next pass sees these slabs again.
    report->skipped_live += candidates.size();
    return Status::OK();
  }
  report->skipped_live += skipped.skipped_live;
  report->skipped_non_node += skipped.skipped_non_node;
  report->freed += garbage.size();
  total_freed_.Add(garbage.size());
  return Status::OK();
}

Status GarbageCollector::CollectBatch(MemnodeId m,
                                      const std::vector<txn::ObjectRef>& slabs,
                                      uint64_t lowest_sid, Report* report) {
  report->scanned += slabs.size();
  // One minitransaction without a read set: the verdicts only pick the
  // candidates, which the free transaction reads and judges again.
  std::vector<uint64_t> candidates;
  {
    txn::DynamicTxn scan(tree_->coordinator(), /*cache=*/nullptr);
    auto images = scan.Read(slabs, ReadMode::kFresh);
    if (!images.ok()) {
      if (!images.status().IsRetryable()) return images.status();
      report->skipped_live += slabs.size();
      return Status::OK();
    }
    for (size_t i = 0; i < slabs.size(); i++) {
      const Verdict verdict = Judge((*images)[i].data, lowest_sid);
      if (verdict == Verdict::kGarbage) {
        candidates.push_back(slabs[i].addr.offset);
      } else {
        CountSkipped(verdict, report);
      }
    }
  }
  if (candidates.empty()) return Status::OK();
  return FreeCandidates(m, candidates, lowest_sid, report);
}

Result<GarbageCollector::Report> GarbageCollector::CollectOnce(
    uint64_t lowest_sid) {
  Report report;
  const auto& layout = tree_->layout();
  sinfonia::Coordinator* coord = tree_->coordinator();

  // Publish the horizon so other proxies / tools can observe it.
  Status pub = txn::RunTransaction(
      coord, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
        auto cur = t.Read(layout.LowestSidRef(tree_->tree_slot()),
                          ReadMode::kValidated);
        if (!cur.ok()) return cur.status();
        if (btree::DecodeTipId(cur->data) >= lowest_sid) return Status::OK();
        return t.Write(layout.LowestSidRef(tree_->tree_slot()),
                       btree::EncodeTipId(lowest_sid));
      });
  MINUET_RETURN_NOT_OK(pub);

  const uint64_t batch_bytes = kBatchSlabs * layout.node_size;
  for (uint32_t m = 0; m < coord->n_memnodes(); m++) {
    // Retired ids (elastic scale-in) are permanent holes in the id space:
    // nothing lives there and the fabric rejects their messages.
    if (coord->retired(m)) continue;
    const uint64_t extent = coord->memnode(m)->Extent();
    // A slab counts as touched once ANY of its bytes is under the
    // high-water mark: the last node written on a memnode rarely fills its
    // slab, and `off + node_size <= extent` would exempt it from
    // collection forever. Reads past the extent return zeros, so probing
    // the partial tail is safe.
    for (uint64_t start = layout.slab_base(); start < extent;
         start += batch_bytes) {
      std::vector<txn::ObjectRef> slabs;
      for (uint64_t off = start;
           off < extent && slabs.size() < kBatchSlabs;
           off += layout.node_size) {
        slabs.push_back(layout.SlabRef(Addr{m, off}));
      }
      MINUET_RETURN_NOT_OK(CollectBatch(m, slabs, lowest_sid, &report));
    }
  }
  return report;
}

Result<GarbageCollector::Report> GarbageCollector::CollectOnce(
    uint64_t lowest_sid, uint64_t reclaim_floor) {
  return CollectOnce(std::min(lowest_sid, reclaim_floor));
}

}  // namespace minuet::mvcc
