// Minitransactions: Sinfonia's primitive for atomic conditional access to
// memory at multiple memnodes (paper §2.1). A minitransaction contains
//   - compare items: (address, expected bytes) — all must match,
//   - read items:    (address, length) — returned to the caller,
//   - write items:   (address, bytes) — applied iff every compare matches.
// Addresses are specified up front; Sinfonia executes and commits the
// minitransaction with its two-phase protocol, collapsed to one phase when
// a single memnode is involved.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sinfonia/addr.h"

namespace minuet::sinfonia {

struct MiniTxn {
  struct CompareItem {
    Addr addr;
    std::string expected;
  };
  struct ReadItem {
    Addr addr;
    uint32_t len = 0;
  };
  struct WriteItem {
    Addr addr;
    std::string data;
    // Apply this write at `addr.offset` on EVERY memnode (replicated-data
    // objects, §4.1, and the Aguilera baseline's seqnum mirrors). Expanded
    // by the coordinator under its membership lock, so the write set always
    // covers the memnode count in force when the minitransaction executes —
    // a membership change can never strand a stale replica.
    bool all_nodes = false;
  };

  std::vector<CompareItem> compares;
  std::vector<ReadItem> reads;
  std::vector<WriteItem> writes;

  // Blocking minitransactions (paper §4.1) wait at the memnode for busy
  // locks — bounded by the coordinator's lock-wait threshold — instead of
  // aborting immediately. Used for the replicated tip-snapshot-id update,
  // which would otherwise livelock under snapshot storms.
  bool blocking = false;

  // The reads need no atomicity ACROSS participants: each object is
  // checked on its own (dirty and fresh fetches), so every participant of
  // a read-only minitransaction without compares commits one-phase on its
  // vote message, and no release message follows.
  bool piecewise = false;

  void AddCompare(Addr addr, std::string expected) {
    compares.push_back({addr, std::move(expected)});
  }
  void AddRead(Addr addr, uint32_t len) { reads.push_back({addr, len}); }
  void AddWrite(Addr addr, std::string data) {
    writes.push_back({addr, std::move(data), false});
  }
  // One logical write applied at `offset` on every memnode in the cluster
  // at execution time (see WriteItem::all_nodes).
  void AddWriteAll(uint64_t offset, std::string data) {
    writes.push_back({Addr{0, offset}, std::move(data), true});
  }

  bool empty() const {
    return compares.empty() && reads.empty() && writes.empty();
  }

  // Distinct memnodes touched, in sorted order ("minitransaction spread").
  std::vector<MemnodeId> Participants() const;
};

struct MiniResult {
  // True iff all compares matched and the writes (if any) were applied.
  bool committed = false;
  // Indexes into MiniTxn::compares of items that failed; empty on commit.
  std::vector<uint32_t> failed_compares;
  // One entry per read item, in order; only valid when committed.
  std::vector<std::string> read_results;
};

}  // namespace minuet::sinfonia
