// On-disk framing for WAL records.
//
// A record is one committed minitransaction write set at one memnode, in
// commit order (appends happen inside the primary's range-lock window, so
// file order IS commit order for conflicting writes — the same argument
// that orders ApplyBackupWrites).
//
//   frame:   [payload_len u32][crc32 u32][payload]
//   payload: [lsn u64][write_count u32]
//            then per write: [offset u64][len u32][bytes]
//
// All integers little-endian (common/byteio.h). The CRC covers the payload
// only; the reader treats a bad length, short payload, or CRC mismatch as a
// torn tail and stops cleanly at the last whole record.
//
// A write carries only the bytes its commit changed (AppendChangedRanges),
// not the whole item the minitransaction wrote. Replay needs no special
// case: a full-image write and a changed-range write are the same frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace minuet::wal {

// One write of a committed write set, addressed in the owning memnode's
// byte space.
struct WalWrite {
  uint64_t offset = 0;
  std::string data;
};

struct WalRecord {
  uint64_t lsn = 0;
  std::vector<WalWrite> writes;
};

inline constexpr uint32_t kFrameHeaderBytes = 8;
// [lsn u64][write_count u32], and per write [offset u64][len u32].
inline constexpr uint32_t kPayloadHeaderBytes = 12;
inline constexpr uint32_t kWriteHeaderBytes = 12;
// Upper bound on a sane payload. A torn or bit-flipped length field must
// never drive a multi-gigabyte allocation in the reader.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

// CRC-32 (IEEE 802.3 polynomial, table-driven).
uint32_t Crc32(const char* data, size_t n);

// Append the framed record (header + payload) to *out.
void EncodeRecord(uint64_t lsn, const std::vector<WalWrite>& writes,
                  std::string* out);
inline void EncodeRecord(const WalRecord& rec, std::string* out) {
  EncodeRecord(rec.lsn, rec.writes, out);
}

// Append to *writes the runs where `post` differs from `pre`, the bytes at
// `offset` before and after one write (pre.size() == post.size()). Runs
// whose gap is shorter than kWriteHeaderBytes merge into one write, since
// a second write would cost more header than the gap's bytes. Equal
// images append nothing. Replaying the appended writes over `pre` yields
// `post`.
void AppendChangedRanges(uint64_t offset, std::string_view pre,
                         std::string_view post, std::vector<WalWrite>* writes);

// Parse a payload (framing stripped, CRC already verified). Returns false
// on structural corruption (truncated fields, count/length overruns).
bool DecodePayload(const char* data, size_t n, WalRecord* rec);

}  // namespace minuet::wal
