// Status and Result<T>: error-handling vocabulary used across the Minuet
// codebase, following the RocksDB/Arrow convention of returning rich status
// objects instead of throwing exceptions on expected failure paths
// (transaction aborts, lock timeouts, node unavailability).
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace minuet {

// Why an optimistic retry attempt aborted (the taxonomy PR 9 replaced the
// opaque Status::Aborted(...) strings with on the retry paths). Recorded per
// attempt by txn::RunTransaction and counted in the metrics registry, so
// abort causes are queryable instead of buried in log strings.
enum class AbortReason : unsigned char {
  kNone = 0,              // not an abort (or reason unknown)
  kValidationConflict,    // seqnum compare failed (piggy-backed or commit)
  kStaleCachePointer,     // traversal safety check failed on cached state
  kRetiredMemnode,        // stale pointer into a retired memnode
  kLockBusy,              // minitransaction lock contention (Busy/TimedOut)
  kGcHorizon,             // snapshot fell below the GC horizon
  kOther,                 // aborted for a reason outside the taxonomy
};
inline constexpr unsigned kNumAbortReasons = 7;

inline const char* AbortReasonName(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return "none";
    case AbortReason::kValidationConflict: return "validation_conflict";
    case AbortReason::kStaleCachePointer: return "stale_cache_pointer";
    case AbortReason::kRetiredMemnode: return "retired_memnode";
    case AbortReason::kLockBusy: return "lock_busy";
    case AbortReason::kGcHorizon: return "gc_horizon";
    case AbortReason::kOther: return "other";
  }
  return "unknown";
}

class [[nodiscard]] Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound,         // key or object absent
    kAborted,          // optimistic validation failed; caller may retry
    kBusy,             // lock conflict inside a minitransaction
    kTimedOut,         // blocking minitransaction exceeded its wait bound
    kUnavailable,      // memnode crashed or unreachable
    kInvalidArgument,  // caller error
    kCorruption,       // on-memnode bytes failed an integrity check
    kNoSpace,          // allocator exhausted
    kReadOnly,         // write attempted against a read-only snapshot
    kAlreadyExists,    // insert of a key that is already present
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  // Abort tagged with its taxonomy reason (see AbortReason above).
  static Status Aborted(AbortReason reason, std::string msg = "") {
    Status st(Code::kAborted, std::move(msg));
    st.reason_ = reason;
    return st;
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status NoSpace(std::string msg = "") {
    return Status(Code::kNoSpace, std::move(msg));
  }
  static Status ReadOnly(std::string msg = "") {
    return Status(Code::kReadOnly, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "") {
    return Status(Code::kAlreadyExists, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsNoSpace() const { return code_ == Code::kNoSpace; }
  bool IsReadOnly() const { return code_ == Code::kReadOnly; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }

  // Aborted/Busy/TimedOut statuses are produced by optimistic concurrency
  // control and lock contention; the operation is safe to re-execute.
  bool IsRetryable() const {
    return code_ == Code::kAborted || code_ == Code::kBusy ||
           code_ == Code::kTimedOut;
  }

  // Statuses a transaction body may conclude with that are ANSWERS derived
  // from (possibly cached) reads rather than failures: the enclosing retry
  // loop must COMMIT — validating the read set — before reporting them,
  // and retry on a validation abort (txn::RunTransaction).
  bool IsCommittableAnswer() const {
    return ok() || code_ == Code::kNotFound || code_ == Code::kAlreadyExists;
  }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }
  // The taxonomy reason attached by Aborted(AbortReason, ...); kNone when
  // untagged. Busy/TimedOut statuses are untagged here — classify them with
  // obs::ClassifyAbort, which maps lock contention onto kLockBusy.
  AbortReason abort_reason() const { return reason_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = CodeName(code_);
    if (!msg_.empty()) {
      out += ": ";
      out += msg_;
    }
    return out;
  }

  bool operator==(const Status& other) const { return code_ == other.code_; }

  static const char* CodeName(Code c) {
    switch (c) {
      case Code::kOk: return "OK";
      case Code::kNotFound: return "NotFound";
      case Code::kAborted: return "Aborted";
      case Code::kBusy: return "Busy";
      case Code::kTimedOut: return "TimedOut";
      case Code::kUnavailable: return "Unavailable";
      case Code::kInvalidArgument: return "InvalidArgument";
      case Code::kCorruption: return "Corruption";
      case Code::kNoSpace: return "NoSpace";
      case Code::kReadOnly: return "ReadOnly";
      case Code::kAlreadyExists: return "AlreadyExists";
    }
    return "Unknown";
  }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  AbortReason reason_ = AbortReason::kNone;
  std::string msg_;
};

// Result<T> carries either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : v_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(v_).ok() && "Result(Status) requires an error");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(v_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(v_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> v_;
};

// Deliberately discard a Status/Result. Status is [[nodiscard]] everywhere,
// so a call site that really can ignore its outcome must say so explicitly —
// and the reviewer sees the reasoning next to the call:
//   IgnoreStatus(view.Put(k, v));  // churn traffic; aborts are expected
inline void IgnoreStatus(const Status&) {}
template <typename T>
inline void IgnoreStatus(const Result<T>&) {}

// Propagate a non-OK status to the caller.
#define MINUET_RETURN_NOT_OK(expr)              \
  do {                                          \
    ::minuet::Status _st = (expr);              \
    if (!_st.ok()) return _st;                  \
  } while (0)

// Assign from a Result<T>, propagating errors.
#define MINUET_ASSIGN_OR_RETURN(lhs, rexpr)     \
  auto _res_##__LINE__ = (rexpr);               \
  if (!_res_##__LINE__.ok()) return _res_##__LINE__.status(); \
  lhs = std::move(_res_##__LINE__).value();

}  // namespace minuet
