// Multi-threaded benchmark driver: executes operations for real (real
// threads, real conflicts, real aborts/retries) while tracing each
// operation's network behaviour, and accumulates per-thread virtual time so
// time-series experiments can bucket throughput on the modeled clock.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "bench/harness/cost_model.h"
#include "common/status.h"

namespace minuet::bench {

// Context handed to each benchmark operation callback.
struct OpContext {
  uint32_t thread = 0;
  uint64_t index = 0;          // op index within this thread
  double virtual_time_s = 0;   // this thread's modeled clock
};

struct RunOptions {
  uint32_t n_nodes = 4;        // fabric width (for per-node accounting)
  uint32_t threads = 8;
  uint64_t ops_per_thread = 1000;
  // Stop a thread when its virtual clock passes this (0 = no limit).
  double virtual_deadline_s = 0;
  bool cdb_cost = false;       // add the CDB dispatch cost per op
};

struct RunOutput {
  Aggregate agg;
  std::vector<Aggregate> per_thread;  // separates client roles
  // Completion stamps (virtual seconds) when recording is on.
  std::vector<double> completion_times;

  // Merge of a thread range [lo, hi) — e.g. "the scan threads".
  Aggregate ThreadRange(uint32_t lo, uint32_t hi) const {
    Aggregate out;
    for (uint32_t t = lo; t < hi && t < per_thread.size(); t++) {
      out.Merge(per_thread[t]);
    }
    return out;
  }
};

// Runs `op` concurrently. `op` returns a Status; failures are counted but
// do not stop the run. If `record_completions` is set, each op's virtual
// completion time is recorded (time-series figures).
RunOutput RunOps(const CostModel& model, const RunOptions& options,
                 const std::function<Status(const OpContext&)>& op,
                 bool record_completions = false);

// Shared virtual clock: mean of all thread clocks, updated as ops complete.
// Injectable into SnapshotService so the stale-snapshot policy (k) runs on
// modeled time.
class SharedVirtualClock {
 public:
  explicit SharedVirtualClock(uint32_t threads) : threads_(threads) {}
  void Advance(double seconds) {
    // atomic add on a double via CAS
    double cur = total_.load(std::memory_order_relaxed);
    while (!total_.compare_exchange_weak(cur, cur + seconds,
                                         std::memory_order_relaxed)) {
    }
  }
  double NowSeconds() const {
    return total_.load(std::memory_order_relaxed) / threads_;
  }
  std::function<double()> AsClock() {
    return [this] { return NowSeconds(); };
  }

 private:
  std::atomic<double> total_{0};
  uint32_t threads_;
};

}  // namespace minuet::bench
