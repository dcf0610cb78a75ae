// Helpers for the tier-1 cases that hold the benchmark gates: wall-clock
// ratios between two code paths, and the per-op cost of a traced
// read-mostly mix.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"
#include "net/fabric.h"

// Sanitizer instrumentation changes relative costs, so a timing ratio
// measured under it says nothing about the code; the gates skip there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MINUET_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MINUET_TEST_SANITIZED 1
#endif
#endif

namespace minuet::testing {

#ifdef MINUET_TEST_SANITIZED
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif

struct SideMinima {
  double a_ns = std::numeric_limits<double>::infinity();
  double b_ns = std::numeric_limits<double>::infinity();
};

// Calls a(i) and b(i) for i in [0, iters) once per pass, alternating which
// side goes first, and returns each side's fastest pass in ns per call.
// Load from concurrently running tests slows some passes of either side,
// but leaves the minima comparing the two code paths.
template <typename A, typename B>
SideMinima AlternatingMinima(int passes, uint64_t iters, A&& a, B&& b) {
  auto time_pass = [iters](auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < iters; i++) fn(i);
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() / static_cast<double>(iters);
  };
  SideMinima m;
  for (int p = 0; p < passes; p++) {
    if (p % 2 == 0) {
      m.a_ns = std::min(m.a_ns, time_pass(a));
      m.b_ns = std::min(m.b_ns, time_pass(b));
    } else {
      m.b_ns = std::min(m.b_ns, time_pass(b));
      m.a_ns = std::min(m.a_ns, time_pass(a));
    }
  }
  return m;
}

struct MixCost {
  double rounds = 0;        // coordinator rounds per op
  double msgs = 0;          // messages per op
  double busiest_msgs = 0;  // the busiest memnode's messages per op
};

// Runs `ops` ops of a 95% Get / 5% Put mix over keys [0, keys) of `tree`,
// round-robin over `proxies`, tracing each op. The figure benchmarks' cost
// model (bench/harness/cost_model.h) prices an op's latency from its rounds
// and messages, and bounds peak throughput by memnode capacity /
// busiest_msgs.
inline MixCost RunReadMostlyMix(Cluster& cluster, const TreeHandle& tree,
                                uint64_t keys,
                                const std::vector<uint32_t>& proxies,
                                uint64_t ops, uint64_t seed) {
  Rng rng(seed);
  net::OpTrace trace;
  uint64_t rounds = 0;
  uint64_t msgs = 0;
  std::vector<uint64_t> per_node(cluster.n_memnodes(), 0);
  std::string value;
  for (uint64_t i = 0; i < ops; i++) {
    Proxy& proxy = cluster.proxy(proxies[i % proxies.size()]);
    const std::string key = EncodeUserKey(rng.Uniform(keys));
    trace.Reset(per_node.size());
    net::Fabric::SetThreadTrace(&trace);
    const Status st = rng.Uniform(100) < 95
                          ? proxy.Get(tree, key, &value)
                          : proxy.Put(tree, key, EncodeValue(rng.Next()));
    net::Fabric::SetThreadTrace(nullptr);
    EXPECT_TRUE(st.ok()) << st.ToString();
    rounds += trace.round_trips;
    msgs += trace.messages;
    for (size_t m = 0; m < per_node.size(); m++) {
      per_node[m] += trace.per_node[m];
    }
  }
  MixCost c;
  c.rounds = static_cast<double>(rounds) / ops;
  c.msgs = static_cast<double>(msgs) / ops;
  c.busiest_msgs =
      static_cast<double>(*std::max_element(per_node.begin(), per_node.end())) /
      ops;
  return c;
}

}  // namespace minuet::testing
