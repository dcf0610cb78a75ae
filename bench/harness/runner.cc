#include "bench/harness/runner.h"

namespace minuet::bench {

RunOutput RunOps(const CostModel& model, const RunOptions& options,
                 const std::function<Status(const OpContext&)>& op,
                 bool record_completions) {
  std::vector<Aggregate> per_thread(options.threads);
  std::vector<std::vector<double>> completions(options.threads);

  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < options.threads; t++) {
    workers.emplace_back([&, t] {
      Aggregate& agg = per_thread[t];
      net::OpTrace trace;
      OpContext ctx;
      ctx.thread = t;
      double clock_s = 0;
      for (uint64_t i = 0; i < options.ops_per_thread; i++) {
        if (options.virtual_deadline_s > 0 &&
            clock_s >= options.virtual_deadline_s) {
          break;
        }
        ctx.index = i;
        ctx.virtual_time_s = clock_s;
        trace.Reset(options.n_nodes);
        net::Fabric::SetThreadTrace(&trace);
        Status st = op(ctx);
        net::Fabric::SetThreadTrace(nullptr);
        const double latency_ms = model.OpLatencyMs(trace, options.cdb_cost);
        clock_s += latency_ms / 1000.0;
        if (st.ok() || st.IsNotFound()) {
          agg.Add(trace, latency_ms);
        } else {
          agg.failed++;
        }
        if (record_completions) completions[t].push_back(clock_s);
      }
    });
  }
  for (auto& w : workers) w.join();

  RunOutput out;
  out.per_thread = per_thread;
  for (uint32_t t = 0; t < options.threads; t++) {
    out.agg.Merge(per_thread[t]);
    if (record_completions) {
      out.completion_times.insert(out.completion_times.end(),
                                  completions[t].begin(),
                                  completions[t].end());
    }
  }
  return out;
}

}  // namespace minuet::bench
