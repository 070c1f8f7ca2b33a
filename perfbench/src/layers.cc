#include "layers.h"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.h"

namespace perfbench {
namespace {

enum class Source {
  kSpanTotal,  ///< summed span duration, children included
  kSpanSelf,   ///< summed span duration minus same-thread child spans
  kSpanCount,  ///< number of spans
  kCounter,    ///< metrics-registry counter delta over the traced pass
  kLog,        ///< measured from the benchmark's side (OpLog::layer)
};

struct Row {
  const char* name;
  const char* unit;
  Source source;
  const char* key;
  const char* moves;
};

constexpr const char* kAlgoMoves = "wall_s, p50_ms on sweep-fig4, alloc-rr";

// The per-layer table: which end-to-end metric each layer metric should
// move, and on which workload. Ratios are appended after the table.
constexpr Row kRows[] = {
    {"scenario.build_networks_s", "s", Source::kSpanTotal,
     "scenario.build_networks", "setup_s, wall_s on sweep-fig4"},
    {"scenario.task_s", "s", Source::kSpanTotal, "scenario.task",
     "wall_s on sweep-fig4"},
    {"scenario.task.self_s", "s", Source::kSpanSelf, "scenario.task",
     "wall_s on sweep-fig4"},
    {"api.open_s", "s", Source::kLog, "api.open_s",
     "setup_s on alloc-rr, churn-cache"},
    {"api.allocate_s", "s", Source::kSpanTotal, "api.allocate",
     "p50_ms on alloc-rr, churn-cache"},
    {"api.allocate.self_s", "s", Source::kSpanSelf, "api.allocate",
     "p50_ms on alloc-rr, churn-cache"},
    {"api.evaluate_s", "s", Source::kSpanTotal, "api.evaluate",
     "p50_ms on alloc-rr, churn-cache"},
    {"algo.greedyWM.allocate_s", "s", Source::kLog, "algo.greedyWM.allocate_s",
     kAlgoMoves},
    {"algo.Balance-C.allocate_s", "s", Source::kLog,
     "algo.Balance-C.allocate_s", kAlgoMoves},
    {"algo.TCIM.allocate_s", "s", Source::kLog, "algo.TCIM.allocate_s",
     kAlgoMoves},
    {"algo.MaxGRD.allocate_s", "s", Source::kLog, "algo.MaxGRD.allocate_s",
     kAlgoMoves},
    {"algo.SeqGRD.allocate_s", "s", Source::kLog, "algo.SeqGRD.allocate_s",
     kAlgoMoves},
    {"algo.SeqGRD-NM.allocate_s", "s", Source::kLog,
     "algo.SeqGRD-NM.allocate_s", kAlgoMoves},
    {"algo.HighDegree.allocate_s", "s", Source::kLog,
     "algo.HighDegree.allocate_s", "p50_ms on serve-light"},
    {"algo.DegDiscount.allocate_s", "s", Source::kLog,
     "algo.DegDiscount.allocate_s", "p50_ms on serve-light"},
    {"rrset.sample_s", "s", Source::kLog, "rrset.sample_s",
     "p50_ms, throughput on alloc-rr"},
    {"rrset.select_s", "s", Source::kLog, "rrset.select_s",
     "p50_ms, throughput on alloc-rr"},
    {"rr.sample_era.n", "count", Source::kSpanCount, "rr.sample_era",
     "p50_ms on alloc-rr"},
    {"rr.sample_era.self_s", "s", Source::kSpanSelf, "rr.sample_era",
     "p50_ms on alloc-rr"},
    {"rr.select_nodes.self_s", "s", Source::kSpanSelf, "rr.select_nodes",
     "p50_ms on alloc-rr"},
    {"simulate.estimate_s", "s", Source::kLog, "simulate.estimate_s",
     "wall_s, cpu_s on sweep-fig4"},
    {"simulate.materialize_pool.self_s", "s", Source::kSpanSelf,
     "simulate.materialize_pool", "wall_s, cpu_s on sweep-fig4"},
    {"simulate.stats_batch.self_s", "s", Source::kSpanSelf,
     "simulate.stats_batch", "wall_s, cpu_s on sweep-fig4"},
    {"simulate.marginal_batch.self_s", "s", Source::kSpanSelf,
     "simulate.marginal_batch", "wall_s, cpu_s on sweep-fig4"},
    {"simulate.patch_pool_s", "s", Source::kSpanTotal, "simulate.patch_pool",
     "wall_s on churn-cache"},
    {"simulate.packed_worlds", "count", Source::kCounter,
     "simulate.packed_worlds", "wall_s, cpu_s on sweep-fig4"},
    {"pool.builds", "count", Source::kCounter, "pool.builds",
     "peak_rss_mb, wall_s on sweep-fig4"},
    {"pool.reuses", "count", Source::kCounter, "pool.reuses",
     "peak_rss_mb, wall_s on sweep-fig4"},
    {"pool.evictions", "count", Source::kCounter, "pool.evictions",
     "peak_rss_mb, wall_s on sweep-fig4"},
    {"pool.patches", "count", Source::kCounter, "pool.patches",
     "wall_s on churn-cache"},
    {"pool.resident_mb", "MB", Source::kLog, "pool.resident_mb",
     "peak_rss_mb on sweep-fig4"},
    {"store.store_rr_s", "s", Source::kSpanTotal, "store.store_rr",
     "throughput, wall_s on churn-cache"},
    {"store.load_rr_s", "s", Source::kSpanTotal, "store.load_rr",
     "throughput, wall_s on churn-cache"},
    {"cache.bytes_written", "count", Source::kCounter, "cache.bytes_written",
     "throughput, wall_s on churn-cache"},
    {"cache.rr_hits", "count", Source::kCounter, "cache.rr_hits",
     "throughput on churn-cache"},
    {"cache.rr_misses", "count", Source::kCounter, "cache.rr_misses",
     "throughput on churn-cache"},
    {"delta.apply_s", "s", Source::kLog, "delta.apply_s",
     "throughput on churn-cache"},
    {"delta.eras_patched", "count", Source::kCounter, "delta.eras_patched",
     "throughput on churn-cache"},
    {"delta.sets_reused", "count", Source::kCounter, "delta.sets_reused",
     "throughput on churn-cache"},
    {"delta.sets_resampled", "count", Source::kCounter, "delta.sets_resampled",
     "throughput on churn-cache"},
    {"serve.overhead_p50_ms", "ms", Source::kLog, "serve.overhead_p50_ms",
     "p50_ms, throughput on serve-light"},
    {"serve.overhead_tail_ms", "ms", Source::kLog, "serve.overhead_tail_ms",
     "tail_ms on serve-light"},
    {"serve.rtt_p50_ms", "ms", Source::kLog, "serve.rtt_p50_ms",
     "p50_ms on serve-light"},
    {"serve.execute_s", "s", Source::kSpanTotal, "serve.execute",
     "throughput on serve-light"},
    {"serve.requests", "count", Source::kCounter, "serve.requests",
     "throughput on serve-light"},
    {"serve.rejected", "count", Source::kCounter, "serve.rejected",
     "tail_ms on serve-light"},
    {"serve.errors", "count", Source::kCounter, "serve.errors",
     "throughput on serve-light"},
};

struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  uint64_t count = 0;
};

// Self time = span duration minus the part of it covered by child spans
// on the same thread. Spans on one thread nest (they are RAII scopes),
// so direct children are disjoint and a stack finds them.
std::unordered_map<std::string, SpanTotals> SumSpans(
    const std::vector<cwm::TraceEvent>& events) {
  std::unordered_map<uint32_t, std::vector<const cwm::TraceEvent*>> by_thread;
  for (const cwm::TraceEvent& e : events) {
    if (e.ph == 'X') by_thread[e.tid].push_back(&e);
  }
  std::unordered_map<std::string, SpanTotals> totals;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const cwm::TraceEvent* a, const cwm::TraceEvent* b) {
                return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns
                                            : a->dur_ns > b->dur_ns;
              });
    std::vector<double> self_ns(spans.size());
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const cwm::TraceEvent& e = *spans[i];
      while (!stack.empty()) {
        const cwm::TraceEvent& top = *spans[stack.back()];
        if (e.ts_ns + e.dur_ns <= top.ts_ns + top.dur_ns) break;
        stack.pop_back();
      }
      self_ns[i] = static_cast<double>(e.dur_ns);
      if (!stack.empty()) self_ns[stack.back()] -= static_cast<double>(e.dur_ns);
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i]->name];
      t.total_s += static_cast<double>(spans[i]->dur_ns) * 1e-9;
      t.self_s += self_ns[i] * 1e-9;
      ++t.count;
    }
  }
  return totals;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

CounterMap SnapshotCounters() {
  CounterMap out;
  for (const auto& [name, value] :
       cwm::MetricsRegistry::Global().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

std::vector<LayerMetric> ComputeLayerMetrics(
    const std::vector<cwm::TraceEvent>& events, const CounterMap& before,
    const CounterMap& after, const OpLog& traced, double traced_round_s,
    double untraced_round_s, uint64_t events_dropped) {
  const auto spans = SumSpans(events);
  auto counter = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    const uint64_t av = a == after.end() ? 0 : a->second;
    const uint64_t bv = b == before.end() ? 0 : b->second;
    return static_cast<double>(av - bv);
  };
  std::vector<LayerMetric> out;
  std::map<std::string, double> value;
  for (const Row& row : kRows) {
    double v = 0.0;
    const auto span = spans.find(row.key);
    switch (row.source) {
      case Source::kSpanTotal:
        if (span != spans.end()) v = span->second.total_s;
        break;
      case Source::kSpanSelf:
        if (span != spans.end()) v = span->second.self_s;
        break;
      case Source::kSpanCount:
        if (span != spans.end()) v = static_cast<double>(span->second.count);
        break;
      case Source::kCounter:
        v = counter(row.key);
        break;
      case Source::kLog: {
        const auto it = traced.layer.find(row.key);
        if (it != traced.layer.end()) v = it->second;
        break;
      }
    }
    value[row.name] = v;
    out.push_back({row.name, row.unit, v, row.moves});
  }
  out.push_back({"pool.reuse_ratio", "ratio",
                 Ratio(value["pool.reuses"],
                       value["pool.reuses"] + value["pool.builds"]),
                 "wall_s on sweep-fig4"});
  out.push_back({"cache.rr_hit_ratio", "ratio",
                 Ratio(value["cache.rr_hits"],
                       value["cache.rr_hits"] + value["cache.rr_misses"]),
                 "throughput on churn-cache"});
  out.push_back({"delta.patched_era_use_ratio", "ratio",
                 Ratio(value["cache.rr_hits"], value["delta.eras_patched"]),
                 "throughput on churn-cache"});
  out.push_back({"obs.trace_overhead_frac", "frac",
                 Ratio(traced_round_s, untraced_round_s) - 1.0,
                 "none: must stay small"});
  out.push_back({"obs.trace_events", "count", static_cast<double>(events.size()),
                 "none"});
  out.push_back({"obs.trace_events_dropped", "count",
                 static_cast<double>(events_dropped), "none"});
  return out;
}

}  // namespace perfbench
