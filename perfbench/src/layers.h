// Per-layer metrics of a traced pass: span self times and counts from a
// TraceRecorder, counter deltas from the metrics registry, and the
// benchmark-side layer times a workload logged. Each metric names the
// end-to-end metric and workload it should move.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

/// Counter values by name (a metrics-registry snapshot).
using CounterMap = std::map<std::string, uint64_t>;
CounterMap SnapshotCounters();

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// "<end-to-end metric> on <workload>" this metric should move.
  std::string moves;
};

/// Every per-layer metric, in report order. `traced_round_s` and
/// `untraced_round_s` are the two passes' median round times (for the
/// tracing overhead); `before`/`after` bracket the traced pass.
std::vector<LayerMetric> ComputeLayerMetrics(
    const std::vector<cwm::TraceEvent>& events, const CounterMap& before,
    const CounterMap& after, const OpLog& traced, double traced_round_s,
    double untraced_round_s, uint64_t events_dropped);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
