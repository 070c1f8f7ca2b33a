// Helpers shared by the workloads that call Engine::Allocate directly
// (alloc-rr, churn-cache): pinned request construction, recording a
// result into the operation log, and the output checks.
#ifndef PERFBENCH_ALLOC_COMMON_H_
#define PERFBENCH_ALLOC_COMMON_H_

#include <cstdint>
#include <string>

#include "api/engine.h"
#include "bench.h"

namespace perfbench {

/// Thread and accuracy pins of one direct allocation.
struct RequestPins {
  unsigned rr_threads = 1;
  int sims = 16;
  int eval_sims = 16;
};

/// A request for every item of the engine's configuration at a uniform
/// per-item `budget`, with every seed derived from `seed` and every
/// thread knob pinned (estimator and evaluation at 1 thread).
cwm::AllocateRequest MakeRequest(const cwm::Engine& engine,
                                 cwm::AlgoKind algo, int budget,
                                 uint64_t seed, const RequestPins& pins);

/// Runs one allocation as one operation: times it, checks the output
/// (budgets respected, one seed set per item, finite positive welfare),
/// and records latency, welfare and layer times. Returns false (and
/// counts a failure) on an error or a wrong output.
bool RunAllocation(const cwm::Engine& engine, cwm::AllocateRequest request,
                   OpLog* log, cwm::AllocateResult* result);

/// Bitwise equality of two results' allocations and welfare.
bool SameResult(const cwm::AllocateResult& a, const cwm::AllocateResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COMMON_H_
