// Shared types of cwm_perfbench: the per-pass operation log, the
// workload interface, and the small helpers every workload uses.
//
// cwm_perfbench links libcwm and calls only its public entry points
// (RunSweep, Engine, Server, ArtifactCache, GenerateChurnDelta, the
// metrics registry and TraceRecorder). Everything timed here is timed
// from the outside of those calls.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/status.h"

namespace perfbench {

/// Everything one pass over a workload's fixed work records. A wrong
/// result, an unexpected error and a timeout all count as failed.
struct OpLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per-operation latency of every completed operation, in ms.
  std::vector<double> latency_ms;
  double welfare_total = 0.0;
  /// Layer times and counts measured from the benchmark's side (public
  /// result fields and timers around public calls), keyed by per-layer
  /// metric name. Summed over the pass.
  std::map<std::string, double> layer;

  /// Counts one failed operation and prints the first few reasons.
  void Fail(const std::string& why);
  void Add(const std::string& metric, double value) { layer[metric] += value; }
  /// Keeps the largest value seen (resident sizes).
  void Max(const std::string& metric, double value);
};

/// What the command line selects.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (caches of churn-cache).
  std::string work_dir;
};

/// One workload. main() calls SetUp several times (each call
/// replaces the previous state and is one setup_s sample) and Prepare
/// once (untimed references and warm-up). A measured pass then runs
/// rounds 0..Rounds()-1 in order, each timed on its own, then
/// AfterPass; Verify follows the untraced pass. The traced pass runs on
/// a fresh SetUp.
/// Rounds are equal shares of the fixed work, so the median round time
/// is robust to short bursts of contention on a shared machine.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Thread pins, for the stamp line.
  virtual std::string Threads() const = 0;
  /// Busy threads at any moment: program threads plus client threads.
  virtual unsigned BusyThreads() const = 0;

  virtual cwm::Status SetUp() = 0;
  virtual void Prepare(OpLog* log) { (void)log; }
  virtual std::size_t Rounds() const = 0;
  /// Untimed preparation before every round.
  virtual void BeforeRound() {}
  virtual void RunRound(std::size_t round, OpLog* log) = 0;
  /// Untimed bookkeeping after the last round of a pass.
  virtual void AfterPass(OpLog* log) { (void)log; }
  virtual void Verify(OpLog* log) { (void)log; }
};

std::unique_ptr<Workload> MakeSweepFig4(const RunConfig& config);
std::unique_ptr<Workload> MakeAllocRr(const RunConfig& config);
std::unique_ptr<Workload> MakeServeLight(const RunConfig& config);
std::unique_ptr<Workload> MakeChurnCache(const RunConfig& config);

/// SplitMix64 step: the benchmark's own generator for workload inputs.
uint64_t Mix(uint64_t a, uint64_t b);

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

/// A latency tail: the highest percentile with at least ten samples
/// beyond it (nearest rank), so the tail is always backed by data.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// Rounds of fixed work for a run of `seconds`, at `per_second` rounds
/// per second on the reference machine; at least three, so the median
/// round is not a single sample.
std::size_t SizeRounds(int seconds, double per_second);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
