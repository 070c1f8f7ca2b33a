// sweep-fig4: RunSweep over the registered fig4-welfare scenario — the
// paper's headline experiment (douban-movie-like, C1/C2/C3, budgets
// 10/30/50, six algorithms) with 50 estimator and 200 evaluation worlds.
//
// The simulate layer does most of the work: materializing world pools
// and the batched welfare evaluations. Rows must match, byte for byte,
// the rows of a 1-thread sweep of the same spec run before the timed
// rounds (the determinism contract: results never depend on the thread
// count).
#include <malloc.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"

namespace perfbench {
namespace {

constexpr unsigned kSweepThreads = 2;
/// Rounds (one sweep each) per second of --seconds on the reference
/// machine.
constexpr double kRoundsPerSecond = 0.3;

class SweepFig4 final : public Workload {
 public:
  explicit SweepFig4(const RunConfig& config)
      : rounds_(SizeRounds(config.seconds, kRoundsPerSecond)) {
    spec_ = cwm::GlobalScenarioRegistry().Find("fig4-welfare").value();
    spec_.seeds = {Mix(config.seed, 11) % 1000000007ull};
    spec_.sims = 50;
    spec_.eval_sims = 200;
    spec_.rr_threads = 1;
    spec_.cache_dir.clear();
  }

  std::string Threads() const override {
    return "sweep=2 inner=1 rr=1 (reference sweep: 1)";
  }
  unsigned BusyThreads() const override { return kSweepThreads; }

  // The sweep's own first step, timed on its own: building the
  // scenario's network and utility configuration.
  cwm::Status SetUp() override {
    auto engine = cwm::Engine::Open(spec_.networks.front(),
                                    spec_.configs.front());
    return engine.status();
  }

  void Prepare(OpLog* log) override {
    cwm::StatusOr<cwm::SweepResult> reference = Sweep(1, nullptr);
    if (!reference.ok()) {
      log->Fail("reference sweep: " + reference.status().ToString());
      return;
    }
    for (const cwm::TaskResult& row : reference.value().rows) {
      reference_.push_back(cwm::TaskResultToJson(row));
    }
  }

  std::size_t Rounds() const override { return rounds_; }

  // A sweep is one process's work (cwm_run): hand the freed heap of the
  // previous one back to the OS, so repeating it here neither inflates
  // peak_rss_mb with fragmentation nor gives a round pre-faulted memory.
  void BeforeRound() override { malloc_trim(0); }

  void RunRound(std::size_t /*round*/, OpLog* log) override {
    Check(Sweep(kSweepThreads, log), log);
  }

 private:
  void Check(const cwm::StatusOr<cwm::SweepResult>& result, OpLog* log) {
    if (!result.ok()) {
      ++log->attempted;
      log->Fail("sweep: " + result.status().ToString());
      return;
    }
    const std::vector<cwm::TaskResult>& rows = result.value().rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const cwm::TaskResult& row = rows[i];
      if (row.skipped) continue;  // gated slow baselines do no work
      ++log->attempted;
      if (i >= reference_.size() ||
          cwm::TaskResultToJson(row) != reference_[i]) {
        log->Fail("sweep-fig4 row " + std::to_string(i) +
                  " differs from the 1-thread sweep");
        continue;
      }
      log->welfare_total += row.welfare;
      log->Add("algo." + row.algorithm + ".allocate_s", row.seconds);
      log->Add("rrset.sample_s", row.sample_s);
      log->Add("rrset.select_s", row.select_s);
      log->Add("simulate.estimate_s", row.estimate_s);
    }
    if (rows.size() != reference_.size()) {
      log->Fail("sweep-fig4 row count differs from the 1-thread sweep");
    }
    log->Max("pool.resident_mb",
             static_cast<double>(result.value().pool_stats.resident_bytes) /
                 1048576.0);
  }

  // Per-task latency is the time between two completions on the same
  // worker thread (the callback runs on the worker right after its
  // task); a thread's first completion has no known start and is left
  // out.
  cwm::StatusOr<cwm::SweepResult> Sweep(unsigned threads, OpLog* log) {
    cwm::SweepOptions options;
    options.num_threads = threads;
    options.inner_threads = 1;
    options.rr_threads = 1;
    options.snapshot_budget_bytes = 256ull << 20;
    options.scale = 1.0;
    options.cache_dir.clear();
    options.packed_kernel = true;
    std::mutex mutex;
    std::map<std::thread::id, double> last_completion;
    if (log != nullptr) {
      options.on_result = [&](const cwm::TaskResult& row) {
        const double now = NowSeconds();
        const std::lock_guard<std::mutex> lock(mutex);
        auto [it, first] =
            last_completion.try_emplace(std::this_thread::get_id(), now);
        if (!first && !row.skipped) {
          log->latency_ms.push_back((now - it->second) * 1e3);
        }
        it->second = now;
      };
    }
    return cwm::RunSweep(spec_, options);
  }

  const std::size_t rounds_;
  cwm::ScenarioSpec spec_;
  std::vector<std::string> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeSweepFig4(const RunConfig& config) {
  return std::make_unique<SweepFig4>(config);
}

}  // namespace perfbench
