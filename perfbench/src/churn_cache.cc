// churn-cache: an Engine over an ArtifactCache in a fresh directory,
// driven through graph churn. Each step applies a 10-edit
// GenerateChurnDelta through Engine::ApplyDelta, then runs SeqGRD-NM,
// MaxGRD and TCIM at one fixed request seed.
//
// This is the write side of the delta and store layers (RR eras
// re-keyed and patched, new eras stored, pools patched) next to their
// read side (RR hits). No other workload touches it. The final step must
// match a cold, cache-less Engine opened on the composed graph.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "alloc_common.h"
#include "bench.h"
#include "delta/delta_log.h"
#include "scenario/scenario.h"
#include "store/artifact_cache.h"

namespace perfbench {
namespace {

using cwm::AlgoKind;

constexpr AlgoKind kAlgos[] = {AlgoKind::kSeqGrdNm, AlgoKind::kMaxGrd,
                               AlgoKind::kTcim};
constexpr std::size_t kEditsPerStep = 10;
constexpr int kBudget = 10;
constexpr RequestPins kPins = {.rr_threads = 1, .sims = 16, .eval_sims = 128};
/// The cache is collected (oldest first, by mtime in whole seconds)
/// down to this size before every step: eras keyed to graphs older than
/// the current one are never read again, and a step writes ~16 MB, so
/// the last second's eras always stay.
constexpr uint64_t kCacheBytes = 256ull << 20;
/// Rounds (one churn step each) per second of --seconds on the
/// reference machine.
constexpr double kRoundsPerSecond = 6.0;

class ChurnCache final : public Workload {
 public:
  explicit ChurnCache(const RunConfig& config)
      : seed_(config.seed),
        work_dir_(config.work_dir),
        steps_(SizeRounds(config.seconds, kRoundsPerSecond)) {}

  ~ChurnCache() override { RemoveDirs(); }

  std::string Threads() const override {
    return "rr=1 estimator=1 eval=1 (one caller thread)";
  }
  unsigned BusyThreads() const override { return 1; }

  cwm::Status SetUp() override {
    engine_.reset();
    cache_.reset();
    dirs_.push_back(work_dir_ + "/churn-cache-" + std::to_string(dirs_.size()));
    auto cache = cwm::ArtifactCache::Open(dirs_.back());
    if (!cache.ok()) return cache.status();
    cache_ = std::move(cache).value();
    cwm::NetworkSpec network;
    network.family = "nethept-like";
    cwm::EngineOptions options;
    options.cache = cache_.get();
    options.snapshot_budget_bytes = 256ull << 20;
    auto engine = cwm::Engine::Open(network, {.name = "C1"}, options);
    if (!engine.ok()) return engine.status();
    engine_ = std::move(engine).value();
    return cwm::Status::OK();
  }

  std::size_t Rounds() const override { return steps_; }

  void BeforeRound() override { cache_->Gc(kCacheBytes); }

  void RunRound(std::size_t step, OpLog* log) override {
    last_.resize(std::size(kAlgos));
    const cwm::DeltaLog delta = cwm::GenerateChurnDelta(
        engine_->graph(), Mix(seed_, 100 + step), kEditsPerStep);
    const double start = NowSeconds();
    const cwm::Status applied = engine_->ApplyDelta(delta);
    log->Add("delta.apply_s", NowSeconds() - start);
    if (!applied.ok()) {
      log->attempted += std::size(kAlgos);
      log->Fail("ApplyDelta: " + applied.ToString());
      log->failed += std::size(kAlgos) - 1;
      return;
    }
    for (std::size_t a = 0; a < std::size(kAlgos); ++a) {
      RunAllocation(*engine_, Request(*engine_, kAlgos[a]), log, &last_[a]);
    }
    // A degraded cache keeps results right but stops measuring the
    // store's write side: count the step as failed.
    const cwm::CacheStats stats = cache_->stats();
    if (stats.writes_disabled || stats.quarantined != 0) {
      log->Fail("churn-cache: the artifact cache degraded");
    }
  }

  void Verify(OpLog* log) override {
    {
      // Borrows engine_'s graph and config, so it must go before engine_.
      const cwm::Engine cold(engine_->graph(), engine_->config());
      for (std::size_t a = 0; a < std::size(kAlgos); ++a) {
        cwm::AllocateResult result;
        OpLog scratch;
        if (!RunAllocation(cold, Request(cold, kAlgos[a]), &scratch, &result) ||
            !SameResult(result, last_[a])) {
          log->Fail(std::string("churn-cache: final ") +
                    cwm::AlgoName(kAlgos[a]) + " differs from a cold engine");
        }
      }
    }
    RemoveDirs();  // frees the tmpfs for a traced pass
  }

 private:
  cwm::AllocateRequest Request(const cwm::Engine& engine, AlgoKind algo) const {
    return MakeRequest(engine, algo, kBudget, Mix(seed_, 21), kPins);
  }

  // Removes every cache directory this workload made. Never inside a
  // timed interval: unlinking fsync'd files waits on the disk.
  void RemoveDirs() {
    engine_.reset();
    cache_.reset();
    for (const std::string& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
    dirs_.clear();
  }

  const uint64_t seed_;
  const std::string work_dir_;
  const std::size_t steps_;
  std::vector<std::string> dirs_;
  std::unique_ptr<cwm::ArtifactCache> cache_;
  std::unique_ptr<cwm::Engine> engine_;
  std::vector<cwm::AllocateResult> last_;
};

}  // namespace

std::unique_ptr<Workload> MakeChurnCache(const RunConfig& config) {
  return std::make_unique<ChurnCache>(config);
}

}  // namespace perfbench
