// alloc-rr: a closed loop of Engine::Allocate on orkut-like at scale 0.5.
//
// RR-set sampling does most of the work and Monte-Carlo estimation little
// (16 estimator and 16 evaluation worlds), so an rrset change shows here
// and a simulate change should not. One round runs every (algorithm,
// budget) pair once in a seed-shuffled order with fresh request seeds,
// so every seed runs the same mix.
#include <algorithm>
#include <memory>
#include <vector>

#include "alloc_common.h"
#include "bench.h"
#include "scenario/scenario.h"

namespace perfbench {
namespace {

using cwm::AlgoKind;

constexpr AlgoKind kAlgos[] = {AlgoKind::kSeqGrdNm, AlgoKind::kMaxGrd,
                               AlgoKind::kTcim};
constexpr int kBudgets[] = {10, 20, 30, 40, 50};
constexpr std::size_t kRoundOps = std::size(kAlgos) * std::size(kBudgets);
constexpr RequestPins kPins = {.rr_threads = 2, .sims = 16, .eval_sims = 16};
/// Rounds (one rotation each) per second of --seconds on the reference
/// machine.
constexpr double kRoundsPerSecond = 7.0 / kRoundOps;

struct Op {
  AlgoKind algo;
  int budget;
  uint64_t seed;
};

class AllocRr final : public Workload {
 public:
  explicit AllocRr(const RunConfig& config) : seed_(config.seed) {
    const std::size_t rounds = SizeRounds(config.seconds, kRoundsPerSecond);
    for (std::size_t base = 0; base < rounds * kRoundOps; base += kRoundOps) {
      std::vector<Op> round;
      for (AlgoKind algo : kAlgos) {
        for (int budget : kBudgets) round.push_back({algo, budget, 0});
      }
      // Fisher-Yates with the benchmark's own generator.
      for (std::size_t i = round.size() - 1; i > 0; --i) {
        std::swap(round[i], round[Mix(Mix(seed_, base), i) % (i + 1)]);
      }
      for (Op& op : round) {
        op.seed = Mix(seed_, ops_.size() + 1000);
        ops_.push_back(op);
      }
    }
  }

  std::string Threads() const override {
    return "rr=2 estimator=1 eval=1 (one caller thread)";
  }
  unsigned BusyThreads() const override { return kPins.rr_threads; }

  cwm::Status SetUp() override {
    cwm::NetworkSpec network;
    network.family = "orkut-like";
    cwm::EngineOptions options;
    options.snapshot_budget_bytes = 256ull << 20;
    auto engine = cwm::Engine::Open(network, {.name = "lastfm"}, options,
                                    /*scale=*/0.5);
    if (!engine.ok()) return engine.status();
    engine_ = std::move(engine).value();
    return cwm::Status::OK();
  }

  void Prepare(OpLog* log) override {
    // Warm-up on a seed the measured pass never uses.
    cwm::AllocateResult result;
    OpLog warm;
    if (!RunAllocation(*engine_,
                       MakeRequest(*engine_, AlgoKind::kTcim, 10,
                                   Mix(seed_, 7), kPins),
                       &warm, &result)) {
      log->Fail("alloc-rr warm-up failed");
    }
  }

  std::size_t Rounds() const override { return ops_.size() / kRoundOps; }

  void RunRound(std::size_t round, OpLog* log) override {
    results_.resize(ops_.size());
    for (std::size_t i = round * kRoundOps; i < (round + 1) * kRoundOps; ++i) {
      const Op& op = ops_[i];
      RunAllocation(*engine_,
                    MakeRequest(*engine_, op.algo, op.budget, op.seed, kPins),
                    log, &results_[i]);
    }
  }

  void Verify(OpLog* log) override {
    // RR sampling is deterministic at any thread count: the first
    // operation of each algorithm, replayed at one RR thread, must give
    // the same allocation and welfare bit for bit.
    for (AlgoKind algo : kAlgos) {
      const auto it = std::find_if(ops_.begin(), ops_.end(),
                                   [&](const Op& op) { return op.algo == algo; });
      const Op& op = *it;
      RequestPins one = kPins;
      one.rr_threads = 1;
      cwm::AllocateResult replay;
      OpLog scratch;
      if (!RunAllocation(*engine_,
                         MakeRequest(*engine_, op.algo, op.budget, op.seed, one),
                         &scratch, &replay) ||
          !SameResult(replay, results_[it - ops_.begin()])) {
        log->Fail(std::string("alloc-rr: ") + cwm::AlgoName(algo) +
                  " differs between 2 RR threads and 1");
      }
    }
  }

 private:
  const uint64_t seed_;
  std::vector<Op> ops_;
  std::unique_ptr<cwm::Engine> engine_;
  std::vector<cwm::AllocateResult> results_;
};

}  // namespace

std::unique_ptr<Workload> MakeAllocRr(const RunConfig& config) {
  return std::make_unique<AllocRr>(config);
}

}  // namespace perfbench
