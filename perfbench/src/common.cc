#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "alloc_common.h"
#include "bench.h"

namespace perfbench {

void OpLog::Fail(const std::string& why) {
  ++failed;
  if (failed <= 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void OpLog::Max(const std::string& metric, double value) {
  double& slot = layer[metric];
  if (value > slot) slot = value;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && n - rank >= 10) {
      tail.value = v[rank - 1];
      tail.percentile = p;
      return tail;
    }
  }
  tail.value = v.back();
  tail.percentile = 100.0;
  return tail;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t SizeRounds(int seconds, double per_second) {
  const auto rounds = static_cast<std::size_t>(std::ceil(seconds * per_second));
  return std::max<std::size_t>(3, rounds);
}

cwm::AllocateRequest MakeRequest(const cwm::Engine& engine,
                                 cwm::AlgoKind algo, int budget,
                                 uint64_t seed, const RequestPins& pins) {
  const int m = engine.config().num_items();
  cwm::AllocateRequest request;
  request.algo = algo;
  request.items.resize(static_cast<std::size_t>(m));
  std::iota(request.items.begin(), request.items.end(), cwm::ItemId{0});
  request.budgets.assign(static_cast<std::size_t>(m), budget);
  request.params.imm = {.epsilon = 0.5,
                        .ell = 1.0,
                        .seed = Mix(seed, 1),
                        .num_threads = pins.rr_threads};
  request.params.estimator = {
      .num_worlds = pins.sims, .seed = Mix(seed, 2), .num_threads = 1};
  request.ranking = {.seed = Mix(seed, 3), .num_threads = 1};
  request.eval = {
      .num_worlds = pins.eval_sims, .seed = Mix(seed, 4), .num_threads = 1};
  return request;
}

bool RunAllocation(const cwm::Engine& engine, cwm::AllocateRequest request,
                   OpLog* log, cwm::AllocateResult* result) {
  const std::string name = cwm::AlgoName(request.algo);
  const cwm::BudgetVector budgets = request.budgets;
  ++log->attempted;
  const double start = NowSeconds();
  const cwm::Status status = engine.Allocate(std::move(request), result);
  const double seconds = NowSeconds() - start;
  if (!status.ok()) {
    log->Fail(name + ": " + status.ToString());
    return false;
  }
  const cwm::Allocation& allocation = result->allocation;
  const double welfare = result->stats.welfare;
  if (result->skipped ||
      allocation.num_items() != static_cast<int>(budgets.size()) ||
      !allocation.RespectsBudgets(budgets) || allocation.Empty() ||
      !std::isfinite(welfare) || welfare <= 0.0) {
    log->Fail(name + ": wrong output " + allocation.ToString());
    return false;
  }
  log->latency_ms.push_back(seconds * 1e3);
  log->welfare_total += welfare;
  log->Add("api.allocate_s", result->allocate_seconds);
  log->Add("api.evaluate_s", result->evaluate_seconds);
  log->Add("algo." + name + ".allocate_s", result->allocate_seconds);
  log->Add("rrset.sample_s", result->phases.sample_s());
  log->Add("rrset.select_s", result->phases.select_s());
  log->Add("simulate.estimate_s", result->phases.estimate_s());
  log->Max("pool.resident_mb",
           static_cast<double>(result->pool_stats.resident_bytes) / 1048576.0);
  return true;
}

bool SameResult(const cwm::AllocateResult& a, const cwm::AllocateResult& b) {
  if (a.allocation.num_items() != b.allocation.num_items()) return false;
  for (cwm::ItemId i = 0; i < a.allocation.num_items(); ++i) {
    if (a.allocation.SeedsOf(i) != b.allocation.SeedsOf(i)) return false;
  }
  return a.stats.welfare == b.stats.welfare &&
         a.stats.adopters_per_item == b.stats.adopters_per_item;
}

}  // namespace perfbench
