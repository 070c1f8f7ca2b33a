// cwm_perfbench — runs one benchmark workload against libcwm and prints
// its metrics. perfbench/run.py builds this binary and is the command
// to use; see perfbench/WORKLOADS.md for the workloads and metrics.
//
//   cwm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR
//
// --trace 0: set up three times (setup_s is the median), warm up, run
// the rounds of fixed work untraced, verify, print the end-to-end
// metrics.
// --trace 1: run the same rounds untraced and then traced on fresh
// state, print the per-layer metrics and the per-layer report.
// The last stdout line is always one JSON object with the keys
// correct, attempted, failed and metrics.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "obs/trace.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetUps = 3;

struct Usage {
  double wall_s;
  double cpu_s;
};

Usage Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                ru.ru_stime.tv_usec);
  return {NowSeconds(), cpu};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs fs{};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x9123683E: return "btrfs";
    case 0x58465342: return "xfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
  }
}

// Thread knobs and the cache location come only from the command line:
// no CWM_* variable (CWM_CACHE_DIR, CWM_SNAPSHOT_BUDGET_MB, CWM_PACKED,
// CWM_FAILPOINTS, ...) may leak into a run.
void ClearProgramEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("CWM_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int BadUsage(const char* why) {
  std::fprintf(stderr,
               "cwm_perfbench: %s\nusage: cwm_perfbench --workload "
               "sweep-fig4|alloc-rr|serve-light|churn-cache --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

// One pass over the workload's fixed work, each round bracketed by wall
// and CPU time.
struct PassTimes {
  double wall_s = 0.0;  ///< whole pass
  std::vector<double> round_wall_s;
  std::vector<double> round_cpu_s;
  /// log->latency_ms.size() at the end of each round.
  std::vector<std::size_t> round_end_sample;
};

PassTimes Pass(Workload& workload, OpLog* log) {
  PassTimes times;
  for (std::size_t r = 0; r < workload.Rounds(); ++r) {
    workload.BeforeRound();
    const Usage start = Now();
    workload.RunRound(r, log);
    const Usage end = Now();
    times.wall_s += end.wall_s - start.wall_s;
    times.round_wall_s.push_back(end.wall_s - start.wall_s);
    times.round_cpu_s.push_back(end.cpu_s - start.cpu_s);
    times.round_end_sample.push_back(log->latency_ms.size());
  }
  workload.AfterPass(log);
  return times;
}

/// Fewest latency samples in every round for tail_ms to be taken per
/// round: enough that each round's tail is p99 or higher.
constexpr std::size_t kRoundTailSamples = 1000;

// tail_ms. When every round has kRoundTailSamples latencies, it is the
// median over rounds of each round's tail, as wall_s is a median round,
// so a burst of host contention in a few rounds does not set it;
// otherwise it is the tail of the whole pass. Sets *rounds to the
// number of rounds it is the median of (1 for the whole pass).
Tail TailMs(const std::vector<double>& latency_ms, const PassTimes& times,
            std::size_t* rounds) {
  std::vector<Tail> tails;
  std::size_t begin = 0;
  for (const std::size_t end : times.round_end_sample) {
    if (end - begin < kRoundTailSamples) {
      *rounds = 1;
      return TailOf(latency_ms);
    }
    tails.push_back(TailOf(std::vector<double>(latency_ms.begin() + begin,
                                               latency_ms.begin() + end)));
    begin = end;
  }
  std::vector<double> values;
  for (const Tail& t : tails) values.push_back(t.value);
  Tail tail = tails.at(tails.size() / 2);
  tail.value = Median(values);
  *rounds = tails.size();
  return tail;
}

// One set-up; false, after saying why, when it failed.
bool SetUp(Workload& workload) {
  const cwm::Status status = workload.SetUp();
  if (!status.ok()) {
    std::fprintf(stderr, "cwm_perfbench: set-up failed: %s\n",
                 status.ToString().c_str());
  }
  return status.ok();
}

int Main(int argc, char** argv) {
  ClearProgramEnvironment();
  RunConfig config;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else {
      return BadUsage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1 || config.work_dir.empty() || config.seconds < 1 ||
      (trace != 0 && trace != 1)) {
    return BadUsage("missing or malformed arguments");
  }
  config.trace = trace == 1;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "cwm_perfbench: built as '%s'; only Release builds "
                         "are measured\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::unique_ptr<Workload> workload;
  if (config.workload == "sweep-fig4") {
    workload = MakeSweepFig4(config);
  } else if (config.workload == "alloc-rr") {
    workload = MakeAllocRr(config);
  } else if (config.workload == "serve-light") {
    workload = MakeServeLight(config);
  } else if (config.workload == "churn-cache") {
    workload = MakeChurnCache(config);
  } else {
    return BadUsage(("unknown workload " + config.workload).c_str());
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (workload->BusyThreads() > nproc) {
    std::fprintf(stderr, "cwm_perfbench: %s needs %u threads, machine has %u\n",
                 config.workload.c_str(), workload->BusyThreads(), nproc);
    return 2;
  }
  const std::string fs = FsType(config.work_dir);
  if (config.workload == "churn-cache" && fs != "tmpfs") {
    std::fprintf(stderr,
                 "cwm_perfbench: churn-cache must keep its artifact cache on "
                 "tmpfs, but %s is %s: on a disk its store writes wait on "
                 "fsync and it measures another workload\n",
                 config.work_dir.c_str(), fs.c_str());
    return 2;
  }
  std::printf("# stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
              "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": "
              "\"%s\", \"build_type\": \"%s\", \"threads\": \"%s\", "
              "\"busy_threads\": %u, \"work_dir_fs\": \"%s\"}\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace, nproc, CpuModel().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, workload->Threads().c_str(),
              workload->BusyThreads(), fs.c_str());
  std::fflush(stdout);

  OpLog log;
  std::vector<double> setups;
  for (int i = 0; i < (config.trace ? 1 : kSetUps); ++i) {
    const double start = NowSeconds();
    if (!SetUp(*workload)) return 1;
    setups.push_back(NowSeconds() - start);
  }
  const double prepare_start = NowSeconds();
  workload->Prepare(&log);
  const double prepare_s = NowSeconds() - prepare_start;
  const PassTimes untraced = Pass(*workload, &log);
  const double round_wall_s = Median(untraced.round_wall_s);
  const double verify_start = NowSeconds();
  workload->Verify(&log);
  std::fprintf(stderr,
               "cwm_perfbench: set-up %.3f s, prepare %.3f s, run %.3f s, "
               "verify %.3f s\n",
               std::accumulate(setups.begin(), setups.end(), 0.0), prepare_s,
               untraced.wall_s, NowSeconds() - verify_start);

  if (!config.trace) {
    std::size_t tail_rounds = 1;
    const Tail tail = TailMs(log.latency_ms, untraced, &tail_rounds);
    const uint64_t completed = log.attempted - log.failed;
    const double rounds = static_cast<double>(untraced.round_wall_s.size());
    std::printf("# wall_s and cpu_s are medians over %zu rounds (pass %.3f s); "
                "tail_ms is p%g of %zu samples (%zu beyond it), median over "
                "%zu; setup_s is the median of %zu set-ups\n",
                untraced.round_wall_s.size(), untraced.wall_s, tail.percentile,
                tail.samples,
                tail.samples - static_cast<std::size_t>(std::ceil(
                                   tail.percentile / 100.0 * tail.samples)),
                tail_rounds, setups.size());
    std::vector<Metric> metrics = {
        {"wall_s", "s", round_wall_s},
        {"cpu_s", "s", Median(untraced.round_cpu_s)},
        {"peak_rss_mb", "MB", PeakRssMb()},
        {"setup_s", "s", Median(setups)},
        {"p50_ms", "ms", Median(log.latency_ms)},
        {"tail_ms", "ms", tail.value},
        {"throughput", "1/s", static_cast<double>(completed) / rounds / round_wall_s},
        {"welfare_total", "welfare", log.welfare_total},
    };
    for (const Metric& m : metrics) {
      std::printf("# %-14s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("# attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(log.attempted),
                static_cast<unsigned long long>(log.failed));
    PrintResult(log.failed == 0, log.attempted, log.failed, metrics);
    return 0;
  }

  // Traced pass on fresh state: same fixed work, so its welfare must be
  // the untraced pass's bit for bit (tracing only observes).
  if (!SetUp(*workload)) return 1;
  OpLog traced;
  traced.layer["api.open_s"] = Median(setups);
  const CounterMap before = SnapshotCounters();
  cwm::TraceRecorder recorder;
  recorder.Install();
  const PassTimes traced_times = Pass(*workload, &traced);
  recorder.Uninstall();
  const CounterMap after = SnapshotCounters();
  if (traced.welfare_total != log.welfare_total) {
    traced.Fail("welfare_total differs between the untraced and traced pass");
  }
  const std::vector<LayerMetric> layers = ComputeLayerMetrics(
      recorder.snapshot_events(), before, after, traced,
      Median(traced_times.round_wall_s), round_wall_s,
      recorder.events_dropped());

  // "per wall" is a time metric's share of the traced pass's wall time;
  // sums over several threads can exceed 1.
  std::printf("# per-layer report: %s, traced pass %.3f s wall (untraced "
              "%.3f s)\n",
              config.workload.c_str(), traced_times.wall_s, untraced.wall_s);
  std::printf("# %-34s %14s %-6s %8s  %s\n", "metric", "value", "unit",
              "per wall", "should move");
  std::vector<Metric> metrics;
  for (const LayerMetric& m : layers) {
    char share[32] = "";
    if (m.unit == "s") {
      std::snprintf(share, sizeof share, "%.3f", m.value / traced_times.wall_s);
    }
    std::printf("# %-34s %14.6g %-6s %8s  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), share, m.moves.c_str());
    metrics.push_back({m.name, m.unit, m.value});
  }
  const uint64_t attempted = log.attempted + traced.attempted;
  const uint64_t failed = log.failed + traced.failed;
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
