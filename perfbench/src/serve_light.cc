// serve-light: an in-process Server (2 workers) on fig7-real-utility
// network 0 (nethept-like, lastfm), driven by one client thread over 2
// closed-loop TCP connections: each connection sends its next request
// only after the previous reply arrived.
//
// Requests are cheap — HighDegree and DegDiscount with "evaluate":false
// over scalar, per-item and batch budget forms — so parsing, the queue
// and the transport dominate the round trip. PageRank is left out: on
// this graph it costs ~40x the others and would dominate instead. About
// 10% of lines are malformed or name an unknown graph or algorithm and
// must come back as the expected structured error. Every response, with
// its *_seconds fields stripped, must equal the in-process oracle
// (ExecuteServeRequest, the --oneshot path) byte for byte. welfare_total
// sums the benchmark's own score of each served allocation, in line
// order rather than reply order, so it is the same bit for bit however
// the replies of the two connections interleave.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/server.h"

namespace perfbench {
namespace {

constexpr unsigned kWorkers = 2;
constexpr int kConnections = 2;
constexpr std::size_t kDistinctLines = 600;
constexpr std::size_t kRoundRequests = 10 * kDistinctLines;
/// Rounds per second of --seconds on the reference machine.
constexpr double kRoundsPerSecond = 25000.0 / kRoundRequests;
constexpr int kReplyTimeoutMs = 10000;
/// Worlds of the benchmark's own welfare score of served allocations.
constexpr int kScoreWorlds = 16;
constexpr const char* kAlgos[] = {"HighDegree", "DegDiscount"};

cwm::ServeConfig MakeConfig() {
  cwm::ServeConfig config;
  config.port = 0;
  config.workers = kWorkers;
  config.queue_capacity = 64;
  config.snapshot_budget_bytes = 256ull << 20;
  config.graphs.push_back({.name = "nethept",
                           .scenario = "fig7-real-utility",
                           .network_index = 0,
                           .config_index = 0,
                           .scale = 1.0});
  return config;
}

struct Seconds {
  double allocate = 0.0;
  double evaluate = 0.0;
};

// Removes every ,"allocate_seconds":X and ,"evaluate_seconds":X field
// (machine noise) and returns their sums.
Seconds StripSeconds(std::string* line) {
  Seconds out;
  for (const char* key : {",\"allocate_seconds\":", ",\"evaluate_seconds\":"}) {
    const std::size_t key_len = std::strlen(key);
    std::size_t pos;
    while ((pos = line->find(key)) != std::string::npos) {
      const std::size_t end = line->find_first_of(",}", pos + key_len);
      const double v = std::strtod(line->c_str() + pos + key_len, nullptr);
      (key[2] == 'a' ? out.allocate : out.evaluate) += v;
      line->erase(pos, end == std::string::npos ? std::string::npos : end - pos);
    }
  }
  return out;
}

// Request `k` of the seed's distinct set. Every tenth line is bad, in
// rotating ways; the rest rotate algorithm and budget form.
std::string MakeLine(uint64_t seed, std::size_t k, int num_items) {
  const uint64_t r = Mix(seed, 500 + k);
  const std::string id = "\"id\":\"q" + std::to_string(k) + "\"";
  const std::string algo = kAlgos[k % std::size(kAlgos)];
  auto budget = [&](int j) { return std::to_string(1 + Mix(r, j) % 10); };
  if (k % 10 == 9) {
    switch ((k / 10) % 5) {
      case 0: return "{" + id + ",\"graph\":\"nethept\",\"algo\":";
      case 1:
        return "{" + id + ",\"graph\":\"nethept\",\"algo\":\"" + algo +
               "\",\"budgets\":[5],\"bogus\":1}";
      case 2:
        return "{" + id + ",\"graph\":\"nethept\",\"algo\":\"" + algo +
               "\",\"budgets\":[0]}";
      case 3:
        return "{" + id + ",\"graph\":\"no-such-graph\",\"algo\":\"" + algo +
               "\",\"budgets\":[5],\"evaluate\":false}";
      default:
        return "{" + id +
               ",\"graph\":\"nethept\",\"algo\":\"NoSuchAlgo\",\"budgets\":[5]}";
    }
  }
  std::string budgets;
  switch ((k / std::size(kAlgos)) % 3) {
    case 0:
      budgets = "[" + budget(0) + "]";
      break;
    case 1:
      for (int i = 0; i < num_items; ++i) {
        budgets += (i == 0 ? "[" : ",") + budget(i);
      }
      budgets += "]";
      break;
    default:
      budgets = "[[" + budget(0) + "],[" + budget(1) + "]]";
      break;
  }
  return "{" + id + ",\"graph\":\"nethept\",\"algo\":\"" + algo +
         "\",\"budgets\":" + budgets +
         ",\"seed\":" + std::to_string(1 + r % 1000000) +
         ",\"evaluate\":false}";
}

class ServeLight final : public Workload {
 public:
  explicit ServeLight(const RunConfig& config)
      : seed_(config.seed),
        rounds_(SizeRounds(config.seconds, kRoundsPerSecond)) {}

  ~ServeLight() override { server_.reset(); }

  std::string Threads() const override {
    return "workers=2, 1 client thread on 2 connections (estimator unused: "
           "evaluate false)";
  }
  // Two workers and the client thread; the acceptor, per-connection
  // readers and deadline watcher only run while a worker is idle.
  unsigned BusyThreads() const override { return kWorkers + 1; }

  cwm::Status SetUp() override {
    server_.reset();
    auto server = cwm::Server::Start(MakeConfig());
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    return cwm::Status::OK();
  }

  void Prepare(OpLog* log) override {
    // The oracle streams its scoring worlds (no snapshot pools, which
    // never change results), so it adds little to the peak RSS of the
    // process the server runs in.
    cwm::ServeConfig oracle_config = MakeConfig();
    oracle_config.snapshot_budget_bytes = 0;
    auto oracle = cwm::ServeEngineSet::Load(oracle_config);
    if (!oracle.ok()) {
      log->Fail("oracle: " + oracle.status().ToString());
      return;
    }
    const int num_items = oracle.value()->Find("nethept")->config().num_items();
    for (std::size_t k = 0; k < kDistinctLines; ++k) {
      lines_.push_back(MakeLine(seed_, k, num_items));
      cwm::StatusOr<cwm::ServeRequest> request =
          cwm::ParseServeRequest(lines_.back());
      std::string expected =
          request.ok()
              ? cwm::ExecuteServeRequest(*oracle.value(), request.value(),
                                         nullptr)
              : cwm::FormatServeError(
                    "", cwm::ServeErrorCodeOf(request.status(), false),
                    request.status().message());
      StripSeconds(&expected);
      expected_.push_back(std::move(expected));
      welfare_.push_back(request.ok() ? Score(*oracle.value(), request.value())
                                      : 0.0);
    }
    for (std::size_t i = 0; i < rounds_ * kRoundRequests; ++i) {
      order_.push_back(Mix(seed_, 9000 + i) % kDistinctLines);
    }
    // Warm-up: every distinct line once, checked like the measured ones.
    std::vector<std::size_t> all(kDistinctLines);
    for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
    served_.assign(kDistinctLines, 0);
    OpLog warm;
    Drive(all, &warm);
    if (warm.failed != 0) log->Fail("serve-light warm-up failed");
    overhead_ms_.clear();
    overhead_ms_.reserve(order_.size());
    served_.assign(kDistinctLines, 0);
    log->latency_ms.reserve(order_.size());
  }

  std::size_t Rounds() const override { return rounds_; }

  void RunRound(std::size_t round, OpLog* log) override {
    Drive(std::vector<std::size_t>(order_.begin() + round * kRoundRequests,
                                   order_.begin() + (round + 1) * kRoundRequests),
          log);
  }

  void AfterPass(OpLog* log) override {
    log->layer["serve.overhead_p50_ms"] = Median(overhead_ms_);
    log->layer["serve.overhead_tail_ms"] = TailOf(overhead_ms_).value;
    log->layer["serve.rtt_p50_ms"] = Median(log->latency_ms);
    overhead_ms_.clear();
    for (std::size_t k = 0; k < served_.size(); ++k) {
      log->welfare_total += static_cast<double>(served_[k]) * welfare_[k];
    }
    served_.assign(kDistinctLines, 0);
  }

 private:
  // The welfare of a request's served allocations, scored by the
  // benchmark with its own pinned estimator (requests are served with
  // "evaluate":false, and the server's evaluator runs at hardware
  // concurrency). Allocations are the served ones: the serve path builds
  // every allocation with BuildAllocateRequest, as done here.
  static double Score(const cwm::ServeEngineSet& engines,
                      const cwm::ServeRequest& request) {
    const cwm::Engine* engine = engines.Find(request.graph);
    if (engine == nullptr) return 0.0;
    const int num_items = engine->config().num_items();
    auto points = cwm::ResolveServeBudgets(request, num_items);
    if (!points.ok()) return 0.0;
    std::vector<cwm::ItemId> items(static_cast<std::size_t>(num_items));
    for (int i = 0; i < num_items; ++i) items[i] = i;
    double welfare = 0.0;
    for (const cwm::BudgetVector& point : points.value()) {
      cwm::AllocateRequest scored =
          cwm::BuildAllocateRequest(request, point, items, nullptr);
      scored.evaluate = true;
      scored.eval.num_worlds = kScoreWorlds;
      scored.eval.num_threads = 1;
      cwm::AllocateResult result;
      if (engine->Allocate(std::move(scored), &result).ok()) {
        welfare += result.stats.welfare;
      }
    }
    return welfare;
  }

  struct Conn {
    int fd = -1;
    std::size_t line = 0;  // the request in flight
    double sent_at = 0.0;
    bool busy = false;
    std::string buffer;
  };

  static bool SendLine(int fd, const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  int Connect() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  // Closed loop: each connection has at most one request in flight. The
  // reply is timed on arrival, the connection's next request goes out at
  // once, and only then is the reply checked.
  void Drive(const std::vector<std::size_t>& order, OpLog* log) {
    std::vector<Conn> conns(kConnections);
    std::vector<pollfd> fds(kConnections);
    std::size_t next = 0;
    auto send_next = [&](Conn& c) {
      c.busy = false;
      if (next == order.size()) return;
      c.line = order[next++];
      ++log->attempted;
      c.sent_at = NowSeconds();
      if (SendLine(c.fd, lines_[c.line])) {
        c.busy = true;
      } else {
        log->Fail("serve-light: send failed");
      }
    };
    for (int i = 0; i < kConnections; ++i) {
      conns[i].fd = Connect();
      fds[i] = {conns[i].fd, POLLIN, 0};
      if (conns[i].fd < 0) log->Fail("serve-light: connect failed");
    }
    for (Conn& c : conns) {
      if (c.fd >= 0) send_next(c);
    }
    char chunk[8192];
    while (std::any_of(conns.begin(), conns.end(),
                       [](const Conn& c) { return c.busy; })) {
      const int ready = ::poll(fds.data(), fds.size(), kReplyTimeoutMs);
      if (ready <= 0) break;
      for (int i = 0; i < kConnections; ++i) {
        Conn& c = conns[i];
        if (!c.busy || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (n <= 0) {
          c.busy = false;
          log->Fail("serve-light: connection closed");
          continue;
        }
        c.buffer.append(chunk, static_cast<std::size_t>(n));
        const std::size_t eol = c.buffer.find('\n');
        if (eol == std::string::npos) continue;
        const double rtt_ms = (NowSeconds() - c.sent_at) * 1e3;
        std::string reply = c.buffer.substr(0, eol);
        c.buffer.erase(0, eol + 1);
        const std::size_t line = c.line;
        send_next(c);
        const Seconds server = StripSeconds(&reply);
        if (reply != expected_[line]) {
          log->Fail("serve-light: reply to " + lines_[line] + " was " + reply);
          continue;
        }
        log->latency_ms.push_back(rtt_ms);
        ++served_[line];
        overhead_ms_.push_back(rtt_ms -
                              (server.allocate + server.evaluate) * 1e3);
        log->Add(std::string("algo.") + kAlgos[line % std::size(kAlgos)] +
                     ".allocate_s",
                 server.allocate);
      }
    }
    for (Conn& c : conns) {
      if (c.busy) log->Fail("serve-light: no reply within the timeout");
      if (c.fd >= 0) ::close(c.fd);
    }
    log->attempted += order.size() - next;  // never sent after a failure
    log->failed += order.size() - next;
  }

  const uint64_t seed_;
  const std::size_t rounds_;
  std::unique_ptr<cwm::Server> server_;
  std::vector<std::string> lines_;
  std::vector<std::string> expected_;
  std::vector<double> welfare_;  ///< Score() of each distinct line
  std::vector<std::size_t> order_;
  /// Round trip minus server-reported allocate+evaluate time, per reply
  /// of the current pass; summarised by AfterPass.
  std::vector<double> overhead_ms_;
  /// Correct replies per distinct line in the current pass.
  std::vector<uint64_t> served_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeLight(const RunConfig& config) {
  return std::make_unique<ServeLight>(config);
}

}  // namespace perfbench
