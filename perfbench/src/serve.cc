#include "perfbench/src/serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/support/json.h"

namespace perfbench {

void Fail(const std::string& message) { throw BenchError(message); }

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Paths ResolvePaths() {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    Fail("cannot resolve the benchmark executable's path");
  }
  exe[n] = '\0';
  std::string dir(exe);
  dir = dir.substr(0, dir.rfind('/'));
  Paths paths;
  paths.bin_dir = dir;
  paths.scratch_dir = dir + "/run-" + std::to_string(::getpid());
  ::mkdir(paths.scratch_dir.c_str(), 0755);
  return paths;
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---------------------------------------------------------------- process

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    Fail("pipe: " + std::string(std::strerror(errno)));
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) {
    Fail("fork: " + std::string(std::strerror(errno)));
  }
  if (pid_ == 0) {
    // The server dies with the benchmark, however the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  const std::string line = ReadLine();
  const std::string prefix = "serving on 127.0.0.1:";
  if (line.rfind(prefix, 0) != 0) {
    Fail("pkrusafe_serve did not start (first line: '" + line + "')");
  }
  port_ = static_cast<uint16_t>(std::stoul(line.substr(prefix.size())));
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
  }
}

std::string ServerProcess::ReadLine() {
  while (true) {
    const size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      return line;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 60'000);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      Fail("pkrusafe_serve: no output for 60 s");
    }
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      std::string rest = pending_;
      pending_.clear();
      return rest;  // EOF
    }
    pending_.append(chunk, static_cast<size_t>(n));
  }
}

double ServerProcess::CpuSeconds() const {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    Fail("cannot read /proc/<pid>/stat of the server");
  }
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields after the command name start at field 3 (state); utime and stime
  // are fields 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) {
      utime = std::stoull(field);
    } else if (index == 15) {
      stime = std::stoull(field);
    }
  }
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

namespace {

double PeakRssMbOf(const std::string& proc_dir) {
  std::istringstream status(ReadFile(proc_dir + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  Fail("no VmHWM in " + proc_dir + "/status");
}

}  // namespace

double SelfPeakRssMb() { return PeakRssMbOf("/proc/self"); }

double ServerProcess::PeakRssMb() const { return PeakRssMbOf("/proc/" + std::to_string(pid_)); }

std::string ServerProcess::StopAndReadStats() {
  ::kill(pid_, SIGTERM);
  std::string stats;
  while (true) {
    std::string line = ReadLine();
    if (line.empty() && pending_.empty()) {
      break;
    }
    if (!line.empty() && line[0] == '{') {
      stats = line;
    }
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("pkrusafe_serve did not exit cleanly on SIGTERM");
  }
  if (stats.empty()) {
    Fail("pkrusafe_serve printed no --stats line");
  }
  return stats;
}

// ------------------------------------------------------------- connection

Connection::Connection(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    Fail("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("connect: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::string Connection::RoundTrip(const std::string& line) {
  const std::string wire = line + "\n";
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      Fail("send: " + std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return response;
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      Fail("connection closed by the server");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

// ------------------------------------------------------------------ checks

void CheckResponse(const std::string& response, const Request& request) {
  auto parsed = pkrusafe::json::Parse(response);
  if (!parsed.ok() || !parsed->is_object()) {
    Fail("unparseable response: " + response);
  }
  const pkrusafe::json::Value* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    Fail("request for " + request.tenant + " failed: " + response);
  }
  if (parsed->GetString("tenant") != request.tenant) {
    Fail("response names the wrong tenant: " + response);
  }
  const pkrusafe::json::Value* prints = parsed->Find("prints");
  if (prints == nullptr || !prints->is_array() ||
      prints->AsArray().size() != request.expected.size()) {
    Fail("wrong number of prints for " + request.tenant + ": " + response);
  }
  for (size_t i = 0; i < request.expected.size(); ++i) {
    const pkrusafe::json::Value& got = prints->AsArray()[i];
    if (!got.is_string() || got.AsString() != request.expected[i]) {
      Fail("print " + std::to_string(i) + " of " + request.tenant + " should be '" +
           request.expected[i] + "': " + response);
    }
  }
}

namespace {

uint64_t StatField(const pkrusafe::json::Value& stats, const char* key) {
  const pkrusafe::json::Value* value = stats.Find(key);
  if (value == nullptr || !value->is_number()) {
    Fail(std::string("--stats line lacks ") + key);
  }
  return value->AsUint();
}

void CheckProbe(const std::string& response, const std::string& crash_dir) {
  auto parsed = pkrusafe::json::Parse(response);
  const pkrusafe::json::Value* dead = parsed.ok() ? parsed->Find("dead") : nullptr;
  const pkrusafe::json::Value* ok = parsed.ok() ? parsed->Find("ok") : nullptr;
  if (ok == nullptr || !ok->is_bool() || ok->AsBool() || dead == nullptr || !dead->is_bool() ||
      !dead->AsBool() || parsed->GetString("tenant") != "probe") {
    Fail("containment probe was not stopped: " + response);
  }
  const std::string report = ReadFile(crash_dir + "/crash-probe.json");
  if (report.find("\"kind\":\"pkru_safe_crash_report\"") == std::string::npos ||
      report.find("\"tenant\":\"probe\"") == std::string::npos) {
    Fail("containment probe left no crash report in " + crash_dir);
  }
}

// Sends ops[begin, end) of each connection's plan (end clipped to the
// plan's length) on that connection, all connections concurrently, one
// thread each, recording round-trip times; responses are checked after the
// clock stops so checking costs no request time.
void DriveConcurrently(std::vector<std::unique_ptr<Connection>>& connections,
                       const RoundPlan& plan, size_t begin, size_t end,
                       std::vector<double>* latencies_us) {
  const size_t n = connections.size();
  std::vector<std::vector<std::string>> responses(n);
  std::vector<std::vector<double>> latencies(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      try {
        const std::vector<Request>& ops = plan.per_connection[c];
        const size_t stop = std::min(end, ops.size());
        responses[c].reserve(stop - begin);
        latencies[c].reserve(stop - begin);
        for (size_t i = begin; i < stop; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          responses[c].push_back(connections[c]->RoundTrip(ops[i].line));
          const auto t1 = std::chrono::steady_clock::now();
          latencies[c].push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t c = 0; c < n; ++c) {
    if (errors[c]) {
      std::rethrow_exception(errors[c]);
    }
    for (size_t i = 0; i < responses[c].size(); ++i) {
      CheckResponse(responses[c][i], plan.per_connection[c][begin + i]);
    }
    if (latencies_us != nullptr) {
      latencies_us->insert(latencies_us->end(), latencies[c].begin(), latencies[c].end());
    }
  }
}

// Requests per connection in one serve-repeat round: about 3 s, so the few
// slow requests right after a server starts stay well under 1% of a round
// and the tail percentile measures the steady state.
constexpr size_t kRepeatOpsPerRound = 30000;

}  // namespace

uint64_t IdleTimeoutMs(const std::string& workload) {
  // serve-churn: a live name is revisited every kChurnWindow requests of its
  // connection (under 50 ms even at the slowest measured rate), so a 0.5 s
  // idle timeout never recreates a name, while the 250 ms sweep releases
  // retired names many times within one round.
  return workload == "serve-churn" ? 500 : 60'000;
}

std::vector<std::string> ServerArgs(const std::string& workload, const std::string& crash_dir) {
  return {"--port=0",
          "--backend=sim",
          "--workers=2",
          "--enable-vulnerability",
          "--idle-timeout-ms=" + std::to_string(IdleTimeoutMs(workload)),
          "--sweep-interval-ms=250",
          "--crash-dir=" + crash_dir,
          "--stats"};
}

RoundPlan PlanRound(const std::string& workload, uint64_t seed, int round) {
  RoundPlan plan;
  if (workload == "serve-repeat") {
    const std::vector<Request> set = RepeatScriptSet(seed);
    for (int c = 0; c < 2; ++c) {
      std::vector<Request> ops;
      // Warm-up: each connection serves its half of the tenants once.
      for (int t = c * kRepeatTenants / 2; t < (c + 1) * kRepeatTenants / 2; ++t) {
        ops.push_back(set[static_cast<size_t>(t * kRepeatScriptsPerTenant)]);
      }
      uint64_t state = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(round) * 7919 +
                       static_cast<uint64_t>(c);
      std::vector<int> cursor(kRepeatTenants, 1);
      for (const int index : RepeatOps(&state, &cursor, static_cast<int>(kRepeatOpsPerRound))) {
        ops.push_back(set[static_cast<size_t>(index)]);
      }
      plan.per_connection.push_back(std::move(ops));
    }
    plan.warm_ops = kRepeatTenants / 2;
    plan.tenants = kRepeatTenants;
  } else if (workload == "serve-churn") {
    for (int c = 0; c < kChurnConnections; ++c) {
      plan.per_connection.push_back(ChurnOps(seed, round, c));
    }
    // Warm-up: every name of the initial window serves once.
    plan.warm_ops = kChurnWindow;
    plan.tenants = static_cast<size_t>(kChurnConnections * kChurnNamesPerConnection);
  } else {
    Fail("not a serve workload: " + workload);
  }
  return plan;
}

WarmServer StartAndWarm(const Paths& paths, const std::string& workload, const RoundPlan& plan,
                        const std::string& crash_dir) {
  ::mkdir(crash_dir.c_str(), 0755);
  WarmServer warm;
  const double t0 = NowSeconds();
  warm.server = std::make_unique<ServerProcess>(paths.bin_dir + "/pkrusafe_serve",
                                                ServerArgs(workload, crash_dir));
  warm.start_s = NowSeconds() - t0;
  for (size_t c = 0; c < plan.per_connection.size(); ++c) {
    warm.connections.push_back(std::make_unique<Connection>(warm.server->port()));
  }
  DriveConcurrently(warm.connections, plan, 0, plan.warm_ops, nullptr);
  warm.warm_s = NowSeconds() - t0;
  return warm;
}

void RunReport::AddRound(std::vector<double> latencies_us, double seconds, double cpu_seconds) {
  const auto ops = static_cast<double>(latencies_us.size());
  attempted += latencies_us.size();
  measured_seconds += seconds;
  throughput_ops.push_back(ops / seconds);
  latency_p50_us.push_back(Percentile(latencies_us, 0.50));
  latency_p90_us.push_back(Percentile(latencies_us, 0.90));
  cpu_us_per_op.push_back(cpu_seconds * 1e6 / ops);
}

std::string RunReport::LastRound() const {
  char line[200];
  std::snprintf(line, sizeof(line),
                "%.0f ops/s, p50 %.1f us, p90 %.1f us, %.1f cpu us/op, setup %.4f s",
                throughput_ops.back(), latency_p50_us.back(), latency_p90_us.back(),
                cpu_us_per_op.back(), setup_s.back());
  return line;
}

RunReport RunServe(const ServeOptions& options) {
  RunReport report;
  for (int round = 0; round == 0 || report.measured_seconds < options.seconds; ++round) {
    const RoundPlan plan = PlanRound(options.workload, options.seed, round);
    const std::string crash_dir = options.paths.scratch_dir + "/crash-" + std::to_string(round);
    WarmServer warm = StartAndWarm(options.paths, options.workload, plan, crash_dir);
    report.setup_s.push_back(warm.warm_s);

    // Containment: a dedicated tenant pokes the embedder's secret; it must
    // be killed with a crash report while every other tenant keeps serving
    // (the timed phase below runs after it).
    CheckProbe(warm.connections[0]->RoundTrip(
                   RequestLine("probe", "__poke(secret_addr(), 1);")),
               crash_dir);

    const double cpu0 = warm.server->CpuSeconds();
    std::vector<double> latencies_us;
    const double t0 = NowSeconds();
    DriveConcurrently(warm.connections, plan, plan.warm_ops, SIZE_MAX, &latencies_us);
    const double round_s = NowSeconds() - t0;
    report.AddRound(std::move(latencies_us), round_s, warm.server->CpuSeconds() - cpu0);
    report.peak_rss_mb.push_back(warm.server->PeakRssMb());
    std::fprintf(stderr, "%s round %d: %s, VmHWM %.1f MB\n", options.workload.c_str(), round,
                 report.LastRound().c_str(), report.peak_rss_mb.back());

    uint64_t sent = 0;
    for (const std::vector<Request>& ops : plan.per_connection) {
      sent += ops.size();
    }
    warm.connections.clear();
    auto stats = pkrusafe::json::Parse(warm.server->StopAndReadStats());
    if (!stats.ok() || !stats->is_object()) {
      Fail("unparseable --stats line");
    }
    if (StatField(*stats, "requests") != sent + 1 || StatField(*stats, "ok") != sent ||
        StatField(*stats, "violations") != 1 || StatField(*stats, "rejected") != 0 ||
        StatField(*stats, "script_errors") != 0) {
      Fail("server counts disagree with the client's (" + std::to_string(sent) +
           " ok requests + 1 probe)");
    }
    if (options.workload == "serve-churn" &&
        StatField(*stats, "tenants_created") != plan.tenants + 1) {
      Fail("serve-churn: tenants_created " + std::to_string(StatField(*stats, "tenants_created")) +
           " != names used " + std::to_string(plan.tenants + 1));
    }
  }
  return report;
}

}  // namespace perfbench
