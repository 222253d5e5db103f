// The serve workloads: a fresh pkrusafe_serve process per round, driven
// closed-loop over loopback TCP by two blocking connections.
#ifndef PERFBENCH_SRC_SERVE_H_
#define PERFBENCH_SRC_SERVE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/gen.h"

namespace perfbench {

// Any failed check or broken invariant ends the run with this.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
[[noreturn]] void Fail(const std::string& message);

double NowSeconds();

// Where the benchmark keeps its binaries and scratch files: the directory of
// the running executable, inside the checkout's build directory.
struct Paths {
  std::string bin_dir;
  std::string scratch_dir;  // per-process, removed at exit by the caller
};
Paths ResolvePaths();

// One pkrusafe_serve child. The destructor kills and reaps a child that was
// not stopped, so no run leaves a server behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  // utime + stime of the server so far, in seconds.
  double CpuSeconds() const;
  // VmHWM of the server, in MB.
  double PeakRssMb() const;
  // SIGTERM, wait for exit, and return the --stats line.
  std::string StopAndReadStats();

 private:
  std::string ReadLine();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;
  uint16_t port_ = 0;
};

// A blocking JSONL client connection.
class Connection {
 public:
  explicit Connection(uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string RoundTrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Checks one response against the request it answers: ok:true, the right
// tenant, and exactly the independently computed prints.
void CheckResponse(const std::string& response, const Request& request);

struct ServeOptions {
  std::string workload;  // "serve-repeat" or "serve-churn"
  uint64_t seed = 1;
  double seconds = 10;
  Paths paths;
};

// A run is whole rounds, each on a freshly set-up server or page. Every
// figure is kept per round and the run reports the median over its rounds,
// so one round caught in a burst of host contention moves no metric alone.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double measured_seconds = 0;
  std::vector<double> throughput_ops;
  std::vector<double> latency_p50_us;
  std::vector<double> latency_p90_us;
  std::vector<double> cpu_us_per_op;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;

  // Records one round's timed phase: every operation's latency, the phase's
  // wall time and the CPU time it cost.
  void AddRound(std::vector<double> latencies_us, double seconds, double cpu_seconds);
  // The last round's figures, for the per-round line on stderr.
  std::string LastRound() const;
};

RunReport RunServe(const ServeOptions& options);

// VmHWM of this process, in MB.
double SelfPeakRssMb();

// The server command line every serve round uses, and its idle timeout.
std::vector<std::string> ServerArgs(const std::string& workload, const std::string& crash_dir);
uint64_t IdleTimeoutMs(const std::string& workload);

// The ops both connections send in one round, per connection, and how many
// of them are warm-up (sent before setup_s stops).
struct RoundPlan {
  std::vector<std::vector<Request>> per_connection;
  size_t warm_ops = 0;  // per connection
  size_t tenants = 0;   // distinct tenant names the plan uses
};
RoundPlan PlanRound(const std::string& workload, uint64_t seed, int round);

// Spawns a server and serves the plan's warm-up; returns the seconds from
// spawn to "listening" and to every warm-up tenant having served once.
struct WarmServer {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Connection>> connections;
  double start_s = 0;
  double warm_s = 0;
};
WarmServer StartAndWarm(const Paths& paths, const std::string& workload, const RoundPlan& plan,
                        const std::string& crash_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVE_H_
