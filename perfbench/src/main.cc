// perfbench: one run of one workload of the repo benchmark.
//
//   perfbench --workload serve-repeat|serve-churn|dom-page --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1 runs
// the traced in-process replay that gives the per-layer metrics. The last
// line of stdout is the result object; diagnostics go to stderr.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/src/dom_page.h"
#include "perfbench/src/serve.h"
#include "perfbench/src/traced.h"

namespace {

using perfbench::Metric;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-repeat|serve-churn|dom-page --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

std::vector<Metric> EndToEnd(const perfbench::RunReport& report) {
  using perfbench::Median;
  return {
      {"throughput_ops", Median(report.throughput_ops), "ops/s"},
      {"latency_p50_us", Median(report.latency_p50_us), "us"},
      {"latency_p90_us", Median(report.latency_p90_us), "us"},
      {"cpu_us_per_op", Median(report.cpu_us_per_op), "us"},
      {"setup_s", Median(report.setup_s), "s"},
      {"peak_rss_mb", Median(report.peak_rss_mb), "MB"},
  };
}

// Share of the machine's CPU time the hypervisor took away during the run
// (the "steal" column of /proc/stat). Printed with every result: runs with
// high steal are slower whatever the code does.
double StealShare(const std::vector<unsigned long long>& before,
                  const std::vector<unsigned long long>& after) {
  unsigned long long total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    total += after[i] - before[i];
  }
  return total == 0 || after.size() < 8 ? 0 : static_cast<double>(after[7] - before[7]) / total;
}

std::vector<unsigned long long> CpuTimes() {
  std::vector<unsigned long long> times;
  if (std::FILE* stat = std::fopen("/proc/stat", "r")) {
    char label[16];
    unsigned long long value = 0;
    if (std::fscanf(stat, "%15s", label) == 1) {
      while (times.size() < 10 && std::fscanf(stat, "%llu", &value) == 1) {
        times.push_back(value);
      }
    }
    std::fclose(stat);
  }
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1) ||
      (workload != "serve-repeat" && workload != "serve-churn" && workload != "dom-page")) {
    return Usage();
  }

  perfbench::Paths paths;
  try {
    paths = perfbench::ResolvePaths();
    const std::vector<unsigned long long> cpu_before = CpuTimes();
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    if (trace == 1) {
      perfbench::TracedResult traced = perfbench::RunTraced(workload, seed, seconds, paths);
      metrics = std::move(traced.metrics);
      attempted = traced.attempted;
    } else {
      perfbench::RunReport report;
      if (workload == "dom-page") {
        report = perfbench::RunDomPage(seed, seconds);
      } else {
        report = perfbench::RunServe({workload, seed, seconds, paths});
      }
      metrics = EndToEnd(report);
      attempted = report.attempted;
      failed = report.failed;
    }
    std::error_code ignored;
    std::filesystem::remove_all(paths.scratch_dir, ignored);
    std::fprintf(stderr, "perfbench %s: host steal %.1f%% of CPU time during the run\n",
                 workload.c_str(), 100 * StealShare(cpu_before, CpuTimes()));

    std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench %s: FAILED: %s\n", workload.c_str(), error.what());
    if (!paths.scratch_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(paths.scratch_dir, ignored);
    }
    return 1;
  }
}
