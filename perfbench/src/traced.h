// The traced run: per-layer metrics from an in-process replay of the
// workloads' request streams, with a span around every call into a layer,
// plus fixed microbenchmarks of the layers no stream isolates.
#ifndef PERFBENCH_SRC_TRACED_H_
#define PERFBENCH_SRC_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/serve.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;  // replayed requests and page operations
};

TracedResult RunTraced(const std::string& workload, uint64_t seed, double seconds,
                       const Paths& paths);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_H_
