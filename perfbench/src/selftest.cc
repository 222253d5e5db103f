// Self-tests of the benchmark's own code: the expected-value functions
// against hand-worked cases, the percentile code against known arrays, the
// request generators' structural promises, span self-time accounting, and a
// short smoke run of each workload. Run with `python3 perfbench/selftest.py`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>

#include "perfbench/src/dom_page.h"
#include "perfbench/src/gen.h"
#include "perfbench/src/serve.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/traced.h"
#include "src/support/json.h"

namespace perfbench {
namespace {

ScriptSpec Spec(Family family, int64_t a, int64_t b, int64_t m, int n) {
  ScriptSpec spec;
  spec.family = family;
  spec.rid = 7;
  spec.a = a;
  spec.b = b;
  spec.m = m;
  spec.n = n;
  return spec;
}

TEST(ExpectedPrints, ArithLoopByHand) {
  // x: 1 -> 3 -> 0 -> 2; s: 3 + 0 + 2.
  EXPECT_EQ(ExpectedPrints(Spec(Family::kArith, 3, 1, 10, 3)),
            (std::vector<std::string>{"5", "2", "7"}));
}

TEST(ExpectedPrints, StringBuildingByHand) {
  EXPECT_EQ(ExpectedPrints(Spec(Family::kString, 1, 0, 50, 3)),
            (std::vector<std::string>{"abc", "3", "7"}));
  // 24 -> 'y', 29 % 26 = 3 -> 'd'.
  EXPECT_EQ(ExpectedPrints(Spec(Family::kString, 5, 24, 50, 2)),
            (std::vector<std::string>{"yd", "2", "7"}));
}

TEST(ExpectedPrints, ArrayPushSumByHand) {
  // (i*2+1) % 4 for i = 0..2: 1, 3, 1.
  EXPECT_EQ(ExpectedPrints(Spec(Family::kArray, 2, 1, 4, 3)),
            (std::vector<std::string>{"5", "3", "7"}));
}

TEST(ExpectedPrints, FunctionCallsByHand) {
  // twice(1, 0) = step(step(1, 0), 1) = step(2, 1) = 5.
  EXPECT_EQ(ExpectedPrints(Spec(Family::kCalls, 2, 1, 100, 1)),
            (std::vector<std::string>{"5", "7"}));
}

TEST(ExpectedKernelResult, DomKernelsByHand) {
  for (const pkrusafe::WorkloadSpec& spec : PageKernels()) {
    if (spec.name == "dom-modify") {
      EXPECT_EQ(ExpectedKernelResult(spec), 96);
    } else if (spec.name == "jslib-modify-jquery") {
      // 10 texts of 11 bytes + 22 of 12 bytes, plus 'I' (73) each, 3 times.
      EXPECT_EQ(ExpectedKernelResult(spec), (10 * 11 + 22 * 12 + 32 * 73) * 3);
    } else if (spec.name == "dom-text-read") {
      // Per payload: "payload-" 791 + "-" 45 + a..z 2847 + byte 3 'l' 108;
      // the digits of 0..39 add 3600 in all; 6 passes.
      EXPECT_EQ(ExpectedKernelResult(spec), ((791 + 45 + 2847 + 108) * 40 + 3600) * 6);
    } else {
      EXPECT_EQ(ExpectedKernelResult(spec), -1) << spec.name;
    }
  }
}

TEST(Percentile, KnownArrays) {
  std::vector<double> four = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(four, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(four, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(four, 1.0), 4);
  EXPECT_DOUBLE_EQ(Percentile(four, 0.99), 3.97);
  std::vector<double> one = {5};
  EXPECT_DOUBLE_EQ(Percentile(one, 0.99), 5);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  EXPECT_DOUBLE_EQ(Percentile(hundred, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(RequestLine, RoundTripsThroughJson) {
  const std::string script = "let s = \"a\\\\b\";\n\tprint(s);";
  auto parsed = pkrusafe::json::Parse(RequestLine("t-1", script));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("tenant"), "t-1");
  EXPECT_EQ(parsed->GetString("script"), script);
}

TEST(Generators, RepeatSetIsSmallAndRecurring) {
  const std::vector<Request> set = RepeatScriptSet(42);
  ASSERT_EQ(set.size(), size_t{kRepeatTenants * kRepeatScriptsPerTenant});
  std::set<std::string> lines;
  for (const Request& request : set) {
    lines.insert(request.line);
    EXPECT_GT(request.line.size(), 150u);
  }
  EXPECT_EQ(lines.size(), set.size());
  uint64_t state = 1;
  std::vector<int> cursor;
  const std::vector<int> ops = RepeatOps(&state, &cursor, 1000);
  std::vector<int> seen(set.size(), 0);
  for (const int op : ops) {
    ++seen[static_cast<size_t>(op)];
  }
  for (const int count : seen) {
    EXPECT_GT(count, 0);
  }
  EXPECT_EQ(RepeatScriptSet(42)[5].line, set[5].line);  // same seed, same inputs
}

TEST(Generators, ChurnBurstsWindowAndUniqueness) {
  const std::vector<Request> ops = ChurnOps(9, 0, 1);
  ASSERT_EQ(ops.size(), size_t{kChurnNamesPerConnection * kChurnBurst});
  std::map<std::string, std::vector<size_t>> positions;
  std::set<std::string> lines;
  for (size_t i = 0; i < ops.size(); ++i) {
    positions[ops[i].tenant].push_back(i);
    lines.insert(ops[i].line);
  }
  EXPECT_EQ(lines.size(), ops.size()) << "every churn script text is unique";
  EXPECT_EQ(positions.size(), size_t{kChurnNamesPerConnection});
  for (const auto& [name, at] : positions) {
    ASSERT_EQ(at.size(), size_t{kChurnBurst}) << name;
    for (size_t k = 1; k < at.size(); ++k) {
      EXPECT_LE(at[k] - at[k - 1], size_t{kChurnWindow}) << name;
    }
  }
}

TEST(Tracer, SelfTimeIsSpanMinusChildren) {
  Tracer tracer(true);
  {
    Tracer::Scope parent(tracer, "parent");
    {
      Tracer::Scope child(tracer, "child");
      usleep(2000);
    }
    Tracer::Scope renamed(tracer, "before");
    renamed.Rename("after");
  }
  const auto layers = tracer.Layers();
  ASSERT_EQ(layers.size(), 3u);
  const LayerTime& parent = layers.at("parent");
  const LayerTime& child = layers.at("child");
  const LayerTime& after = layers.at("after");
  EXPECT_DOUBLE_EQ(parent.self_ns, parent.total_ns - child.total_ns - after.total_ns);
  EXPECT_GE(child.total_ns, 2e6);
  EXPECT_EQ(tracer.spans()[1].parent, 1u);

  Tracer off(false);
  { Tracer::Scope ignored(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

// The benchmark's scratch directory for one test, removed afterwards.
struct Scratch {
  Paths paths = ResolvePaths();
  ~Scratch() {
    std::error_code ignored;
    std::filesystem::remove_all(paths.scratch_dir, ignored);
  }
};

TEST(Smoke, ServeRepeat) {
  const Scratch scratch;
  const RunReport report = RunServe({"serve-repeat", 3, 0.2, scratch.paths});
  EXPECT_GT(report.attempted, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_FALSE(report.setup_s.empty());
  EXPECT_EQ(report.throughput_ops.size(), report.setup_s.size());
  EXPECT_LE(report.latency_p50_us[0], report.latency_p90_us[0]);
}

TEST(Smoke, ServeChurn) {
  const Scratch scratch;
  const RunReport report = RunServe({"serve-churn", 3, 0.2, scratch.paths});
  EXPECT_EQ(report.attempted,
            uint64_t{kChurnConnections} * (kChurnNamesPerConnection * kChurnBurst - kChurnWindow));
}

TEST(Smoke, DomPage) {
  const RunReport report = RunDomPage(3, 0.2);
  EXPECT_GT(report.attempted, 0u);
  EXPECT_EQ(report.setup_s.size(), 5u);  // one fresh page per round
}

TEST(Smoke, TracedRunReportsEveryLayer) {
  const Scratch scratch;
  const TracedResult result = RunTraced("serve-churn", 3, 1, scratch.paths);
  std::map<std::string, double> metrics;
  for (const Metric& metric : result.metrics) {
    metrics[metric.name] = metric.value;
  }
  EXPECT_GT(metrics.at("multidomain.register_us.last"),
            metrics.at("multidomain.register_us.first"));
  EXPECT_GT(metrics.at("server.handle_us"), 0);
  EXPECT_GT(metrics.at("mpk.wrpkru_pair_ns"), 0);
  EXPECT_EQ(metrics.count("runtime.transitions_per_op"), 1u);
}

}  // namespace
}  // namespace perfbench
