// Request generation for the serve workloads, and the statistics helpers
// every workload reports through.
//
// Scripts come from four seeded families (arithmetic loop, string building,
// array push/sum, function calls). Each family's expected print() lines are
// computed here in plain C++ — never by running the jsvm — so a response can
// be checked against a computation made apart from the program.
#ifndef PERFBENCH_SRC_GEN_H_
#define PERFBENCH_SRC_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Family : uint8_t { kArith, kString, kArray, kCalls };
inline constexpr int kFamilies = 4;

struct ScriptSpec {
  Family family = Family::kArith;
  int64_t rid = 0;  // printed last; makes the script text unique when needed
  int64_t a = 1;    // multiplier
  int64_t b = 0;    // offset / start value
  int64_t m = 97;   // modulus
  int n = 8;        // loop trip count
};

// Draws a spec of a seeded family with parameters in the ranges the README
// states. `rid` is set by the caller.
ScriptSpec RandomSpec(uint64_t draw_a, uint64_t draw_b);

std::string ScriptSource(const ScriptSpec& spec);
std::vector<std::string> ExpectedPrints(const ScriptSpec& spec);

// {"tenant":NAME,"script":SRC} with SRC JSON-escaped.
std::string RequestLine(const std::string& tenant, const std::string& script);
std::string JsonEscapeString(const std::string& text);

struct Request {
  std::string tenant;
  std::string script;
  std::string line;  // the wire form of (tenant, script)
  std::vector<std::string> expected;
};

// serve-repeat: 8 tenants, each cycling through its own 4 scripts.
inline constexpr int kRepeatTenants = 8;
inline constexpr int kRepeatScriptsPerTenant = 4;
std::vector<Request> RepeatScriptSet(uint64_t seed);  // tenant-major
// The next `count` request indices (into RepeatScriptSet) for one
// connection; `cursor` carries each tenant's position in its script cycle.
std::vector<int> RepeatOps(uint64_t* rng_state, std::vector<int>* cursor, int count);

// serve-churn: each connection owns a sliding window of live names moving
// over its own name range; each name gets kChurnBurst requests.
inline constexpr int kChurnConnections = 2;
inline constexpr int kChurnWindow = 24;  // per connection: 48 live names
inline constexpr int kChurnBurst = 4;
// 2000 names per server: enough for the session-growth fault to show, few
// enough that a round lasts about a second and a run has many rounds.
inline constexpr int kChurnNamesPerConnection = 1000;
// The whole op sequence of one connection for one server round, in send
// order. Every script text is unique (rid = round, connection, position).
std::vector<Request> ChurnOps(uint64_t seed, int round, int connection);

// Percentile of `values` by linear interpolation between closest ranks
// (q in [0, 1]); the vector is sorted in place. 0 for an empty input.
double Percentile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

uint64_t SplitMix(uint64_t* state);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GEN_H_
