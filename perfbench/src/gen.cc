#include "perfbench/src/gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t SplitMix(uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ScriptSpec RandomSpec(uint64_t draw_a, uint64_t draw_b) {
  ScriptSpec spec;
  spec.family = static_cast<Family>(draw_a % kFamilies);
  spec.a = 3 + static_cast<int64_t>((draw_a >> 8) % 37);
  spec.b = static_cast<int64_t>((draw_a >> 20) % 50);
  spec.m = 50 + static_cast<int64_t>((draw_b >> 4) % 950);
  spec.n = 8 + static_cast<int>((draw_b >> 24) % 16);
  return spec;
}

namespace {

std::string Format(const char* format, const ScriptSpec& s) {
  // Every family template takes (rid, a, b, m, n) in this order.
  char buffer[1024];
  std::snprintf(buffer, sizeof(buffer), format, static_cast<long long>(s.rid),
                static_cast<long long>(s.a), static_cast<long long>(s.b),
                static_cast<long long>(s.m), s.n);
  return buffer;
}

}  // namespace

std::string ScriptSource(const ScriptSpec& spec) {
  switch (spec.family) {
    case Family::kArith:
      return Format(
          "let rid = %lld;\n"
          "let a = %lld;\n"
          "let x = %lld;\n"
          "let m = %lld;\n"
          "let s = 0;\n"
          "for (let i = 0; i < %d; i = i + 1) {\n"
          "  x = (x * a + i) %% m;\n"
          "  s = s + x %% 7;\n"
          "}\n"
          "print(s);\n"
          "print(x);\n"
          "print(rid);\n",
          spec);
    case Family::kString:
      return Format(
          "let rid = %lld;\n"
          "let a = %lld;\n"
          "let b = %lld;\n"
          "let m = %lld;\n"
          "let s = \"\";\n"
          "for (let i = 0; i < %d; i = i + 1) {\n"
          "  s = s + chr(97 + (i * a + b) %% 26);\n"
          "}\n"
          "print(s);\n"
          "print(len(s));\n"
          "print(rid);\n",
          spec);
    case Family::kArray:
      return Format(
          "let rid = %lld;\n"
          "let a = %lld;\n"
          "let b = %lld;\n"
          "let m = %lld;\n"
          "let arr = [];\n"
          "for (let i = 0; i < %d; i = i + 1) {\n"
          "  push(arr, (i * a + b) %% m);\n"
          "}\n"
          "let t = 0;\n"
          "for (let i = 0; i < len(arr); i = i + 1) {\n"
          "  t = t + arr[i];\n"
          "}\n"
          "print(t);\n"
          "print(len(arr));\n"
          "print(rid);\n",
          spec);
    case Family::kCalls:
      return Format(
          "let rid = %lld;\n"
          "let a = %lld;\n"
          "let v = %lld;\n"
          "let m = %lld;\n"
          "fn step(x, k) {\n"
          "  return (x * a + k) %% m;\n"
          "}\n"
          "fn twice(x, k) {\n"
          "  return step(step(x, k), k + 1);\n"
          "}\n"
          "for (let i = 0; i < %d; i = i + 1) {\n"
          "  v = twice(v, i);\n"
          "}\n"
          "print(v);\n"
          "print(rid);\n",
          spec);
  }
  return "";
}

std::vector<std::string> ExpectedPrints(const ScriptSpec& spec) {
  const auto str = [](int64_t v) { return std::to_string(v); };
  switch (spec.family) {
    case Family::kArith: {
      int64_t x = spec.b;
      int64_t s = 0;
      for (int i = 0; i < spec.n; ++i) {
        x = (x * spec.a + i) % spec.m;
        s += x % 7;
      }
      return {str(s), str(x), str(spec.rid)};
    }
    case Family::kString: {
      std::string s;
      for (int i = 0; i < spec.n; ++i) {
        s += static_cast<char>('a' + (i * spec.a + spec.b) % 26);
      }
      return {s, str(static_cast<int64_t>(s.size())), str(spec.rid)};
    }
    case Family::kArray: {
      int64_t t = 0;
      for (int i = 0; i < spec.n; ++i) {
        t += (i * spec.a + spec.b) % spec.m;
      }
      return {str(t), str(spec.n), str(spec.rid)};
    }
    case Family::kCalls: {
      const auto step = [&](int64_t x, int64_t k) { return (x * spec.a + k) % spec.m; };
      int64_t v = spec.b;
      for (int i = 0; i < spec.n; ++i) {
        v = step(step(v, i), i + 1);
      }
      return {str(v), str(spec.rid)};
    }
  }
  return {};
}

std::string JsonEscapeString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 16);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RequestLine(const std::string& tenant, const std::string& script) {
  return "{\"tenant\":\"" + JsonEscapeString(tenant) + "\",\"script\":\"" +
         JsonEscapeString(script) + "\"}";
}

std::vector<Request> RepeatScriptSet(uint64_t seed) {
  uint64_t state = seed ^ 0x5E7EA7ULL;
  std::vector<Request> set;
  for (int t = 0; t < kRepeatTenants; ++t) {
    for (int k = 0; k < kRepeatScriptsPerTenant; ++k) {
      ScriptSpec spec = RandomSpec(SplitMix(&state), SplitMix(&state));
      // Spread the families evenly so every tenant runs all four.
      spec.family = static_cast<Family>((k + t) % kFamilies);
      spec.rid = t * kRepeatScriptsPerTenant + k;
      Request request;
      request.tenant = "r" + std::to_string(t);
      request.script = ScriptSource(spec);
      request.line = RequestLine(request.tenant, request.script);
      request.expected = ExpectedPrints(spec);
      set.push_back(std::move(request));
    }
  }
  return set;
}

std::vector<int> RepeatOps(uint64_t* rng_state, std::vector<int>* cursor, int count) {
  cursor->resize(kRepeatTenants, 0);
  std::vector<int> ops;
  ops.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int tenant = static_cast<int>(SplitMix(rng_state) % kRepeatTenants);
    int& position = (*cursor)[static_cast<size_t>(tenant)];
    ops.push_back(tenant * kRepeatScriptsPerTenant + position);
    position = (position + 1) % kRepeatScriptsPerTenant;
  }
  return ops;
}

namespace {

std::string ChurnName(int connection, int index) {
  return "c" + std::to_string(connection) + "-" + std::to_string(index);
}

}  // namespace

std::vector<Request> ChurnOps(uint64_t seed, int round, int connection) {
  uint64_t state = seed * 0x100000001B3ULL + static_cast<uint64_t>(round) * 1000003ULL +
                   static_cast<uint64_t>(connection);
  // Window slots each hold one live name; visiting a slot sends that name's
  // next request, and a name that has had its burst hands the slot to the
  // next unused name. Slots are visited round-robin, so a live name is
  // revisited every kChurnWindow requests of its connection.
  std::vector<int> slot_name(kChurnWindow);
  std::vector<int> slot_sent(kChurnWindow, 0);
  int next_name = 0;
  for (int s = 0; s < kChurnWindow; ++s) {
    slot_name[static_cast<size_t>(s)] = next_name++;
  }
  std::vector<Request> ops;
  ops.reserve(static_cast<size_t>(kChurnNamesPerConnection * kChurnBurst));
  int64_t position = 0;
  int live = kChurnWindow;
  while (live > 0) {
    for (int s = 0; s < kChurnWindow; ++s) {
      const size_t slot = static_cast<size_t>(s);
      if (slot_name[slot] < 0) {
        continue;
      }
      ScriptSpec spec = RandomSpec(SplitMix(&state), SplitMix(&state));
      spec.rid = (static_cast<int64_t>(round) * kChurnConnections + connection) * 1'000'000 +
                 position++;
      Request request;
      request.tenant = ChurnName(connection, slot_name[slot]);
      request.script = ScriptSource(spec);
      request.line = RequestLine(request.tenant, request.script);
      request.expected = ExpectedPrints(spec);
      ops.push_back(std::move(request));
      if (++slot_sent[slot] == kChurnBurst) {
        slot_sent[slot] = 0;
        if (next_name < kChurnNamesPerConnection) {
          slot_name[slot] = next_name++;
        } else {
          slot_name[slot] = -1;
          --live;
        }
      }
    }
  }
  return ops;
}

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

}  // namespace perfbench
