// The compiled-script cache as Vm::Load uses it: the program codec round
// trip, hit/miss equivalence (prints, results, steps, runtime-error lines),
// the cache key (host-name lists), admission, eviction, heap accounting and
// concurrent Loads on one runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/dom/bindings.h"
#include "src/dom/document.h"
#include "src/jsvm/compiler.h"
#include "src/jsvm/program_codec.h"
#include "src/jsvm/vm.h"
#include "src/support/string_util.h"
#include "src/workloads/kernels.h"

namespace pkrusafe {
namespace {

std::unique_ptr<PkruSafeRuntime> MakeRuntime() {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kDisabled;
  config.allocator.trusted_pool_bytes = size_t{1} << 30;
  config.allocator.untrusted_pool_bytes = size_t{1} << 30;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok());
  return std::move(*runtime);
}

// The four request shapes of the server benchmark: arithmetic loop, string
// building, array push/sum, and nested function calls.
std::vector<std::string> ServeFamilies(int rid, int a, int b, int m, int n) {
  return {
      StrFormat("let rid = %d;\nlet a = %d;\nlet x = %d;\nlet m = %d;\nlet s = 0;\n"
                "for (let i = 0; i < %d; i = i + 1) {\n  x = (x * a + i) %% m;\n"
                "  s = s + x %% 7;\n}\nprint(s);\nprint(x);\nprint(rid);\n",
                rid, a, b, m, n),
      StrFormat("let rid = %d;\nlet a = %d;\nlet b = %d;\nlet m = %d;\nlet s = \"\";\n"
                "for (let i = 0; i < %d; i = i + 1) {\n  s = s + chr(97 + (i * a + b) %% 26);\n"
                "}\nprint(s);\nprint(len(s));\nprint(rid);\n",
                rid, a, b, m, n),
      StrFormat("let rid = %d;\nlet a = %d;\nlet b = %d;\nlet m = %d;\nlet arr = [];\n"
                "for (let i = 0; i < %d; i = i + 1) {\n  push(arr, (i * a + b) %% m);\n}\n"
                "let t = 0;\nfor (let i = 0; i < len(arr); i = i + 1) {\n  t = t + arr[i];\n}\n"
                "print(t);\nprint(len(arr));\nprint(rid);\n",
                rid, a, b, m, n),
      StrFormat("let rid = %d;\nlet a = %d;\nlet v = %d;\nlet m = %d;\n"
                "fn step(x, k) {\n  return (x * a + k) %% m;\n}\n"
                "fn twice(x, k) {\n  return step(step(x, k), k + 1);\n}\n"
                "for (let i = 0; i < %d; i = i + 1) {\n  v = twice(v, i);\n}\n"
                "print(v);\nprint(rid);\n",
                rid, a, b, m, n),
  };
}

std::vector<KernelKind> AllKernels() {
  std::vector<KernelKind> kinds;
  for (int k = 0; k <= static_cast<int>(KernelKind::kJslibMix); ++k) {
    kinds.push_back(static_cast<KernelKind>(k));
  }
  return kinds;
}

std::string Kernel(KernelKind kind) {
  KernelParams params;
  params.size = kind == KernelKind::kFft ? 16 : 8;  // fft needs a power of 2
  return KernelScript(kind, params);
}

// What one Load + Run (+ bench() for kernels) observably did.
struct Outcome {
  Status load = Status::Ok();
  std::string result;
  std::string error;
  std::vector<std::string> prints;
  uint64_t steps = 0;
  CompiledProgram program;

  bool operator==(const Outcome& other) const {
    return load.ToString() == other.load.ToString() && result == other.result &&
           error == other.error && prints == other.prints && steps == other.steps &&
           program == other.program;
  }
};

// Loads and runs `source` on a fresh Vm (with the DOM bindings when `dom`),
// calling bench() afterwards when the script defines it.
Outcome LoadAndRun(PkruSafeRuntime* runtime, const std::string& source, bool dom = false,
                   bool call_bench = false) {
  Outcome out;
  std::unique_ptr<Document> document;
  Vm vm(runtime);
  std::unique_ptr<DomBindings> bindings;
  if (dom) {
    document = std::make_unique<Document>(runtime);
    bindings = std::make_unique<DomBindings>(document.get(), &vm);
  }
  out.load = vm.Load(source);
  if (!out.load.ok()) {
    return out;
  }
  out.program = vm.program();
  auto result = vm.Run();
  if (result.ok() && call_bench) {
    result = vm.CallFunction("bench", {});
  }
  if (result.ok()) {
    out.result = vm.ToDisplayString(*result);
  } else {
    out.error = result.status().ToString();
  }
  out.prints = vm.print_output();
  out.steps = vm.steps_executed();
  return out;
}

TEST(VmCodeCacheTest, CodecRoundTripsKernelsAndServeFamilies) {
  auto runtime = MakeRuntime();
  std::vector<std::pair<std::string, bool>> corpus;  // source, needs DOM
  for (const KernelKind kind : AllKernels()) {
    corpus.emplace_back(Kernel(kind), KernelUsesDom(kind));
  }
  for (const std::string& script : ServeFamilies(7, 13, 21, 977, 19)) {
    corpus.emplace_back(script, false);
  }
  for (const auto& [source, dom] : corpus) {
    // The Vm's program carries the host-name list the DOM kernels need.
    const Outcome fresh = LoadAndRun(runtime.get(), source, dom, /*call_bench=*/false);
    ASSERT_TRUE(fresh.load.ok()) << fresh.load.ToString() << "\n" << source;
    ASSERT_FALSE(fresh.program.functions.empty());
    auto decoded = DecodeProgram(EncodeProgram(fresh.program));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == fresh.program) << source;
  }
}

TEST(VmCodeCacheTest, DecodeRejectsTruncatedAndTrailingBytes) {
  auto compiled = CompileSource("fn f(x) { return x + \"s\"; } print(f(1.5));", {"h"});
  ASSERT_TRUE(compiled.ok());
  const std::string blob = EncodeProgram(*compiled);
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_FALSE(DecodeProgram(std::string_view(blob).substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(DecodeProgram(blob + "x").ok());
  ASSERT_TRUE(DecodeProgram(blob).ok());
}

// Miss (first sighting), admission (second) and hit (third) must be
// indistinguishable: same program, prints, result, steps and error text.
TEST(VmCodeCacheTest, HitMatchesFreshCompile) {
  auto runtime = MakeRuntime();
  struct Case {
    std::string source;
    bool dom;
    bool bench;
  };
  std::vector<Case> cases;
  for (const KernelKind kind : AllKernels()) {
    cases.push_back({Kernel(kind), KernelUsesDom(kind), true});
  }
  for (const std::string& script : ServeFamilies(3, 11, 4, 211, 12)) {
    cases.push_back({script, false, false});
  }
  // Runtime errors report the failing line; a hit must report the same one.
  cases.push_back({"let a = [1, 2];\nlet b = 3;\n\nprint(b);\nlet c = -a;\n", false, false});
  cases.push_back({"fn f(x) {\n  return -x;\n}\nf(\"s\");\n", false, false});
  cases.push_back({"fn g(n) {\n  let s = \"\";\n  return s - n;\n}\nprint(1);\ng(4);\n", false,
                   false});

  const uint64_t hits_before = runtime->code_cache().stats().hits;
  for (const Case& c : cases) {
    const Outcome miss = LoadAndRun(runtime.get(), c.source, c.dom, c.bench);
    const Outcome admit = LoadAndRun(runtime.get(), c.source, c.dom, c.bench);
    const Outcome hit = LoadAndRun(runtime.get(), c.source, c.dom, c.bench);
    ASSERT_TRUE(miss.load.ok()) << c.source;
    EXPECT_TRUE(admit == miss) << c.source;
    EXPECT_TRUE(hit == miss) << c.source;
  }
  EXPECT_EQ(runtime->code_cache().stats().hits - hits_before, cases.size());
  // The error cases really failed at run time, with a line number.
  const Outcome error = LoadAndRun(runtime.get(), cases.back().source);
  EXPECT_NE(error.error.find("line 3"), std::string::npos) << error.error;
}

HostFn Constant(double value) {
  return [value](Vm&, const std::vector<Value>&) -> Result<Value> {
    return Value::Number(value);
  };
}

std::vector<std::string> RunWithHosts(PkruSafeRuntime* runtime,
                                      const std::vector<std::pair<std::string, double>>& hosts,
                                      const std::string& source) {
  Vm vm(runtime);
  for (const auto& [name, value] : hosts) {
    vm.RegisterHost(name, Constant(value));
  }
  if (!vm.Load(source).ok() || !vm.Run().ok()) {
    return {"<failed>"};
  }
  return vm.print_output();
}

TEST(VmCodeCacheTest, DifferentHostNameListsNeverShareAnEntry) {
  auto runtime = MakeRuntime();
  const std::string source = "print(f()); print(g());";
  const std::vector<std::pair<std::string, double>> fg = {{"f", 1}, {"g", 2}};
  const std::vector<std::pair<std::string, double>> gf = {{"g", 2}, {"f", 1}};
  const std::vector<std::pair<std::string, double>> fgh = {{"f", 1}, {"g", 2}, {"h", 3}};
  const std::vector<std::string> expected = {"1", "2"};
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(RunWithHosts(runtime.get(), fg, source), expected);
    EXPECT_EQ(RunWithHosts(runtime.get(), gf, source), expected);
    EXPECT_EQ(RunWithHosts(runtime.get(), fgh, source), expected);
  }
  const CodeCache::Stats stats = runtime->code_cache().stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.hits, 3u);

  // Name bytes and source bytes cannot trade places: host "h " + text
  // "print(2);" and host "h" + text " print(2);" concatenate alike but are
  // different keys, with programs whose host tables differ.
  auto fresh = MakeRuntime();
  for (int round = 0; round < 3; ++round) {
    for (const char* name : {"h ", "h"}) {
      Vm vm(fresh.get());
      vm.RegisterHost(name, Constant(0));
      ASSERT_TRUE(vm.Load(name == std::string("h") ? " print(2);" : "print(2);").ok());
      EXPECT_EQ(vm.program().host_names, std::vector<std::string>{name});
    }
  }
  EXPECT_EQ(fresh->code_cache().stats().admitted, 2u);
  EXPECT_EQ(fresh->code_cache().stats().hits, 2u);
}

TEST(VmCodeCacheTest, CompileErrorsAreNeverCached) {
  auto runtime = MakeRuntime();
  for (int i = 0; i < 4; ++i) {
    Vm vm(runtime.get());
    EXPECT_FALSE(vm.Load("let = ;").ok());
    EXPECT_FALSE(vm.Load("print(undefined_fn());").ok());
  }
  const CodeCache::Stats stats = runtime->code_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(runtime->code_cache().block_base(), 0u);
}

TEST(VmCodeCacheTest, AdmitsOnTheSecondSighting) {
  auto runtime = MakeRuntime();
  const std::string source = "let x = 6 * 7; print(x);";
  CodeCache& cache = runtime->code_cache();

  LoadAndRun(runtime.get(), source);
  EXPECT_EQ(cache.stats().admitted, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.block_base(), 0u);  // a one-shot text takes no storage

  LoadAndRun(runtime.get(), source);
  EXPECT_EQ(cache.stats().admitted, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(cache.block_base(), 0u);

  const Outcome hit = LoadAndRun(runtime.get(), source);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(hit.prints, std::vector<std::string>{"42"});
}

TEST(VmCodeCacheTest, EvictionAtTheByteBoundKeepsServingCorrectResults) {
  auto runtime = MakeRuntime();
  CodeCache& cache = runtime->code_cache();
  // Each text carries a 16 KiB string constant, so ~64 of them fill the
  // bound; 96 distinct texts, each loaded three times per pass, force
  // evictions (and compactions) while every Load must still be right.
  const std::string pad(16 * 1024, 'p');
  constexpr int kTexts = 96;
  for (int pass = 0; pass < 2; ++pass) {
    for (int t = 0; t < kTexts; ++t) {
      const std::string source =
          StrFormat("let pad = \"%s\";\nprint(%d * 3 + len(pad));\n", pad.c_str(), t);
      const std::string expected = std::to_string(t * 3 + static_cast<int>(pad.size()));
      for (int k = 0; k < 3; ++k) {
        const Outcome out = LoadAndRun(runtime.get(), source);
        ASSERT_TRUE(out.load.ok());
        ASSERT_EQ(out.prints, std::vector<std::string>{expected}) << t;
      }
      ASSERT_LE(cache.stats().bytes, cache.capacity());
    }
  }
  const CodeCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.bytes, cache.capacity());
}

TEST(VmCodeCacheTest, RepeatedLoadsLeaveHeapAccountingAsACompileWould) {
  auto runtime = MakeRuntime();
  const std::string source = "let s = \"constant\"; print(s + \"!\");";
  // Each Load interns the same string constants into M_U, hit or miss; the
  // cache block itself never shows in the trusted/untrusted byte counts.
  runtime->allocator().FlushThisThreadCache();
  RuntimeStats before = runtime->stats();
  std::vector<uint64_t> untrusted_deltas;
  for (int i = 0; i < 8; ++i) {
    Vm vm(runtime.get());
    ASSERT_TRUE(vm.Load(source).ok());
    runtime->allocator().FlushThisThreadCache();
    const RuntimeStats after = runtime->stats();
    EXPECT_EQ(after.trusted_bytes, before.trusted_bytes) << i;
    untrusted_deltas.push_back(after.untrusted_bytes - before.untrusted_bytes);
    before = after;
  }
  EXPECT_EQ(runtime->code_cache().stats().hits, 6u);
  for (const uint64_t delta : untrusted_deltas) {
    EXPECT_EQ(delta, untrusted_deltas.front());
  }

  // A text without string constants allocates nothing at all.
  runtime->allocator().FlushThisThreadCache();
  const RuntimeStats quiet = runtime->stats();
  for (int i = 0; i < 8; ++i) {
    Vm vm(runtime.get());
    ASSERT_TRUE(vm.Load("let x = 1; print(x + 2);").ok());
  }
  runtime->allocator().FlushThisThreadCache();
  EXPECT_EQ(runtime->stats().trusted_bytes, quiet.trusted_bytes);
  EXPECT_EQ(runtime->stats().untrusted_bytes, quiet.untrusted_bytes);
}

// Four threads Load (and run) overlapping script sets on one runtime; every
// run must print what its text computes. check.sh runs this under TSan.
TEST(VmCodeCacheTest, FourThreadsLoadOverlappingScriptsOnOneRuntime) {
  auto runtime = MakeRuntime();
  std::vector<std::string> scripts;
  std::vector<std::vector<std::string>> expected;
  for (int i = 0; i < 8; ++i) {
    scripts.push_back(StrFormat("let v = %d; fn sq(x) { return x * x; } print(sq(v) + 1);", i));
    expected.push_back({std::to_string(i * i + 1)});
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      for (int i = 0; i < 200; ++i) {
        // Thread t cycles through scripts t..t+4: neighbours overlap.
        const size_t s = static_cast<size_t>((t + i % 5) % 8);
        Vm vm(runtime.get());
        if (!vm.Load(scripts[s]).ok() || !vm.Run().ok() || vm.print_output() != expected[s]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const CodeCache::Stats stats = runtime->code_cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, 800u);
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_GT(stats.hits, 400u);
}

}  // namespace
}  // namespace pkrusafe
