#include "perfbench/src/traced.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/src/dom_page.h"
#include "perfbench/src/trace.h"
#include "src/jsvm/compiler.h"
#include "src/jsvm/lexer.h"
#include "src/jsvm/parser.h"
#include "src/jsvm/vm.h"
#include "src/mpk/hardware_backend.h"
#include "src/multidomain/multi_compartment.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

namespace {

using pkrusafe::BackendKind;
using pkrusafe::MultiCompartment;
using pkrusafe::PkruSafeRuntime;
using pkrusafe::RuntimeConfig;
using pkrusafe::RuntimeMode;
using pkrusafe::server::SandboxServer;
using pkrusafe::server::TenantSession;

std::unique_ptr<PkruSafeRuntime> MakeRuntime(BackendKind backend) {
  // The configuration pkrusafe_serve runs with.
  RuntimeConfig config;
  config.backend = backend;
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  if (!runtime.ok()) {
    Fail("runtime: " + runtime.status().ToString());
  }
  return std::move(*runtime);
}

// An in-process server (never started: no sockets, no worker threads) on a
// runtime of its own, so the three replays below never share a registry.
struct Replayer {
  std::unique_ptr<PkruSafeRuntime> runtime;
  std::unique_ptr<SandboxServer> server;
  uint64_t last_sweep_ms = 0;
};

std::unique_ptr<Replayer> MakeReplayer(const std::string& stream) {
  auto replayer = std::make_unique<Replayer>();
  replayer->runtime = MakeRuntime(BackendKind::kSim);
  pkrusafe::server::SandboxServerOptions options;
  options.enable_vulnerability = true;
  options.idle_timeout_ms = IdleTimeoutMs(stream);
  auto server = SandboxServer::Create(replayer->runtime.get(), options);
  if (!server.ok()) {
    Fail("in-process server: " + server.status().ToString());
  }
  replayer->server = std::move(*server);
  return replayer;
}

uint64_t NowMs() { return NowNs() / 1'000'000; }

// The sweep the server's accept loop runs every 250 ms.
void MaybeSweep(Replayer& replayer, Tracer& tracer) {
  const uint64_t now = NowMs();
  if (now < replayer.last_sweep_ms + 250) {
    return;
  }
  Tracer::Scope span(tracer, "server.sweep");
  replayer.server->registry().SweepIdle(now);
  replayer.last_sweep_ms = now;
}

// A host function returning `address` as a number, as the server's
// secret_addr() and scratch_addr() bindings do.
pkrusafe::HostFn AddressHost(const void* address) {
  const auto value = static_cast<double>(reinterpret_cast<uintptr_t>(address));
  return [value](pkrusafe::Vm&, const std::vector<pkrusafe::Value>&)
             -> pkrusafe::Result<pkrusafe::Value> { return pkrusafe::Value::Number(value); };
}

void CheckPrints(const std::vector<std::string>& got, const Request& request) {
  if (got != request.expected) {
    Fail("in-process replay: wrong prints for " + request.tenant);
  }
}

// One request composed from the public calls SandboxServer::RunInTenant
// makes: parse, registry, Vm construction + RegisterHost + Load, then the
// call gate + the tenant's compartment scope + Vm::Run, then teardown.
// Returns the VM steps the script took.
uint64_t ComposedRequest(Replayer& replayer, Tracer& tracer, const Request& request) {
  SandboxServer& server = *replayer.server;
  PkruSafeRuntime& runtime = *replayer.runtime;
  std::unique_ptr<pkrusafe::Vm> vm;
  pkrusafe::Result<pkrusafe::Value> result = pkrusafe::Value::Null();
  uint64_t steps = 0;
  {
    Tracer::Scope span(tracer, "request");
    std::string tenant;
    std::string script;
    {
      Tracer::Scope parse(tracer, "support.json_parse");
      auto parsed = pkrusafe::json::Parse(request.line);
      if (!parsed.ok()) {
        Fail("replay: unparseable request line");
      }
      tenant = parsed->GetString("tenant");
      script = parsed->GetString("script");
    }
    TenantSession* session = nullptr;
    {
      Tracer::Scope registry(tracer, "server.registry_hit");
      auto got = server.registry().GetOrCreate(tenant, NowMs());
      if (!got.ok()) {
        Fail("replay: " + got.status().ToString());
      }
      session = *got;
      if (session->requests.load(std::memory_order_relaxed) == 0) {
        registry.Rename("server.registry_create");
      }
    }
    {
      Tracer::Scope load(tracer, "jsvm.load");
      pkrusafe::VmOptions vm_options;
      vm_options.enable_vulnerability = true;
      vm = std::make_unique<pkrusafe::Vm>(&runtime, vm_options);
      vm->RegisterHost("secret_addr", AddressHost(server.secret_address()));
      vm->RegisterHost("scratch_addr", AddressHost(session->scratch));
      const pkrusafe::Status loaded = vm->Load(script);
      if (!loaded.ok()) {
        Fail("replay: load failed: " + loaded.ToString());
      }
    }
    {
      Tracer::Scope gate(tracer, "runtime.gate_scope");
      runtime.gates().CallUntrusted([&] {
        MultiCompartment::Scope scope(server.compartments(), session->library);
        if (session->scratch != nullptr && session->scratch_bytes >= sizeof(uint64_t)) {
          auto* words = static_cast<uint64_t*>(session->scratch);
          const uint64_t n = session->requests.load(std::memory_order_relaxed);
          words[n % (session->scratch_bytes / sizeof(uint64_t))] = n;
        }
        Tracer::Scope run(tracer, "jsvm.run");
        result = vm->Run();
      });
    }
    session->requests.fetch_add(1, std::memory_order_relaxed);
    session->in_flight.fetch_sub(1, std::memory_order_release);
    steps = vm->steps_executed();
    if (!result.ok()) {
      Fail("replay: run failed: " + result.status().ToString());
    }
    CheckPrints(vm->print_output(), request);
    Tracer::Scope destroy(tracer, "jsvm.destroy");
    vm.reset();
  }
  return steps;
}

template <typename Fn>
double MedianNsPerOp(int batches, int ops, Fn&& fn) {
  std::vector<double> per_batch;
  for (int b = 0; b < batches; ++b) {
    const uint64_t t0 = NowNs();
    for (int i = 0; i < ops; ++i) {
      fn();
    }
    per_batch.push_back(static_cast<double>(NowNs() - t0) / ops);
  }
  return Median(per_batch);
}

// Two threads run `fn` concurrently; ns per op of one thread.
template <typename Fn>
double MedianNsPerOpContended(int batches, int ops, Fn&& fn) {
  std::vector<double> per_batch;
  for (int b = 0; b < batches; ++b) {
    const uint64_t t0 = NowNs();
    std::thread other([&] {
      for (int i = 0; i < ops; ++i) {
        fn();
      }
    });
    for (int i = 0; i < ops; ++i) {
      fn();
    }
    other.join();
    per_batch.push_back(static_cast<double>(NowNs() - t0) / ops);
  }
  return Median(per_batch);
}

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------- serve

// Replays the stream's first round in process; returns the requests replayed.
uint64_t ReplayServeStream(const std::string& stream, uint64_t seed, double budget_s,
                           bool own_stream, const Paths& paths, MetricSink& sink) {
  // The connections' requests interleaved one by one, as the two workers
  // would see them. Both connections of a plan send equally many.
  const RoundPlan plan = PlanRound(stream, seed, 0);
  std::vector<const Request*> order;
  for (size_t i = 0; i < plan.per_connection[0].size(); ++i) {
    for (const std::vector<Request>& ops : plan.per_connection) {
      order.push_back(&ops[i]);
    }
  }

  std::unique_ptr<Replayer> traced = MakeReplayer(stream);
  std::unique_ptr<Replayer> handled = MakeReplayer(stream);
  std::unique_ptr<Replayer> untraced = MakeReplayer(stream);
  Tracer tracer(true);
  Tracer off(false);
  Tracer sweep_off(false);
  const std::vector<std::string> host_names = {"secret_addr", "scratch_addr"};

  double handle_ns = 0;
  double untraced_ns = 0;
  uint64_t steps = 0;
  const uint64_t transitions0 = traced->runtime->gates().transition_count();
  const double deadline = NowSeconds() + budget_s;
  uint64_t n = 0;
  // Each request goes through all three paths; the order rotates so none of
  // them always runs first on a cold cache.
  for (; n < order.size() && (n < 200 || NowSeconds() < deadline); ++n) {
    const Request& request = *order[n];
    tracer.set_request(n + 1);
    for (int k = 0; k < 3; ++k) {
      switch ((n + static_cast<uint64_t>(k)) % 3) {
        case 0:
          steps += ComposedRequest(*traced, tracer, request);
          MaybeSweep(*traced, tracer);
          break;
        case 1: {
          const uint64_t t0 = NowNs();
          const std::string response = handled->server->HandleRequestLine(request.line);
          handle_ns += static_cast<double>(NowNs() - t0);
          CheckResponse(response, request);
          MaybeSweep(*handled, sweep_off);
          break;
        }
        default: {
          const uint64_t t0 = NowNs();
          ComposedRequest(*untraced, off, request);
          untraced_ns += static_cast<double>(NowNs() - t0);
          MaybeSweep(*untraced, sweep_off);
          break;
        }
      }
    }
    // The Load breakdown, outside the request: the same script through the
    // jsvm's front-end stages one at a time.
    const std::string& script = request.script;
    Tracer::Scope breakdown(tracer, "load_breakdown");
    {
      Tracer::Scope lex(tracer, "jsvm.lex");
      if (!pkrusafe::Tokenize(script).ok()) {
        Fail("replay: tokenize failed");
      }
    }
    pkrusafe::Result<pkrusafe::Program> program = pkrusafe::Program{};
    {
      Tracer::Scope parse(tracer, "jsvm.parse");
      program = pkrusafe::ParseProgram(script);
    }
    if (!program.ok()) {
      Fail("replay: parse failed");
    }
    Tracer::Scope compile(tracer, "jsvm.compile");
    if (!pkrusafe::CompileProgram(*program, host_names).ok()) {
      Fail("replay: compile failed");
    }
  }

  const auto layers = tracer.Layers();
  const auto mean_self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.mean_self_us();
  };
  const auto per_request_total = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ns / 1e3 / static_cast<double>(n);
  };
  const double requests = static_cast<double>(n);
  const double handle_us = handle_ns / 1e3 / requests;
  const double composed_us = per_request_total("support.json_parse") +
                             per_request_total("server.registry_hit") +
                             per_request_total("server.registry_create") +
                             per_request_total("jsvm.load") +
                             per_request_total("runtime.gate_scope") +
                             per_request_total("jsvm.destroy");
  const double traced_request_us = per_request_total("request");
  const double untraced_us = untraced_ns / 1e3 / requests;

  // The composed path must cover the real one: its layer calls account for
  // HandleRequestLine's time to within 25% (README: measured 3-5%).
  if (composed_us < 0.75 * handle_us || composed_us > 1.25 * handle_us) {
    Fail("traced replay: composed layers (" + std::to_string(composed_us) +
         " us) do not cover HandleRequestLine (" + std::to_string(handle_us) + " us)");
  }
  sink.Add("server.handle_us", handle_us, "us");
  sink.Add("server.unattributed_us", handle_us - composed_us, "us");
  sink.Add("server.registry_hit_us", mean_self("server.registry_hit"), "us");
  sink.Add("server.registry_create_us", mean_self("server.registry_create"), "us");
  sink.Add("server.sweep_us", mean_self("server.sweep"), "us");
  sink.Add("support.json_parse_us", mean_self("support.json_parse"), "us");
  sink.Add("jsvm.lex_us", mean_self("jsvm.lex"), "us");
  sink.Add("jsvm.parse_us", mean_self("jsvm.parse"), "us");
  sink.Add("jsvm.compile_us", mean_self("jsvm.compile"), "us");
  sink.Add("jsvm.load_us", mean_self("jsvm.load"), "us");
  sink.Add("jsvm.run_us", mean_self("jsvm.run"), "us");
  sink.Add("runtime.gate_scope_us", mean_self("runtime.gate_scope"), "us");
  sink.Add("trace.overhead_pct", (traced_request_us - untraced_us) / untraced_us * 100, "%");
  if (own_stream) {
    sink.Add("jsvm.steps_per_op", static_cast<double>(steps) / requests, "count");
    sink.Add("runtime.transitions_per_op",
             static_cast<double>(traced->runtime->gates().transition_count() - transitions0) /
                 requests,
             "count");
  }
  const pkrusafe::VpkeyStats vpkeys = traced->server->compartments().vpkey_stats();
  const double pins = static_cast<double>(vpkeys.hits + vpkeys.misses);
  sink.Add("multidomain.vpkey_hit_ratio", pins == 0 ? 0 : static_cast<double>(vpkeys.hits) / pins,
           "ratio");
  sink.Add("multidomain.evictions_per_op", static_cast<double>(vpkeys.evictions) / requests,
           "count");

  std::fprintf(stderr,
               "traced %s replay: %llu requests; handle %.2f us = composed %.2f us + "
               "unattributed %.2f us; traced request %.2f us vs untraced %.2f us\n%s",
               stream.c_str(), static_cast<unsigned long long>(n), handle_us, composed_us,
               handle_us - composed_us, traced_request_us, untraced_us,
               FormatLayerTable(layers).c_str());
  tracer.WriteOut(paths.bin_dir + "/trace-" + stream, 200'000);
  return n;
}

// ---------------------------------------------------------------- dom

uint64_t TracedDomPage(double budget_s, bool own_stream, const Paths& paths,
                       MetricSink& sink) {
  Tracer tracer(true);
  std::unique_ptr<Page> page;
  uint64_t profile_faults = 0;
  {
    Tracer::Scope setup(tracer, "setup");
    pkrusafe::Profile profile;
    {
      Tracer::Scope stage(tracer, "setup.profile_run");
      ProfileRun run = ProfilePage(BackendKind::kHardware);
      profile = std::move(run.profile);
      profile_faults = run.faults;
    }
    {
      Tracer::Scope stage(tracer, "setup.enforce_build");
      RuntimeConfig config = PageConfig(BackendKind::kHardware, RuntimeMode::kEnforcing);
      config.policy = pkrusafe::SitePolicy::FromProfile(profile);
      page = AssemblePage(std::move(config));
    }
    Tracer::Scope stage(tracer, "setup.top_level");
    RunTopLevel(*page);
  }
  // Every traced run checks hardware containment too: a forked child that
  // reads M_T inside the gate must die by SIGSEGV.
  CheckPageContainment(*page);

  const std::vector<size_t> all = {0, 1, 2, 3};
  std::vector<int64_t> first;
  PageOp(*page, all, &first);  // untimed: fills the bindings' text caches
  CheckPageOp(*page, first, first);
  const auto sum_counters = [&page] {
    std::vector<uint64_t> sums(3, 0);
    for (const Page::Engine& engine : page->engines) {
      sums[0] += engine.bindings->trusted_calls();
      sums[1] += engine.bindings->untrusted_reads();
      sums[2] += engine.vm->steps_executed();
    }
    return sums;
  };
  const std::vector<uint64_t> before = sum_counters();
  const uint64_t transitions0 = page->runtime->gates().transition_count();
  uint64_t ops = 0;
  const double deadline = NowSeconds() + budget_s / 2;
  std::vector<int64_t> results(page->engines.size());
  for (; ops < 20 || NowSeconds() < deadline; ++ops) {
    tracer.set_request(ops + 1);
    {
      Tracer::Scope op(tracer, "page_op");
      for (size_t k = 0; k < page->engines.size(); ++k) {
        Tracer::Scope call(tracer, "jsvm.bench_call");
        pkrusafe::Result<pkrusafe::Value> result = pkrusafe::Value::Null();
        page->runtime->gates().CallUntrusted(
            [&] { result = page->engines[k].vm->CallFunction("bench", {}); });
        results[k] = result.ok() && result->is_number() ? static_cast<int64_t>(result->number) : -1;
      }
    }
    CheckPageOp(*page, results, first);
  }
  const std::vector<uint64_t> after = sum_counters();
  const double n = static_cast<double>(ops);
  const uint64_t transitions = page->runtime->gates().transition_count() - transitions0;
  page.reset();

  // The paper's base configuration on the same backend: one fast allocator,
  // no gates, no enforcement. Built once the enforcing page is gone, since a
  // process holds one hardware fault delegate at a time.
  RuntimeConfig base_config = PageConfig(BackendKind::kHardware, RuntimeMode::kDisabled);
  base_config.allocator.fast_untrusted_heap = true;
  std::unique_ptr<Page> base = AssemblePage(std::move(base_config));
  RunTopLevel(*base);
  PageOp(*base, all, &results);
  CheckPageOp(*base, results, results);
  const uint64_t t0 = NowNs();
  for (uint64_t i = 0; i < ops; ++i) {
    PageOp(*base, all, &results);
  }
  const double base_ns = static_cast<double>(NowNs() - t0);
  CheckPageOp(*base, results, results);

  const auto layers = tracer.Layers();
  sink.Add("jsvm.bench_call_us", layers.at("jsvm.bench_call").mean_self_us(), "us");
  sink.Add("workloads.mpk_page_us", layers.at("page_op").total_ns / 1e3 / n, "us");
  sink.Add("workloads.base_page_us", base_ns / 1e3 / n, "us");
  sink.Add("dom.trusted_calls_per_op", static_cast<double>(after[0] - before[0]) / n, "count");
  sink.Add("dom.untrusted_reads_per_op", static_cast<double>(after[1] - before[1]) / n, "count");
  sink.Add("mpk.profile_faults", static_cast<double>(profile_faults), "count");
  sink.Add("setup.profile_run_s", layers.at("setup.profile_run").total_ns / 1e9, "s");
  sink.Add("setup.enforce_build_s", layers.at("setup.enforce_build").total_ns / 1e9, "s");
  if (own_stream) {
    sink.Add("jsvm.steps_per_op", static_cast<double>(after[2] - before[2]) / n, "count");
    sink.Add("runtime.transitions_per_op", static_cast<double>(transitions) / n, "count");
  }
  std::fprintf(stderr, "traced dom-page: %llu operations; base page %.1f us\n%s",
               static_cast<unsigned long long>(ops), base_ns / 1e3 / n,
               FormatLayerTable(layers).c_str());
  tracer.WriteOut(paths.bin_dir + "/trace-dom-page", 200'000);
  return ops;
}

// ---------------------------------------------------- single layers

void SessionLifecycle(MetricSink& sink) {
  // serve-churn's session pattern at the multidomain layer: a window of 48
  // live sessions; each new session registers a library and allocates its
  // scratch (what TenantRegistry::GetOrCreate does), enters it once, and
  // the oldest live session is released (what the idle sweep does).
  constexpr int kSessions = 8000;
  constexpr int kWindow = 48;
  constexpr int kBucket = 1000;
  std::unique_ptr<PkruSafeRuntime> runtime = MakeRuntime(BackendKind::kSim);
  pkrusafe::MultiCompartmentConfig config;
  const pkrusafe::server::SandboxServerOptions defaults;
  config.trusted_pool_bytes = defaults.trusted_pool_bytes;
  config.shared_pool_bytes = defaults.shared_pool_bytes;
  config.library_pool_bytes = defaults.tenant_pool_bytes;
  config.extra_deny = {runtime->trusted_key()};
  auto mc = MultiCompartment::Create(&runtime->backend(), config);
  if (!mc.ok()) {
    Fail("multidomain: " + mc.status().ToString());
  }
  std::vector<pkrusafe::LibraryId> live;
  std::vector<double> register_us;
  std::vector<double> release_us;
  for (int i = 0; i < kSessions; ++i) {
    uint64_t t0 = NowNs();
    auto library = (*mc)->RegisterLibrary("s" + std::to_string(i));
    void* scratch = library.ok() ? (*mc)->AllocateIn(*library, defaults.scratch_bytes) : nullptr;
    register_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (scratch == nullptr) {
      Fail("multidomain: session " + std::to_string(i) + " could not be created");
    }
    {
      MultiCompartment::Scope scope(**mc, *library);
      *static_cast<volatile uint64_t*>(scratch) = static_cast<uint64_t>(i);
    }
    live.push_back(*library);
    if (live.size() > kWindow) {
      t0 = NowNs();
      const pkrusafe::Status released = (*mc)->ReleaseLibrary(live.front());
      release_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!released.ok()) {
        Fail("multidomain: release failed: " + released.ToString());
      }
      live.erase(live.begin());
    }
  }
  const auto mean = [](const std::vector<double>& v, size_t begin, size_t end) {
    double sum = 0;
    for (size_t i = begin; i < end; ++i) {
      sum += v[i];
    }
    return sum / static_cast<double>(end - begin);
  };
  sink.Add("multidomain.register_us.first", mean(register_us, 0, kBucket), "us");
  sink.Add("multidomain.register_us.last",
           mean(register_us, register_us.size() - kBucket, register_us.size()), "us");
  sink.Add("multidomain.release_us.first", mean(release_us, 0, kBucket), "us");
  sink.Add("multidomain.release_us.last",
           mean(release_us, release_us.size() - kBucket, release_us.size()), "us");
}

void LayerMicrobenches(MetricSink& sink) {
  constexpr int kBatches = 7;
  constexpr int kOps = 100'000;
  {
    std::unique_ptr<PkruSafeRuntime> sim = MakeRuntime(BackendKind::kSim);
    sink.Add("runtime.gate_pair_ns.sim",
             MedianNsPerOp(kBatches, kOps, [&] { sim->gates().CallUntrusted([] {}); }), "ns");
    sink.Add("runtime.alloc_untrusted_ns", MedianNsPerOp(kBatches, kOps, [&] {
               sim->Free(sim->AllocUntrusted(64));
             }),
             "ns");
    pkrusafe::MultiCompartmentConfig config;
    config.trusted_pool_bytes = config.shared_pool_bytes = config.library_pool_bytes = 8 << 20;
    auto mc = MultiCompartment::Create(&sim->backend(), config);
    if (!mc.ok()) {
      Fail("multidomain: " + mc.status().ToString());
    }
    auto library = (*mc)->RegisterLibrary("resident");
    if (!library.ok()) {
      Fail("multidomain: " + library.status().ToString());
    }
    sink.Add("multidomain.scope_pair_ns", MedianNsPerOp(kBatches, kOps, [&] {
               MultiCompartment::Scope scope(**mc, *library);
             }),
             "ns");
  }
  if (!pkrusafe::HardwareMpkBackend::IsSupported()) {
    Fail("the traced run needs hardware MPK for the WRPKRU and hardware gate columns");
  }
  {
    std::unique_ptr<PkruSafeRuntime> hardware = MakeRuntime(BackendKind::kHardware);
    sink.Add("runtime.gate_pair_ns.hardware", MedianNsPerOp(kBatches, kOps, [&] {
               hardware->gates().CallUntrusted([] {});
             }),
             "ns");
  }
  {
    pkrusafe::HardwareMpkBackend backend;
    const pkrusafe::PkruValue open = backend.ReadPkru();
    const pkrusafe::PkruValue closed = pkrusafe::PkruValue::DenyAllButDefault();
    sink.Add("mpk.wrpkru_pair_ns", MedianNsPerOp(kBatches, kOps, [&] {
               backend.WritePkru(closed);
               backend.WritePkru(open);
             }),
             "ns");
  }
  auto& registry = pkrusafe::telemetry::MetricsRegistry::Global();
  pkrusafe::telemetry::Counter* counter = registry.GetOrCreateCounter("perfbench.counter");
  pkrusafe::telemetry::Histogram* histogram = registry.GetOrCreateHistogram(
      "perfbench.histogram", pkrusafe::telemetry::Histogram::ExponentialBounds(1024, 2.0, 24));
  uint64_t value = 1000;
  sink.Add("telemetry.counter_inc_ns.1t",
           MedianNsPerOp(kBatches, kOps, [&] { counter->Increment(); }), "ns");
  sink.Add("telemetry.counter_inc_ns.2t",
           MedianNsPerOpContended(kBatches, kOps, [&] { counter->Increment(); }), "ns");
  sink.Add("telemetry.histogram_observe_ns.1t",
           MedianNsPerOp(kBatches, kOps, [&] { histogram->Observe(value += 977); }), "ns");
  sink.Add("telemetry.histogram_observe_ns.2t", MedianNsPerOpContended(kBatches, kOps, [&] {
             histogram->Observe(4096);
           }),
           "ns");
}

void SocketAndServerSetup(const std::string& stream, uint64_t seed, const Paths& paths,
                          MetricSink& sink) {
  const RoundPlan plan = PlanRound(stream, seed, 0);
  WarmServer warm = StartAndWarm(paths, stream, plan, paths.scratch_dir + "/traced-crash");
  sink.Add("setup.server_start_s", warm.start_s, "s");
  sink.Add("setup.tenant_warm_s", warm.warm_s - warm.start_s, "s");
  // A minimal valid request for a live tenant.
  const std::string line = RequestLine(plan.per_connection[0][0].tenant, "1;");
  std::vector<double> rtt_us;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t t0 = NowNs();
    const std::string response = warm.connections[0]->RoundTrip(line);
    rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (response.find("\"ok\":true") == std::string::npos) {
      Fail("socket round trip failed: " + response);
    }
  }
  sink.Add("server.socket_rtt_us", Median(rtt_us), "us");
  warm.connections.clear();
  warm.server->StopAndReadStats();
}

}  // namespace

TracedResult RunTraced(const std::string& workload, uint64_t seed, double seconds,
                       const Paths& paths) {
  MetricSink sink;
  TracedResult result;
  const bool dom = workload == "dom-page";
  // Layers a workload does not reach are measured on the stream that does:
  // the server layers of dom-page on serve-repeat's stream.
  const std::string stream = dom ? "serve-repeat" : workload;
  result.attempted += ReplayServeStream(stream, seed, seconds * 0.5, !dom, paths, sink);
  result.attempted += TracedDomPage(seconds * 0.25, dom, paths, sink);
  SessionLifecycle(sink);
  LayerMicrobenches(sink);
  SocketAndServerSetup(stream, seed, paths, sink);
  result.metrics = sink.Take();
  return result;
}

}  // namespace perfbench
