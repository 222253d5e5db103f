#include "perfbench/src/dom_page.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "src/mpk/hardware_backend.h"
#include "src/mpk/pkru.h"
#include "src/runtime/site_policy.h"
#include "src/workloads/kernels.h"

namespace perfbench {

using pkrusafe::BackendKind;
using pkrusafe::RuntimeConfig;
using pkrusafe::RuntimeMode;
using pkrusafe::WorkloadSpec;

std::vector<WorkloadSpec> PageKernels() {
  const char* const kNames[] = {"dom-modify", "dom-query", "dom-text-read",
                                "jslib-modify-jquery"};
  std::vector<WorkloadSpec> kernels;
  for (const char* name : kNames) {
    for (const pkrusafe::SuiteSpec& suite : pkrusafe::DromaeoSubSuites()) {
      for (const WorkloadSpec& spec : suite.workloads) {
        if (spec.name == name) {
          kernels.push_back(spec);
        }
      }
    }
  }
  if (kernels.size() != 4) {
    Fail("the Dromaeo suite no longer defines the four dom-page kernels");
  }
  return kernels;
}

int64_t ExpectedKernelResult(const WorkloadSpec& spec) {
  const int64_t size = spec.params.size;
  const int64_t iters = spec.params.inner_iters;
  switch (spec.kernel) {
    case pkrusafe::KernelKind::kDomChurn:
      // Every created node is found again by id.
      return size;
    case pkrusafe::KernelKind::kDomRead: {
      // Sum of each payload's bytes plus its byte at index 3.
      int64_t sum = 0;
      for (int64_t i = 0; i < size; ++i) {
        const std::string text = "payload-" + std::to_string(i) + "-abcdefghijklmnopqrstuvwxyz";
        for (const char c : text) {
          sum += static_cast<unsigned char>(c);
        }
        sum += static_cast<unsigned char>(text[3]);
      }
      return sum * iters;
    }
    case pkrusafe::KernelKind::kJslibMix: {
      // Each item's text is capitalised on first touch; the kernel adds its
      // length and its first byte ('I').
      int64_t acc = 0;
      for (int64_t i = 0; i < size; ++i) {
        acc += static_cast<int64_t>(("item text " + std::to_string(i)).size()) + 'I';
      }
      return acc * iters;
    }
    default:
      return -1;
  }
}

RuntimeConfig PageConfig(BackendKind backend, RuntimeMode mode) {
  RuntimeConfig config;
  config.backend = backend;
  config.mode = mode;
  config.allocator.trusted_pool_bytes = size_t{256} << 20;
  config.allocator.untrusted_pool_bytes = size_t{256} << 20;
  return config;
}

std::unique_ptr<Page> AssemblePage(RuntimeConfig config) {
  pkrusafe::SetCurrentThreadPkru(pkrusafe::PkruValue::AllowAll());
  auto page = std::make_unique<Page>();
  auto runtime = pkrusafe::PkruSafeRuntime::Create(std::move(config));
  if (!runtime.ok()) {
    Fail("dom-page runtime: " + runtime.status().ToString());
  }
  page->runtime = std::move(*runtime);
  page->document = std::make_unique<pkrusafe::Document>(page->runtime.get());
  for (const WorkloadSpec& spec : PageKernels()) {
    Page::Engine engine;
    engine.spec = spec;
    engine.vm = std::make_unique<pkrusafe::Vm>(page->runtime.get());
    engine.bindings =
        std::make_unique<pkrusafe::DomBindings>(page->document.get(), engine.vm.get());
    const pkrusafe::Status loaded =
        engine.vm->Load(pkrusafe::KernelScript(spec.kernel, spec.params));
    if (!loaded.ok()) {
      Fail(spec.name + ": load failed: " + loaded.ToString());
    }
    page->engines.push_back(std::move(engine));
  }
  return page;
}

namespace {

// Runs `body` the way the harness does: inside the call gate when the
// runtime instruments transitions.
template <typename Fn>
void Gated(Page& page, Fn&& body) {
  if (page.runtime->gates().enabled()) {
    page.runtime->gates().CallUntrusted(body);
  } else {
    body();
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void RunTopLevel(Page& page) {
  for (Page::Engine& engine : page.engines) {
    pkrusafe::Status status = pkrusafe::Status::Ok();
    Gated(page, [&] {
      auto result = engine.vm->Run();
      if (!result.ok()) {
        status = result.status();
      }
    });
    if (!status.ok()) {
      Fail(engine.spec.name + ": top-level failed: " + status.ToString());
    }
  }
}

void PageOp(Page& page, const std::vector<size_t>& order, std::vector<int64_t>* results) {
  results->resize(page.engines.size());
  for (const size_t k : order) {
    Page::Engine& engine = page.engines[k];
    pkrusafe::Result<pkrusafe::Value> result = pkrusafe::Value::Null();
    Gated(page, [&] { result = engine.vm->CallFunction("bench", {}); });
    if (!result.ok() || !result->is_number()) {
      Fail(engine.spec.name + ": bench() failed: " +
           (result.ok() ? std::string("non-number result") : result.status().ToString()));
    }
    (*results)[k] = static_cast<int64_t>(result->number);
  }
}

ProfileRun ProfilePage(BackendKind backend) {
  std::unique_ptr<Page> page = AssemblePage(PageConfig(backend, RuntimeMode::kProfiling));
  RunTopLevel(*page);
  std::vector<int64_t> results;
  PageOp(*page, {0, 1, 2, 3}, &results);
  CheckPageOp(*page, results, results);
  ProfileRun run;
  run.profile = page->runtime->TakeProfile();
  run.faults = page->runtime->stats().profile_faults;
  return run;
}

std::unique_ptr<Page> SetUpPage(BackendKind backend) {
  if (backend == BackendKind::kHardware && !pkrusafe::HardwareMpkBackend::IsSupported()) {
    Fail("dom-page needs hardware MPK (pkey_alloc failed: no PKU/OSPKE on this machine)");
  }
  RuntimeConfig config = PageConfig(backend, RuntimeMode::kEnforcing);
  config.policy = pkrusafe::SitePolicy::FromProfile(ProfilePage(backend).profile);
  std::unique_ptr<Page> page = AssemblePage(std::move(config));
  RunTopLevel(*page);
  return page;
}

void CheckPageOp(const Page& page, const std::vector<int64_t>& results,
                 const std::vector<int64_t>& first) {
  for (size_t i = 0; i < page.engines.size(); ++i) {
    const WorkloadSpec& spec = page.engines[i].spec;
    const int64_t expected = ExpectedKernelResult(spec);
    if (expected >= 0 && results[i] != expected) {
      Fail(spec.name + ": bench() returned " + std::to_string(results[i]) + ", expected " +
           std::to_string(expected));
    }
    if (expected < 0) {
      // dom-query: iters * (size + layout height); the document is the same
      // before every operation, so the value repeats exactly.
      const int64_t iters = spec.params.inner_iters;
      const int64_t layout = results[i] - iters * spec.params.size;
      if (layout <= 0 || layout % iters != 0 || results[i] != first[i]) {
        Fail(spec.name + ": bench() returned " + std::to_string(results[i]) +
             " (first operation: " + std::to_string(first[i]) + ")");
      }
    }
  }
}

void CheckPageContainment(Page& page) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    Fail("fork failed");
  }
  if (pid == 0) {
    // No core file, and no fatal-violation message on the run's stderr.
    const rlimit no_core{0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDERR_FILENO);
    void* secret = page.runtime->AllocTrusted(pkrusafe::AllocId{9100, 0, 0}, 64);
    if (secret == nullptr) {
      _exit(3);
    }
    page.runtime->gates().CallUntrusted(
        [&] { (void)*static_cast<volatile unsigned char*>(secret); });
    _exit(4);  // the read went through: enforcement failed
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGSEGV) {
    Fail("dom-page containment probe: a read of M_T inside CallUntrusted did not die by "
         "SIGSEGV (status " + std::to_string(status) + ")");
  }
}

RunReport RunDomPage(uint64_t seed, double seconds) {
  // The run is kRounds rounds; each sets up a fresh page (its set-up time
  // is one setup_s sample) and times operations on it for an equal share of
  // the run. The round count is fixed because every hardware runtime keeps
  // its protection keys until the process exits (see CHANGES.md), and a
  // round builds two runtimes: 5 rounds use 10 of the 15 keys.
  constexpr int kRounds = 5;
  RunReport report;
  uint64_t state = seed;
  std::vector<size_t> order = {0, 1, 2, 3};
  for (int round = 0; round < kRounds; ++round) {
    const double setup_t0 = NowSeconds();
    std::unique_ptr<Page> page_holder = SetUpPage(BackendKind::kHardware);
    report.setup_s.push_back(NowSeconds() - setup_t0);
    Page& page = *page_holder;
    if (round == 0) {
      CheckPageContainment(page);
    }
    // One untimed operation first: it fills the bindings' text caches, whose
    // misses cost extra gate crossings exactly once per text node.
    std::vector<int64_t> first;
    PageOp(page, order, &first);
    CheckPageOp(page, first, first);
    std::vector<int64_t> results(page.engines.size());
    uint64_t transitions_per_op = 0;
    std::vector<double> latencies_us;
    const double cpu0 = ProcessCpuSeconds();
    const double t_start = NowSeconds();
    uint64_t op = 0;
    for (; op == 0 || NowSeconds() - t_start < seconds / kRounds; ++op) {
      // The seed orders the four kernels within each operation; results do
      // not depend on the order.
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[SplitMix(&state) % (i + 1)]);
      }
      const size_t nodes_before = page.document->node_count();
      const uint64_t transitions_before = page.runtime->gates().transition_count();
      const double t0 = NowSeconds();
      PageOp(page, order, &results);
      latencies_us.push_back((NowSeconds() - t0) * 1e6);
      const uint64_t transitions = page.runtime->gates().transition_count() - transitions_before;
      if (op == 0) {
        transitions_per_op = transitions;
      }
      CheckPageOp(page, results, first);
      if (page.document->node_count() != nodes_before) {
        Fail("dom-page: node count changed across an operation");
      }
      if (transitions != transitions_per_op) {
        Fail("dom-page: transitions per operation changed (" + std::to_string(transitions) +
             " vs " + std::to_string(transitions_per_op) + ")");
      }
    }
    report.AddRound(std::move(latencies_us), NowSeconds() - t_start,
                    ProcessCpuSeconds() - cpu0);
    report.peak_rss_mb.push_back(SelfPeakRssMb());
    std::fprintf(stderr, "dom-page round %d: %s\n", round, report.LastRound().c_str());
  }
  return report;
}

}  // namespace perfbench
