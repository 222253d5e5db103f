// dom-page: the paper's gate-bound Dromaeo shape, in process, on the
// hardware MPK backend. One page is one Document shared by four engines,
// one per DOM kernel of the workloads module at its Dromaeo size; one
// operation calls each engine's bench() once inside the call gate.
#ifndef PERFBENCH_SRC_DOM_PAGE_H_
#define PERFBENCH_SRC_DOM_PAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/serve.h"
#include "src/dom/bindings.h"
#include "src/dom/document.h"
#include "src/jsvm/vm.h"
#include "src/runtime/runtime.h"
#include "src/workloads/suites.h"

namespace perfbench {

// The four kernels, at the sizes of their Dromaeo entries (dom-modify,
// dom-query, dom-text-read, jslib-modify-jquery).
std::vector<pkrusafe::WorkloadSpec> PageKernels();

// What each kernel's bench() must return, computed in C++ from the kernel's
// inputs. Returns -1 for dom-query, whose result includes a layout height
// and is checked for stability instead.
int64_t ExpectedKernelResult(const pkrusafe::WorkloadSpec& spec);

struct Page {
  struct Engine {
    pkrusafe::WorkloadSpec spec;
    std::unique_ptr<pkrusafe::Vm> vm;
    std::unique_ptr<pkrusafe::DomBindings> bindings;
  };
  // Declaration order is destruction order in reverse: engines, then the
  // document they bind, then the runtime everything allocates from.
  std::unique_ptr<pkrusafe::PkruSafeRuntime> runtime;
  std::unique_ptr<pkrusafe::Document> document;
  std::vector<Engine> engines;
};

// Builds runtime, document and engines and loads every kernel (no script
// has run yet).
std::unique_ptr<Page> AssemblePage(pkrusafe::RuntimeConfig config);
// Runs every engine's top-level code inside the gate (when gates are on).
void RunTopLevel(Page& page);
// One operation: bench() of every engine, in `order`; results are stored by
// engine index.
void PageOp(Page& page, const std::vector<size_t>& order, std::vector<int64_t>* results);

pkrusafe::RuntimeConfig PageConfig(pkrusafe::BackendKind backend, pkrusafe::RuntimeMode mode);

// The profiling run: a profiling page, its top-level code and one
// operation. Returns the profile and the profile fault count.
struct ProfileRun {
  pkrusafe::Profile profile;
  uint64_t faults = 0;
};
ProfileRun ProfilePage(pkrusafe::BackendKind backend);

// The whole set-up: profiling run, enforcement build with its profile
// (runtime, document, engines) and the top-level scripts.
std::unique_ptr<Page> SetUpPage(pkrusafe::BackendKind backend);

// Checks one operation's results against the expected values and the
// page-wide invariants; `first` holds the first operation's results.
void CheckPageOp(const Page& page, const std::vector<int64_t>& results,
                 const std::vector<int64_t>& first);

// Forks a child that reads the runtime's trusted heap inside CallUntrusted;
// fails unless the child dies by SIGSEGV.
void CheckPageContainment(Page& page);

RunReport RunDomPage(uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DOM_PAGE_H_
