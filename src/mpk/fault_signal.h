// Shared SIGSEGV/SIGTRAP machinery for the natively-enforcing backends.
//
// Reproduces the paper's fault-handler design (§4.3.2), v2 protocol (see
// docs/faults.md for the full walkthrough and AS-safety audit):
//   * SIGSEGV: classify the fault. Non-MPK faults fall through to whatever
//     handler the application had registered (chaining, §4.3.1). MPK faults
//     are reported to the installed FaultHandlerFn.
//   * kRetryAllowed / kRetryAndLatch: the engine asks the backend to permit
//     the access, sets the x86 trap flag (TF) in the interrupted context and
//     returns; the faulting instruction re-executes and completes; the
//     resulting SIGTRAP restores protections and clears TF — single-step
//     resume, exactly as in the paper (they "wished to avoid decoding the
//     faulting instruction"). Under kRetryAndLatch the backend leaves the
//     latched page(s) open permanently (first-fault site latching).
//   * kDeny: the engine re-raises with the default disposition, terminating
//     the program with the genuine access violation (enforcement-mode crash).
//
// Concurrency (v2): the pending-step state is per-thread (TLS), so N threads
// single-step independently and a single instruction that faults on two
// protected pages (e.g. movsq with both operands tagged) appends a second
// pending fault to the same step instead of deadlocking against itself
// (EXPERIMENTS.md records the throughput against the retired v1
// process-global slot).
//
// Only one engine can be installed at a time; installation is idempotent.
#ifndef SRC_MPK_FAULT_SIGNAL_H_
#define SRC_MPK_FAULT_SIGNAL_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/mpk/backend.h"
#include "src/support/status.h"

namespace pkrusafe {

// Backend-specific hooks the engine drives. All are invoked from signal
// context and must confine themselves to async-signal-tolerant work.
class FaultSignalDelegate {
 public:
  virtual ~FaultSignalDelegate() = default;

  // Maps a faulting address to an MPK fault, or nullopt if the fault is not
  // a protection-key violation (it will then be chained).
  virtual std::optional<MpkFault> Classify(uintptr_t addr, bool is_write) = 0;

  // Consulted after Classify; decides deny vs single-step (vs single-step
  // and latch the page open, kRetryAndLatch).
  virtual FaultResolution OnFault(const MpkFault& fault) = 0;

  // Temporarily grants access to the faulting page(s) so the instruction can
  // complete, and re-establishes protection afterwards. Backends that
  // support latching skip re-protecting latched pages inside Reprotect.
  virtual void AllowOnce(const MpkFault& fault) = 0;
  virtual void Reprotect(const MpkFault& fault) = 0;
};

// Per-thread fault-service totals, exported for --stats and tests.
struct ThreadFaultStats {
  uint64_t tid = 0;
  uint64_t serviced = 0;
  uint64_t service_ns = 0;  // cumulative SIGSEGV-entry → SIGTRAP-reprotect
};

class FaultSignalEngine {
 public:
  // Registers SIGSEGV and SIGTRAP handlers, remembering any previously
  // installed SIGSEGV handler for chaining. The delegate must outlive the
  // installation.
  static Status Install(FaultSignalDelegate* delegate);

  // Restores the chained handlers and detaches the delegate.
  static void Uninstall();

  static bool installed();

  // Count of MPK faults serviced (single-stepped) since Install.
  static uint64_t serviced_fault_count();

  // Faults appended to an already-active step on the same thread (one
  // instruction touching two protected pages).
  static uint64_t reentrant_fault_count();

  // High-water mark of threads simultaneously mid-single-step, and the
  // instantaneous count. Proof-of-concurrency for tests.
  static uint32_t max_concurrent_steps();
  static uint32_t active_steps();

  // Copies up to `max` per-thread service totals into `out`; returns the
  // number written. Safe to call outside signal context at any time.
  static size_t SnapshotThreadStats(ThreadFaultStats* out, size_t max);

  // Zeroes the global counters and per-thread stat slots (not the installed
  // handlers). Bench/test use only; no faults may be in flight.
  static void ResetCountersForTest();
};

}  // namespace pkrusafe

#endif  // SRC_MPK_FAULT_SIGNAL_H_
