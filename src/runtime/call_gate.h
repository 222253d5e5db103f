// Call gates: the compartment-transition mechanism (paper §3.3, §4.1).
//
// Every call from T into an annotated untrusted library is wrapped so the
// thread first drops its right to access M_T, and restores the previous
// rights when execution returns. Rights are not assumed — they are kept on a
// per-thread compartment stack so nested and re-entrant transitions restore
// exactly what was in force before the call.
//
// Every crossing in the system — the four GateSet transitions below and
// MultiCompartment's library scopes — goes through one routine,
// CompartmentStack::Enter / CompartmentStack::Exit: save the caller's PKRU
// on the stack, install the new rights, verify that the written value took
// effect (aborting on mismatch, mirroring the paper's WRPKRU call-gate
// stubs), and on exit restore exactly what was saved.
//
// Transitions are counted per direction (T->U and U->T); the evaluation's
// "Transitions" columns (Tables 1-2) come from these counters, and the
// telemetry layer mirrors them into the global metrics registry and — when
// tracing is enabled — emits timestamped gate events per crossing.
#ifndef SRC_RUNTIME_CALL_GATE_H_
#define SRC_RUNTIME_CALL_GATE_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "src/mpk/backend.h"
#include "src/support/logging.h"

namespace pkrusafe {

// The rights a crossing installs, as an edit of the caller's saved PKRU:
// target = (saved & ~clear) | set. A call gate flips the trusted key and
// keeps every other right the caller had; a library crossing replaces the
// whole register with the library's mask.
struct CrossingRights {
  uint32_t clear = 0;
  uint32_t set = 0;

  static constexpr CrossingRights DenyKey(PkeyId key) {
    return {0, PkruValue().WithAccessDisabled(key).raw()};
  }
  static constexpr CrossingRights AllowKey(PkeyId key) {
    return {PkruValue().WithAccessDisabled(key).WithWriteDisabled(key).raw(), 0};
  }
  static constexpr CrossingRights Exactly(PkruValue mask) { return {~0u, mask.raw()}; }

  constexpr PkruValue ApplyTo(PkruValue saved) const {
    return PkruValue((saved.raw() & ~clear) | set);
  }
};

// Per-thread stack of saved PKRU values + the domain the thread is running
// in, and the one crossing routine that pushes and pops it. Depth is
// bounded; the paper observed deeply nested transition stacks in Servo's dom
// benchmarks, so the bound is generous.
class CompartmentStack {
 public:
  static constexpr size_t kMaxDepth = 512;

  struct Frame {
    PkruValue saved_pkru;
    Domain entered;
  };

  // Enters `entered`: saves the current PKRU, installs `rights` applied to
  // it and (when `verify`) checks the register holds the new value.
  static void Enter(MpkBackend* backend, Domain entered, CrossingRights rights, bool verify);
  // Leaves the innermost crossing, which must have entered `expected`, and
  // restores (and verifies) the PKRU it saved.
  static void Exit(MpkBackend* backend, Domain expected, bool verify);

  static size_t Depth();
  static Domain CurrentDomain();  // kTrusted when the stack is empty

 private:
  static void Push(Frame frame);
  static Frame Pop();
};

class GateSet {
 public:
  // `trusted_key` is the protection key tagging M_T. The backend must
  // outlive the gate set.
  GateSet(MpkBackend* backend, PkeyId trusted_key)
      : backend_(backend), trusted_key_(trusted_key) {}

  GateSet(const GateSet&) = delete;
  GateSet& operator=(const GateSet&) = delete;

  // T -> U: revoke access to M_T for this thread.
  void EnterUntrusted() {
    if (enabled_) {
      to_untrusted_.fetch_add(1, std::memory_order_relaxed);
      CompartmentStack::Enter(backend_, Domain::kUntrusted,
                              CrossingRights::DenyKey(trusted_key_), verify_);
    }
  }
  void ExitUntrusted() {
    if (enabled_) {
      to_trusted_.fetch_add(1, std::memory_order_relaxed);
      CompartmentStack::Exit(backend_, Domain::kUntrusted, verify_);
    }
  }

  // U -> T (callback / exported API): re-enable access to M_T.
  void EnterTrusted() {
    if (enabled_) {
      to_trusted_.fetch_add(1, std::memory_order_relaxed);
      CompartmentStack::Enter(backend_, Domain::kTrusted,
                              CrossingRights::AllowKey(trusted_key_), verify_);
    }
  }
  void ExitTrusted() {
    if (enabled_) {
      to_untrusted_.fetch_add(1, std::memory_order_relaxed);
      CompartmentStack::Exit(backend_, Domain::kTrusted, verify_);
    }
  }

  // Runs `fn` inside the untrusted compartment. Exception-safe: defined
  // below on top of UntrustedScope, so a throwing callable still unwinds
  // the compartment stack and restores the caller's PKRU.
  template <typename Fn, typename... Args>
  decltype(auto) CallUntrusted(Fn&& fn, Args&&... args);

  // Runs `fn` back inside the trusted compartment (callback path).
  template <typename Fn, typename... Args>
  decltype(auto) CallTrusted(Fn&& fn, Args&&... args);

  // Crossings into U (EnterUntrusted + ExitTrusted) and into T
  // (EnterTrusted + ExitUntrusted) — the per-direction "Transitions"
  // columns of Tables 1-2.
  uint64_t transitions_to_untrusted() const {
    return to_untrusted_.load(std::memory_order_relaxed);
  }
  uint64_t transitions_to_trusted() const {
    return to_trusted_.load(std::memory_order_relaxed);
  }
  // Total crossings in both directions (the historical aggregate API).
  uint64_t transition_count() const {
    return transitions_to_untrusted() + transitions_to_trusted();
  }
  void ResetTransitionCount() {
    to_untrusted_.store(0, std::memory_order_relaxed);
    to_trusted_.store(0, std::memory_order_relaxed);
  }

  // Gate-verification ablation (§3.3: gates verify the written PKRU value).
  void set_verify(bool verify) { verify_ = verify; }
  bool verify() const { return verify_; }

  // Baseline builds carry no call gates at all: a disabled gate set turns
  // every transition into a no-op (no PKRU writes, no counting), so the same
  // application code can run as the paper's `base` configuration.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  PkeyId trusted_key() const { return trusted_key_; }

 private:
  MpkBackend* backend_;
  PkeyId trusted_key_;
  bool verify_ = true;
  bool enabled_ = true;
  std::atomic<uint64_t> to_untrusted_{0};
  std::atomic<uint64_t> to_trusted_{0};
};

// RAII transition guards.
class UntrustedScope {
 public:
  explicit UntrustedScope(GateSet& gates) : gates_(gates) { gates_.EnterUntrusted(); }
  ~UntrustedScope() { gates_.ExitUntrusted(); }
  UntrustedScope(const UntrustedScope&) = delete;
  UntrustedScope& operator=(const UntrustedScope&) = delete;

 private:
  GateSet& gates_;
};

class TrustedScope {
 public:
  explicit TrustedScope(GateSet& gates) : gates_(gates) { gates_.EnterTrusted(); }
  ~TrustedScope() { gates_.ExitTrusted(); }
  TrustedScope(const TrustedScope&) = delete;
  TrustedScope& operator=(const TrustedScope&) = delete;

 private:
  GateSet& gates_;
};

// The call wrappers ride on the RAII guards so the exit gate runs during
// unwinding too: a callable that throws leaves the compartment stack
// balanced and the caller's PKRU restored before the exception escapes.
template <typename Fn, typename... Args>
decltype(auto) GateSet::CallUntrusted(Fn&& fn, Args&&... args) {
  UntrustedScope scope(*this);
  return std::forward<Fn>(fn)(std::forward<Args>(args)...);
}

template <typename Fn, typename... Args>
decltype(auto) GateSet::CallTrusted(Fn&& fn, Args&&... args) {
  TrustedScope scope(*this);
  return std::forward<Fn>(fn)(std::forward<Args>(args)...);
}

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_CALL_GATE_H_
