// OS-enforced MPK emulation via mprotect.
//
// PKRU writes are translated into mprotect calls over the ranges tagged with
// each affected key, so a denied access is a *real* access violation: the MMU
// raises SIGSEGV with no cooperation from the offending code. This is the
// backend that exercises the paper's genuine enforcement and profiling paths
// (fault handler, single-step resume) on machines without MPK silicon.
//
// Divergence from hardware (documented in DESIGN.md): page protections are
// process-wide, so the effective PKRU is a process-wide value; per-thread
// PKRU reads still reflect the last value the thread wrote. A consequence is
// the process-wide step window: while AllowOnce holds a faulting page open,
// accesses by *other* threads to that page slip through unrecorded — the
// profiling handler compensates at latch time (docs/faults.md).
//
// The delegate methods (Classify/OnFault/AllowOnce/Reprotect) run inside
// SIGSEGV/SIGTRAP and are async-signal-safe: the effective PKRU is a plain
// atomic, the fault handler is reached through an atomic pointer (never
// copied in signal context), and the latched-page set is lock-free.
#ifndef SRC_MPK_MPROTECT_BACKEND_H_
#define SRC_MPK_MPROTECT_BACKEND_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/mpk/backend.h"
#include "src/mpk/fault_signal.h"
#include "src/mpk/latched_page_set.h"
#include "src/mpk/page_key_map.h"

namespace pkrusafe {

class MprotectMpkBackend final : public MpkBackend, public FaultSignalDelegate {
 public:
  MprotectMpkBackend() = default;
  ~MprotectMpkBackend() override;

  std::string_view name() const override { return "mprotect"; }
  bool enforces_natively() const override { return true; }

  Result<PkeyId> AllocateKey() override;
  Status FreeKey(PkeyId key) override;
  Status TagRange(uintptr_t addr, size_t length, PkeyId key) override;
  Status UntagRange(uintptr_t addr) override;
  PkeyId KeyFor(uintptr_t addr) const override;
  size_t TaggedRangesNear(uintptr_t addr, TaggedRangeInfo* out, size_t max) const override;

  PkruValue ReadPkru() const override { return CurrentThreadPkru(); }
  void WritePkru(PkruValue value) override;

  // Native enforcement: ordinary loads/stores trap on violation.
  Status CheckAccess(uintptr_t addr, AccessKind kind) override;

  void SetFaultHandler(FaultHandlerFn handler) override;

  // First-fault latching: latched pages stay PROT_READ|PROT_WRITE across
  // Reprotect and subsequent PKRU writes for the rest of the run.
  void NoteLatchedRange(uintptr_t begin, uintptr_t end) override;
  void UnlatchRange(uintptr_t begin, uintptr_t end) override;
  bool IsLatched(uintptr_t addr) const override { return latched_.Contains(addr); }
  size_t latched_page_count() const override { return latched_.size(); }
  bool has_process_wide_step_window() const override { return true; }

  // Ranges currently tagged (tests: tag-growth regressions).
  size_t tagged_range_count() const { return page_keys_.range_count(); }

  // Registers the SIGSEGV/SIGTRAP handlers (chaining any existing ones).
  // Must be called before violations are expected; idempotent.
  Status PrepareNativeEnforcement() override { return InstallSignalHandlers(); }

  Status InstallSignalHandlers();
  void UninstallSignalHandlers();

  // FaultSignalDelegate:
  std::optional<MpkFault> Classify(uintptr_t addr, bool is_write) override;
  FaultResolution OnFault(const MpkFault& fault) override;
  void AllowOnce(const MpkFault& fault) override;
  void Reprotect(const MpkFault& fault) override;

 private:
  // Effective protection for pages tagged `key` under PKRU `pkru`.
  static int ProtFor(PkruValue pkru, PkeyId key);

  // mprotects every range tagged with `key` per `pkru`, then re-opens any
  // latched pages the sweep closed.
  void ApplyKeyProtection(PkeyId key, PkruValue pkru);

  PkruValue EffectivePkru() const {
    return PkruValue(effective_pkru_.load(std::memory_order_acquire));
  }

  PageKeyMap page_keys_;
  // Key allocation: a bump counter plus a free list so released keys (see
  // FreeKey) can be handed out again — pkey_alloc/pkey_free semantics.
  std::mutex key_mutex_;
  uint16_t next_key_ = 1;
  std::vector<PkeyId> free_keys_;

  std::mutex pkru_mutex_;  // serializes WritePkru's read-modify-mprotect sweep
  std::atomic<uint32_t> effective_pkru_{0};  // process-wide value protections reflect

  // The handler is reached from SIGSEGV through one atomic pointer load.
  // Replaced handlers are retired (not freed) so a racing fault can finish
  // its call; bounded by the number of SetFaultHandler calls.
  std::mutex handler_mutex_;
  std::atomic<FaultHandlerFn*> handler_{nullptr};
  std::vector<std::unique_ptr<FaultHandlerFn>> retired_handlers_;

  LatchedPageSet latched_;
};

}  // namespace pkrusafe

#endif  // SRC_MPK_MPROTECT_BACKEND_H_
