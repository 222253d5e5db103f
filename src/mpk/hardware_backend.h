// Real Intel MPK backend, used when the CPU and kernel support PKU.
//
// Keys come from pkey_alloc(2), tagging from pkey_mprotect(2), and PKRU
// reads/writes are the RDPKRU/WRPKRU instructions. Single-step resume
// temporarily re-tags the faulting page with the default key (pkey 0) rather
// than editing the PKRU slot of the signal frame's XSAVE area, which keeps the
// signal path identical to the mprotect backend.
#ifndef SRC_MPK_HARDWARE_BACKEND_H_
#define SRC_MPK_HARDWARE_BACKEND_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/mpk/backend.h"
#include "src/mpk/fault_signal.h"
#include "src/mpk/latched_page_set.h"
#include "src/mpk/page_key_map.h"

namespace pkrusafe {

class HardwareMpkBackend final : public MpkBackend, public FaultSignalDelegate {
 public:
  // True when pkey_alloc succeeds on this machine (CPU + kernel support).
  static bool IsSupported();

  HardwareMpkBackend() = default;
  // Returns every key this backend allocated and has not freed. The owner
  // must unmap the memory tagged with those keys first: a freed key can be
  // handed out again, and its new owner's rights would reach stale pages.
  ~HardwareMpkBackend() override;

  std::string_view name() const override { return "hardware"; }
  bool enforces_natively() const override { return true; }

  Result<PkeyId> AllocateKey() override;
  Status FreeKey(PkeyId key) override;
  Status TagRange(uintptr_t addr, size_t length, PkeyId key) override;
  Status UntagRange(uintptr_t addr) override;
  PkeyId KeyFor(uintptr_t addr) const override;
  size_t TaggedRangesNear(uintptr_t addr, TaggedRangeInfo* out, size_t max) const override;

  PkruValue ReadPkru() const override;
  void WritePkru(PkruValue value) override;

  Status CheckAccess(uintptr_t addr, AccessKind kind) override;
  void SetFaultHandler(FaultHandlerFn handler) override;

  // First-fault latching: latched pages are re-tagged to the default key
  // (pkey 0, always accessible) for the rest of the run.
  void NoteLatchedRange(uintptr_t begin, uintptr_t end) override;
  void UnlatchRange(uintptr_t begin, uintptr_t end) override;
  bool IsLatched(uintptr_t addr) const override { return latched_.Contains(addr); }
  size_t latched_page_count() const override { return latched_.size(); }
  // Page tags are process-wide (only the PKRU is per-thread), so the
  // single-step window is visible to every thread, like mprotect's.
  bool has_process_wide_step_window() const override { return true; }

  Status PrepareNativeEnforcement() override { return InstallSignalHandlers(); }

  Status InstallSignalHandlers();
  void UninstallSignalHandlers();

  // FaultSignalDelegate:
  std::optional<MpkFault> Classify(uintptr_t addr, bool is_write) override;
  FaultResolution OnFault(const MpkFault& fault) override;
  void AllowOnce(const MpkFault& fault) override;
  void Reprotect(const MpkFault& fault) override;

 private:
  // Mirror of the kernel's tags so faults can be attributed without parsing
  // /proc/self/smaps.
  PageKeyMap page_keys_;

  // Same atomic-pointer scheme as the mprotect backend: OnFault runs inside
  // SIGSEGV and must not copy a std::function (allocation) or block on a
  // mutex held by the interrupted thread.
  std::mutex handler_mutex_;
  std::atomic<FaultHandlerFn*> handler_{nullptr};
  std::vector<std::unique_ptr<FaultHandlerFn>> retired_handlers_;

  LatchedPageSet latched_;

  // Bit i set: key i came from this backend's pkey_alloc and has not been
  // freed. FreeKey rejects every other key.
  std::mutex key_mutex_;
  uint32_t held_keys_ = 0;
};

}  // namespace pkrusafe

#endif  // SRC_MPK_HARDWARE_BACKEND_H_
