// Multi-compartment support: the §6 "Number of Compartments" extension,
// scaled past the hardware key count.
//
// The paper's two-domain split (T + one U) is a policy choice; §6 sees "no
// fundamental issue using a more complicated partitioning scheme that uses
// more than two domains". This module implements that scheme on top of the
// same primitives: each registered untrusted library gets its *own*
// protection key and its own private pool, plus access to the common shared
// pool (key 0). The policy matrix:
//
//   * T (no active library) — access to everything;
//   * library i — access to its own pool and the shared pool only; the
//     trusted pool and every other library's pool are denied.
//
// So a compromised codec cannot corrupt the JS engine's heap either — a
// strictly stronger property than the paper's deployment. Library keys are
// *virtual* (src/multidomain/vpkey.h, after libmpk): the registration count
// is unbounded, hot keys are cached in the hardware key slots, and entering
// a library whose key was evicted faults it back in by lazily re-tagging its
// pool. A library's key stays pinned for the duration of every Scope that
// entered it, so eviction can never invalidate an installed PKRU.
//
// Thread safety: registration, release, transitions, allocation and
// ownership queries may race freely across threads. Registration, release
// and the vpkey cache's mutating operations serialize on one internal
// mutex; the transition fast path (EnterLibrary of a resident library,
// ExitLibrary) takes no lock — the library table has lock-free readers
// (StableIndexArray) and pins live in per-thread records (vpkey.h).
// ReleaseLibrary refuses while the library is pinned anywhere, so a racing
// in-flight request either blocks the release (retry later) or completed
// before it; operations on a *released* id afterwards are caller bugs, but
// racing scans over other libraries stay safe throughout.
// transition_count() is maintained lossily for the same reason and may
// undercount under concurrency.
#ifndef SRC_MULTIDOMAIN_MULTI_COMPARTMENT_H_
#define SRC_MULTIDOMAIN_MULTI_COMPARTMENT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/mpk/backend.h"
#include "src/multidomain/vpkey.h"
#include "src/pkalloc/arena.h"
#include "src/pkalloc/free_list_heap.h"
#include "src/runtime/call_gate.h"
#include "src/support/compiler.h"
#include "src/support/logging.h"
#include "src/support/stable_index_array.h"

namespace pkrusafe {

// Identifies a registered untrusted library. Index 0 is reserved for the
// trusted compartment itself.
using LibraryId = uint32_t;
inline constexpr LibraryId kTrustedLibrary = 0;

struct MultiCompartmentConfig {
  size_t trusted_pool_bytes = size_t{1} << 30;
  size_t shared_pool_bytes = size_t{1} << 30;
  size_t library_pool_bytes = size_t{1} << 30;
  // Victim selection when a library must be faulted in and every hardware
  // slot is taken (see vpkey.h).
  EvictionPolicy eviction_policy = EvictionPolicy::kLru;
  // Hardware key slots backing the virtual keys; 0 = every key the backend
  // can still allocate. Tests set small values to force evictions.
  size_t max_hw_slots = 0;
  // Extra hardware keys denied in every library's PKRU on top of the trusted
  // pool's key — an embedder running compartments next to a PkruSafeRuntime
  // passes the runtime's M_T key here so tenants cannot touch it either.
  std::vector<PkeyId> extra_deny;
};

class MultiCompartment {
 public:
  // Creates the trusted pool (own key), the shared pool (default key) and
  // the virtual-key cache. The backend must outlive the compartment manager.
  static Result<std::unique_ptr<MultiCompartment>> Create(
      MpkBackend* backend, const MultiCompartmentConfig& config = {});

  // Returns every hardware key (trusted + the vpkey cache's) to the backend.
  // Runs on Create's error paths too, so a failed registration of the pools
  // can never strand a key — the original RegisterLibrary leak class.
  ~MultiCompartment();

  MultiCompartment(const MultiCompartment&) = delete;
  MultiCompartment& operator=(const MultiCompartment&) = delete;

  // Registers an untrusted library: mints its virtual key and gives it a
  // private pool — a released one from the spare list when there is one
  // (already zero-filled and tagged with the evicted key, so its tag is a
  // no-op), a fresh reservation otherwise. The count is unbounded —
  // libraries beyond the hardware slot capacity time-share slots through
  // eviction. On failure neither the virtual key nor a spare pool is lost.
  Result<LibraryId> RegisterLibrary(const std::string& name);

  // Tears down a dead tenant's compartment: returns its virtual key (and
  // hardware slot, if resident) to the cache and its pool pages to the OS,
  // then parks the pool — still reserved, zero-filled, tagged with the
  // evicted key every tenant's PKRU denies — on the spare list for the next
  // registration. Pools are recycled; library ids are not. So the pool
  // reservations and the backend's tagged ranges are bounded by the peak
  // number of live libraries, not by the number ever registered.
  //
  // Quarantine contract: a key still pinned by an in-flight EnterLibrary
  // refuses release with FailedPrecondition and NOTHING is torn down — the
  // caller keeps the session quarantined and retries once its requests
  // drain. After success the id is dead forever (ids are never reused);
  // racing ownership scans on other threads stay safe, but EnterLibrary /
  // AllocateIn on the released id are caller bugs (the former dies, the
  // latter returns nullptr).
  Status ReleaseLibrary(LibraryId library);

  // Faults the working set's virtual keys into hardware slots ahead of a
  // request batch, without pinning — the batch's EnterLibrary calls then
  // take the lock-free resident fast path instead of each paying a locked
  // fault-in (and possibly an eviction barrier) mid-request. Released ids
  // are skipped; unknown ids are an error.
  Status PrefaultWorkingSet(const std::vector<LibraryId>& working_set);

  // --- allocation ---
  // From M_T (trusted-private), the common shared pool, or a library's
  // private pool respectively. Returns nullptr on exhaustion.
  void* AllocateTrusted(size_t size);
  void* AllocateShared(size_t size);
  void* AllocateIn(LibraryId library, size_t size);
  void Free(void* ptr);

  // Which compartment's pool owns `ptr`: kTrustedLibrary for M_T, the
  // library id for a private pool, nullopt for the shared pool or foreign
  // pointers (shared memory belongs to everyone).
  std::optional<LibraryId> PrivateOwnerOf(const void* ptr) const;

  // --- transitions ---
  // Enters `library`'s compartment: faults its virtual key in if evicted,
  // pins it for the scope, and installs a PKRU that allows only key 0 and
  // the library's hardware slot. The crossing is the call gates' own
  // routine (CompartmentStack::Enter/Exit): verified and traced the same
  // way. Balanced by ExitLibrary; nesting across
  // different libraries is allowed (each level holds a pin, so nesting
  // depth across distinct libraries is bounded by the hardware slot count)
  // and restores exactly.
  void EnterLibrary(LibraryId library);
  void ExitLibrary();

  // RAII wrapper.
  class Scope {
   public:
    Scope(MultiCompartment& mc, LibraryId library) : mc_(mc) { mc_.EnterLibrary(library); }
    ~Scope() { mc_.ExitLibrary(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MultiCompartment& mc_;
  };

  // The PKRU value that running inside `library` uses (exposed for tests).
  // Faults the library's key in as a side effect — the mask only exists for
  // resident keys.
  PkruValue PolicyFor(LibraryId library);

  size_t library_count() const;
  // Registered minus released (library_count() counts every id ever minted).
  size_t live_library_count() const;
  // Released pools waiting on the spare list for the next registration.
  size_t spare_pool_count() const;
  std::string library_name(LibraryId id) const;
  PkeyId trusted_key() const { return trusted_key_; }
  // The hardware key currently tagging the library's pool: its slot key when
  // resident, the shared evicted key otherwise.
  PkeyId key_of(LibraryId id) const;
  bool library_resident(LibraryId id) const;
  uint64_t transition_count() const { return transitions_.load(std::memory_order_relaxed); }

  // Virtual-key cache counters (hits/misses/evictions/retag traffic).
  VpkeyStats vpkey_stats() const;

 private:
  struct Library {
    std::string name;
    VirtualKeyId vkey = 0;
    // The private pool, owned by pools_. After release it goes to the spare
    // list and may back a later library.
    Arena* pool = nullptr;
    // This library's own heap over `pool`, fresh at registration.
    std::unique_ptr<FreeListHeap> heap;
    // Lock-free scanner view of `heap`: non-null while the library is live,
    // null once released — and nulled before the pool can be handed out
    // again. Heap objects are retired in place (never destroyed — table
    // entries are permanent and a heap is a few hundred bytes) and pools
    // are never unmapped, so a scanner that loaded the pointer just before a
    // release still dereferences a valid heap over a valid reservation.
    std::atomic<FreeListHeap*> live_heap{nullptr};
  };

  MultiCompartment(MpkBackend* backend, MultiCompartmentConfig config)
      : backend_(backend), config_(config) {}

  // Lock-free: entries are immutable once published.
  PS_ALWAYS_INLINE Library& LibraryAt(LibraryId id) {
    PS_CHECK_GE(id, 1u);
    Library* library = libraries_.at(id - 1);
    PS_CHECK(library != nullptr) << "unknown library id " << id;
    return *library;
  }
  PS_ALWAYS_INLINE const Library& LibraryAt(LibraryId id) const {
    return const_cast<MultiCompartment*>(this)->LibraryAt(id);
  }

  MpkBackend* backend_;
  MultiCompartmentConfig config_;
  PkeyId trusted_key_ = 0;
  std::unique_ptr<Arena> trusted_arena_;
  std::unique_ptr<FreeListHeap> trusted_heap_;
  std::unique_ptr<Arena> shared_arena_;
  std::unique_ptr<FreeListHeap> shared_heap_;

  // Guards registration (the libraries_ writer side), the pool lists and
  // every vpkeys_ mutation: fault-in, eviction, release, stats. Reads of
  // published Library entries and the vpkey pin fast path take no lock.
  mutable std::mutex mu_;
  // Every library pool ever reserved (declared before libraries_, whose
  // retired heaps point into them). Released pools sit in spare_pools_:
  // decommitted and tagged with the vpkey layer's evicted key.
  std::vector<std::unique_ptr<Arena>> pools_;
  std::vector<Arena*> spare_pools_;
  StableIndexArray<Library> libraries_;
  std::unique_ptr<VirtualPkeyTable> vpkeys_;

  // Lossy (plain load+store): the transition fast path pays no RMW. Exact
  // single-threaded; may undercount when transitions race.
  std::atomic<uint64_t> transitions_{0};
};

}  // namespace pkrusafe

#endif  // SRC_MULTIDOMAIN_MULTI_COMPARTMENT_H_
