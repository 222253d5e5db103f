// Thread-safe map from page ranges to protection keys.
//
// This models the protection-key field of the page tables: the sim backend
// consults it on every checked access, the mprotect backend uses it to
// translate PKRU writes into mprotect calls over the affected ranges, and
// the crash-forensics path queries it from inside SIGSEGV.
//
// The read path is lock-free: mutations that add or remove a range (Tag of a
// new range, Untag — on region creation/teardown) rebuild a sorted snapshot
// under a writer mutex and publish it with one seq_cst store. Readers load
// the snapshot pointer and binary-search it — no lock, no allocation, so
// KeyFor/IsTagged/RangesAround are async-signal-safe and cheap on the sim
// backend's per-access check.
//
// An exact re-tag (same bounds, new key — the virtual-key cache's eviction
// and fault-in traffic) changes no boundary, so it rebuilds nothing: under
// the writer mutex it stores the new key into the matching entry of the
// currently published snapshot (seq_cst, through std::atomic_ref). A
// snapshot's boundaries are therefore immutable once published but its keys
// are not, and every reader loads `key` atomically and copies ranges entry
// by entry. A reader racing a re-tag sees either the old key or the new one,
// exactly as it would have racing a publish. A same-key re-tag is a no-op.
//
// Retired snapshots are reclaimed with a global epoch / grace-period scheme
// (see page_key_map.cc): every reader stamps the current epoch into a
// per-thread slot for the duration of its read; a writer retires the old
// snapshot at the epoch it advances to and frees any retired snapshot whose
// retire epoch precedes every active reader's stamp. This bounds retired_
// (pkalloc span churn used to leak every superseded snapshot for process
// lifetime) while keeping signal-context readers safe: the stamp protocol is
// reentrant, so a SIGSEGV arriving mid-read extends the outer read's grace
// period instead of ending it.
#ifndef SRC_MPK_PAGE_KEY_MAP_H_
#define SRC_MPK_PAGE_KEY_MAP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/memmap/interval_map.h"
#include "src/mpk/pkey.h"
#include "src/support/async_signal.h"
#include "src/support/status.h"

namespace pkrusafe {

class PageKeyMap {
 public:
  struct TaggedRange {
    uintptr_t begin;
    uintptr_t end;
    PkeyId key;
  };

  PageKeyMap() = default;
  ~PageKeyMap();
  PageKeyMap(const PageKeyMap&) = delete;
  PageKeyMap& operator=(const PageKeyMap&) = delete;

  // Tags [addr, addr+length) with `key`. Both bounds must be page-aligned.
  // Retagging an identical existing range is allowed (pkey_mprotect
  // semantics) and updates the published snapshot in place; partially
  // overlapping ranges are rejected.
  Status Tag(uintptr_t addr, size_t length, PkeyId key);

  // Removes the tag for the range starting at `addr` (e.g. on unmap).
  Status Untag(uintptr_t addr);

  // The key governing `addr`; kDefaultPkey when untagged. Lock-free.
  PKRUSAFE_AS_SAFE PkeyId KeyFor(uintptr_t addr) const;

  // Whether `addr` lies in any explicitly tagged range. Lock-free.
  PKRUSAFE_AS_SAFE bool IsTagged(uintptr_t addr) const;

  // Async-signal-safe neighborhood query for the crash reporter: copies up
  // to `max` tagged ranges around `addr` (the containing/nearest range plus
  // its neighbors, in address order) into `out` and returns how many were
  // written.
  PKRUSAFE_AS_SAFE size_t RangesAround(uintptr_t addr, TaggedRange* out, size_t max) const;

  // Snapshot of all ranges tagged with `key`.
  std::vector<TaggedRange> RangesForKey(PkeyId key) const;

  // Snapshot of every tagged range.
  std::vector<TaggedRange> AllRanges() const;

  PKRUSAFE_AS_SAFE size_t range_count() const;

  // Superseded snapshots currently awaiting their grace period. Bounded by
  // the number of concurrently active readers (plus a small constant), never
  // by the mutation count — the regression test churns Tag/Untag and asserts
  // this stays flat.
  size_t retired_snapshot_count() const;

  // Snapshots published so far (tests: an in-place re-tag publishes none).
  uint64_t publish_count() const;

 private:
  // `ranges` is sorted by begin. Boundaries are immutable once published;
  // `key` is rewritten in place by exact re-tags, so it is only ever read
  // and written atomically (see page_key_map.cc).
  struct Snapshot {
    std::vector<TaggedRange> ranges;
  };

  struct RetiredSnapshot {
    const Snapshot* snapshot;
    uint64_t retire_epoch;
  };

  // Loads the current snapshot under the caller's reader stamp (the caller
  // must hold an EpochReadGuard, see page_key_map.cc).
  PKRUSAFE_AS_SAFE Snapshot* LoadSnapshot() const {
    return snapshot_.load(std::memory_order_seq_cst);
  }
  // Rebuilds and publishes a snapshot from `ranges_`, retiring the old one
  // and freeing every retired snapshot past its grace period; caller holds
  // mutex_.
  void PublishLocked();
  // Rewrites the key of the published entry starting at `begin` (an exact
  // re-tag: boundaries unchanged, nothing to rebuild); caller holds mutex_.
  void StoreKeyLocked(uintptr_t begin, PkeyId key);

  mutable std::mutex mutex_;  // serializes writers; readers never take it
  IntervalMap<PkeyId> ranges_;
  std::atomic<Snapshot*> snapshot_{nullptr};
  std::deque<RetiredSnapshot> retired_;
  uint64_t publishes_ = 0;
};

}  // namespace pkrusafe

#endif  // SRC_MPK_PAGE_KEY_MAP_H_
