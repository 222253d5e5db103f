// A bounded cache of opaque byte blobs keyed by exact byte strings, kept in
// the trusted pool M_T.
//
// The runtime owns one; the jsvm stores compiled scripts in it (Vm::Load
// keys an entry by the registered host names plus the source text, and the
// value is the encoded program). The cache knows nothing of either format:
// a hit is an exact byte-for-byte key match, so it hands back exactly what
// was inserted under that key.
//
// Storage. Key and value bytes live in one fixed block carved from the
// trusted arena on the first admission. The whole trusted reservation is
// tagged with the runtime's M_T key once, at allocator creation, so the
// block adds no tagged range (the mprotect backend re-protects every range
// of a key on each crossing) and no heap traffic (RuntimeStats'
// trusted/untrusted bytes do not see it). Every tenant mask denies the M_T
// key, so no untrusted code can rewrite an entry; the cache is read and
// written only from T. The index (hash -> block offset, LRU order) lives in
// the embedder's own heap like the rest of its bookkeeping; a hit re-checks
// the entry header and the full key stored in the block.
//
// Admission. A key is admitted on its second sighting: a small direct-mapped
// table remembers the hashes of recent misses, so a one-shot key costs one
// hash and one slot store and never takes block space.
//
// Bounds. At most `capacity_bytes` of entries (header + key + value, rounded
// up to 16 bytes). When an insert does not fit, least-recently-used entries
// are evicted; when the free space is fragmented, the survivors are
// compacted to the front of the block after freeing an extra eighth of the
// capacity, so compaction is amortized over at least that many inserted
// bytes. Values larger than an eighth of the capacity are not cached.
//
// Thread-safe: one mutex covers lookup, insert and the read callback.
#ifndef SRC_RUNTIME_CODE_CACHE_H_
#define SRC_RUNTIME_CODE_CACHE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "src/pkalloc/arena.h"

namespace pkrusafe {

class CodeCache {
 public:
  // The runtime's bound on cached bytes.
  static constexpr size_t kDefaultCapacityBytes = size_t{1} << 20;

  enum class Probe : uint8_t {
    kHit,            // the read callback ran on the cached value
    kFirstSighting,  // miss; the key's hash is now remembered
    kAdmit,          // miss on a key seen before: Insert its value
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;     // first sightings + admits
    uint64_t admitted = 0;   // entries inserted
    uint64_t evictions = 0;  // entries evicted to make room
    size_t bytes = 0;        // bytes held by live entries
    size_t entries = 0;
  };

  // `arena` (M_T) supplies the block on the first admission and must
  // outlive the cache. `capacity_bytes` is rounded up to the arena's chunk
  // granularity.
  CodeCache(Arena* arena, size_t capacity_bytes = kDefaultCapacityBytes);
  ~CodeCache();

  CodeCache(const CodeCache&) = delete;
  CodeCache& operator=(const CodeCache&) = delete;

  // Looks `key` up. On a hit, calls `read` with the cached value under the
  // cache lock (the view is valid only during the call) and returns kHit.
  Probe Lookup(std::string_view key, const std::function<void(std::string_view)>& read);

  // Stores `value` under `key`, evicting as needed. Keys already present
  // and values over the size limit are ignored.
  void Insert(std::string_view key, std::string_view value);

  Stats stats() const;

  // The storage block: 0 before the first admission.
  uintptr_t block_base() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t hash = 0;
    size_t offset = 0;  // of the entry header in the block
    size_t size = 0;    // header + key + value, rounded up
  };
  using LruList = std::list<Entry>;

  // Slots of the second-sighting table.
  static constexpr size_t kSightingSlots = 1024;

  static uint64_t Hash(std::string_view key);
  void EvictLocked(LruList::iterator it);
  // Evicts LRU entries until `size` bytes fit, compacting when needed.
  // Returns false when the block cannot be obtained from the arena.
  bool MakeRoomLocked(size_t size);
  void CompactLocked();

  Arena* const arena_;
  const size_t capacity_;

  mutable std::mutex mu_;
  uint8_t* block_ = nullptr;
  size_t bump_ = 0;  // first never-written byte since the last compaction
  LruList lru_;      // front = most recently used
  std::unordered_map<uint64_t, LruList::iterator> index_;
  std::array<uint64_t, kSightingSlots> seen_{};
  Stats stats_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_CODE_CACHE_H_
