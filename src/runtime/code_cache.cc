#include "src/runtime/code_cache.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace pkrusafe {

namespace {

// Written in front of every entry's key in the block; a hit re-checks it
// against the index and the lookup key.
struct EntryHeader {
  uint64_t hash;
  uint32_t key_len;
  uint32_t value_len;
};
static_assert(sizeof(EntryHeader) == 16);

constexpr size_t kEntryAlign = 16;

size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

}  // namespace

CodeCache::CodeCache(Arena* arena, size_t capacity_bytes)
    : arena_(arena), capacity_(RoundUp(capacity_bytes, kArenaChunkGranularity)) {}

CodeCache::~CodeCache() {
  if (block_ != nullptr) {
    arena_->FreeChunk(reinterpret_cast<uintptr_t>(block_), capacity_);
  }
}

uint64_t CodeCache::Hash(std::string_view key) { return std::hash<std::string_view>{}(key); }

CodeCache::Probe CodeCache::Lookup(std::string_view key,
                                   const std::function<void(std::string_view)>& read) {
  const uint64_t hash = Hash(key);
  std::lock_guard lock(mu_);
  if (const auto found = index_.find(hash); found != index_.end()) {
    const Entry& entry = *found->second;
    const uint8_t* at = block_ + entry.offset;
    EntryHeader header{};
    std::memcpy(&header, at, sizeof(header));
    if (header.hash == hash && header.key_len == key.size() &&
        sizeof(header) + header.key_len + header.value_len <= entry.size &&
        std::memcmp(at + sizeof(header), key.data(), key.size()) == 0) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, found->second);
      read(std::string_view(reinterpret_cast<const char*>(at + sizeof(header) + header.key_len),
                            header.value_len));
      return Probe::kHit;
    }
  }
  ++stats_.misses;
  uint64_t& seen = seen_[hash % kSightingSlots];
  if (seen == hash) {
    return Probe::kAdmit;
  }
  seen = hash;
  return Probe::kFirstSighting;
}

void CodeCache::Insert(std::string_view key, std::string_view value) {
  const size_t size = RoundUp(sizeof(EntryHeader) + key.size() + value.size(), kEntryAlign);
  if (size > capacity_ / 8) {
    return;
  }
  const uint64_t hash = Hash(key);
  std::lock_guard lock(mu_);
  // Present already: a concurrent Load of the same key inserted first (or,
  // vanishingly rarely, another key shares the hash; the resident entry
  // stays and the newcomer keeps compiling).
  if (index_.contains(hash) || !MakeRoomLocked(size)) {
    return;
  }
  uint8_t* at = block_ + bump_;
  const EntryHeader header{hash, static_cast<uint32_t>(key.size()),
                           static_cast<uint32_t>(value.size())};
  std::memcpy(at, &header, sizeof(header));
  std::memcpy(at + sizeof(header), key.data(), key.size());
  std::memcpy(at + sizeof(header) + key.size(), value.data(), value.size());
  lru_.push_front(Entry{hash, bump_, size});
  index_.emplace(hash, lru_.begin());
  bump_ += size;
  stats_.bytes += size;
  ++stats_.admitted;
}

bool CodeCache::MakeRoomLocked(size_t size) {
  if (block_ == nullptr) {
    auto chunk = arena_->AllocateChunk(capacity_);
    if (!chunk.ok()) {
      return false;  // M_T exhausted: nothing is cached
    }
    block_ = reinterpret_cast<uint8_t*>(*chunk);
  }
  if (bump_ + size <= capacity_) {
    return true;
  }
  // Free an extra eighth of the block beyond what this insert needs, so the
  // next compaction is at least that many inserted bytes away. size is at
  // most an eighth, so this always terminates with room.
  while (!lru_.empty() && stats_.bytes + size > capacity_ - capacity_ / 8) {
    EvictLocked(std::prev(lru_.end()));
  }
  CompactLocked();
  return true;
}

void CodeCache::EvictLocked(LruList::iterator it) {
  index_.erase(it->hash);
  stats_.bytes -= it->size;
  ++stats_.evictions;
  lru_.erase(it);
}

void CodeCache::CompactLocked() {
  std::vector<Entry*> by_offset;
  by_offset.reserve(lru_.size());
  for (Entry& entry : lru_) {
    by_offset.push_back(&entry);
  }
  std::sort(by_offset.begin(), by_offset.end(),
            [](const Entry* a, const Entry* b) { return a->offset < b->offset; });
  // Entries only move toward the front, in offset order, so no move
  // overwrites an entry not yet moved.
  size_t next = 0;
  for (Entry* entry : by_offset) {
    if (entry->offset != next) {
      std::memmove(block_ + next, block_ + entry->offset, entry->size);
      entry->offset = next;
    }
    next += entry->size;
  }
  bump_ = next;
}

CodeCache::Stats CodeCache::stats() const {
  std::lock_guard lock(mu_);
  Stats stats = stats_;
  stats.entries = lru_.size();
  return stats;
}

uintptr_t CodeCache::block_base() const {
  std::lock_guard lock(mu_);
  return reinterpret_cast<uintptr_t>(block_);
}

}  // namespace pkrusafe
