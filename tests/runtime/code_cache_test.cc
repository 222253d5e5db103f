// CodeCache on its own (admission, exact-key hits, LRU eviction and
// compaction at the byte bound, concurrent use) and as the runtime owns it
// (storage in M_T, invisible to the heap accounting, registry metrics).
#include "src/runtime/code_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/runtime.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace {

constexpr size_t kSmallCapacity = kArenaChunkGranularity;  // 64 KiB

std::unique_ptr<Arena> MakeArena() {
  auto arena = Arena::Create(size_t{16} << 20);
  EXPECT_TRUE(arena.ok());
  return std::move(*arena);
}

// Lookup that admits on demand: returns the cached value, or inserts
// `value` when the cache asks for it and returns nullopt.
std::optional<std::string> Get(CodeCache& cache, const std::string& key,
                               const std::string& value) {
  std::optional<std::string> got;
  const CodeCache::Probe probe =
      cache.Lookup(key, [&](std::string_view cached) { got = std::string(cached); });
  if (probe == CodeCache::Probe::kAdmit) {
    cache.Insert(key, value);
  }
  return got;
}

std::string ValueFor(int i, size_t size) {
  std::string value(size, static_cast<char>('a' + i % 26));
  value.replace(0, std::to_string(i).size(), std::to_string(i));
  return value;
}

TEST(CodeCacheTest, AdmitsOnSecondSightingAndHitsExactKeys) {
  auto arena = MakeArena();
  CodeCache cache(arena.get(), kSmallCapacity);
  EXPECT_EQ(cache.capacity(), kSmallCapacity);

  EXPECT_EQ(Get(cache, "key", "value"), std::nullopt);
  EXPECT_EQ(cache.block_base(), 0u);  // first sighting: no storage yet
  EXPECT_EQ(cache.stats().admitted, 0u);
  EXPECT_EQ(Get(cache, "key", "value"), std::nullopt);
  EXPECT_EQ(cache.stats().admitted, 1u);
  EXPECT_TRUE(arena->Contains(cache.block_base()));
  EXPECT_EQ(Get(cache, "key", "other"), "value");

  // Prefixes and extensions of a key are different keys.
  EXPECT_EQ(Get(cache, "ke", "x"), std::nullopt);
  EXPECT_EQ(Get(cache, "key!", "x"), std::nullopt);
  const CodeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 32u);  // 16-byte header + 3 + 5, rounded to 16
}

TEST(CodeCacheTest, OversizeValuesAreNotCached) {
  auto arena = MakeArena();
  CodeCache cache(arena.get(), kSmallCapacity);
  const std::string big(kSmallCapacity / 8, 'x');
  Get(cache, "big", big);
  Get(cache, "big", big);
  EXPECT_EQ(cache.stats().admitted, 0u);
  EXPECT_EQ(Get(cache, "big", big), std::nullopt);
}

TEST(CodeCacheTest, EvictsLeastRecentlyUsedAtTheByteBound) {
  auto arena = MakeArena();
  CodeCache cache(arena.get(), kSmallCapacity);
  constexpr size_t kValue = 4000;  // ~16 entries fit
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    Get(cache, key, ValueFor(i, kValue));
    Get(cache, key, ValueFor(i, kValue));
    // Keep k0 hot: it must survive every eviction round.
    EXPECT_EQ(Get(cache, "k0", ValueFor(0, kValue)), ValueFor(0, kValue)) << i;
    EXPECT_EQ(Get(cache, key, ValueFor(i, kValue)), ValueFor(i, kValue)) << i;
    ASSERT_LE(cache.stats().bytes, cache.capacity());
  }
  const CodeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.admitted, 64u);
  EXPECT_GT(stats.evictions, 40u);
  EXPECT_EQ(stats.entries, stats.admitted - stats.evictions);
  // The oldest cold entries went first.
  EXPECT_EQ(Get(cache, "k1", ""), std::nullopt);
  EXPECT_EQ(Get(cache, "k63", ValueFor(63, kValue)), ValueFor(63, kValue));
}

TEST(CodeCacheTest, CompactionKeepsEveryResidentValueIntact) {
  auto arena = MakeArena();
  CodeCache cache(arena.get(), kSmallCapacity);
  // Mixed sizes fragment the block; each round re-reads every key and
  // checks whatever is resident byte for byte.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 40; ++i) {
      const std::string key = "key-" + std::to_string(i);
      const std::string value = ValueFor(i, 200 + static_cast<size_t>((i * 977) % 5000));
      for (int k = 0; k < 2; ++k) {
        const auto got = Get(cache, key, value);
        if (got.has_value()) {
          ASSERT_EQ(*got, value) << key;
        }
      }
    }
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().hits, 0u);
}

// Four threads share one small cache over overlapping keys, forcing
// admission races, eviction and compaction under the lock. check.sh runs
// this under TSan.
TEST(CodeCacheTest, ConcurrentLookupsAndInsertsStayExact) {
  auto arena = MakeArena();
  CodeCache cache(arena.get(), kSmallCapacity);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const int k = (t * 7 + i) % 24;
        const std::string value = ValueFor(k, 1000 + static_cast<size_t>(k) * 150);
        const auto got = Get(cache, "key-" + std::to_string(k), value);
        if (got.has_value() && *got != value) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  const CodeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8000u);
  EXPECT_LE(stats.bytes, cache.capacity());
}

std::unique_ptr<PkruSafeRuntime> MakeRuntime(RuntimeMode mode) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = mode;
  config.allocator.trusted_pool_bytes = size_t{1} << 30;
  config.allocator.untrusted_pool_bytes = size_t{1} << 30;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok());
  return std::move(*runtime);
}

TEST(CodeCacheTest, RuntimeCacheLivesInTrustedMemoryOutsideTheHeapCounts) {
  auto runtime = MakeRuntime(RuntimeMode::kEnforcing);
  CodeCache& cache = runtime->code_cache();
  EXPECT_EQ(cache.capacity(), CodeCache::kDefaultCapacityBytes);
  const RuntimeStats before = runtime->stats();

  for (int i = 0; i < 3; ++i) {
    Get(cache, "script", "compiled");
  }
  const uintptr_t base = cache.block_base();
  ASSERT_NE(base, 0u);
  EXPECT_TRUE(runtime->allocator().trusted_arena().Contains(base));
  EXPECT_EQ(runtime->backend().KeyFor(base), runtime->trusted_key());
  EXPECT_EQ(runtime->backend().KeyFor(base + cache.capacity() - 1), runtime->trusted_key());
  // No tagged range of its own: the block sits in the trusted reservation's.
  TaggedRangeInfo ranges[4];
  const size_t n = runtime->backend().TaggedRangesNear(base, ranges, 4);
  bool covered = false;
  for (size_t i = 0; i < n; ++i) {
    covered |= ranges[i].begin <= base && base + cache.capacity() <= ranges[i].end &&
               ranges[i].begin == runtime->allocator().trusted_arena().base();
  }
  EXPECT_TRUE(covered);

  const RuntimeStats after = runtime->stats();
  EXPECT_EQ(after.trusted_bytes, before.trusted_bytes);
  EXPECT_EQ(after.untrusted_bytes, before.untrusted_bytes);

  // Untrusted code cannot write the block: U's mask denies the M_T key.
  Status write = Status::Ok();
  runtime->gates().CallUntrusted(
      [&] { write = runtime->backend().CheckAccess(base, AccessKind::kWrite); });
  EXPECT_FALSE(write.ok());
  EXPECT_TRUE(runtime->backend().CheckAccess(base, AccessKind::kWrite).ok());
}

TEST(CodeCacheTest, RuntimePublishesCacheMetrics) {
  auto runtime = MakeRuntime(RuntimeMode::kDisabled);
  for (int i = 0; i < 3; ++i) {
    Get(runtime->code_cache(), "script", "compiled");
  }
  const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
  auto gauge = [&](const std::string& name) -> int64_t {
    const auto it = snapshot.gauges.find(name);
    if (it == snapshot.gauges.end()) {
      ADD_FAILURE() << "no gauge " << name;
      return -1;
    }
    return it->second;
  };
  EXPECT_EQ(gauge("runtime.code_cache.hits"), 1);
  EXPECT_EQ(gauge("runtime.code_cache.misses"), 2);
  EXPECT_EQ(gauge("runtime.code_cache.admitted"), 1);
  EXPECT_EQ(gauge("runtime.code_cache.evictions"), 0);
  EXPECT_EQ(gauge("runtime.code_cache.bytes"), 32);
}

}  // namespace
}  // namespace pkrusafe
