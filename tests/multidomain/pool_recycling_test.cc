// Pool recycling in MultiCompartment: a released library's pool is parked
// (decommitted, tagged with the evicted key) and handed to the next
// registration, so the backend's tagged ranges track the peak number of live
// sessions instead of every session ever created.
#include "src/multidomain/multi_compartment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>

#include "src/mpk/mprotect_backend.h"
#include "src/mpk/sim_backend.h"

namespace pkrusafe {
namespace {

constexpr size_t kPoolBytes = size_t{256} << 10;
constexpr size_t kObjectBytes = 4096;

enum class Backend { kSim, kMprotect };

class PoolRecyclingTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kSim) {
      sim_ = std::make_unique<SimMpkBackend>();
      backend_ = sim_.get();
    } else {
      mprotect_ = std::make_unique<MprotectMpkBackend>();
      backend_ = mprotect_.get();
    }
    backend_->WritePkru(PkruValue::AllowAll());
    MultiCompartmentConfig config;
    config.trusted_pool_bytes = size_t{1} << 20;
    config.shared_pool_bytes = size_t{1} << 20;
    config.library_pool_bytes = kPoolBytes;
    config.max_hw_slots = 4;  // a 48-wide window evicts on every entry
    auto mc = MultiCompartment::Create(backend_, config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
  }

  void TearDown() override {
    mc_.reset();
    backend_->WritePkru(PkruValue::AllowAll());
    if (mprotect_ != nullptr) {
      mprotect_->UninstallSignalHandlers();
    }
  }

  size_t TaggedRanges() const {
    return sim_ != nullptr ? sim_->tagged_range_count() : mprotect_->tagged_range_count();
  }

  // Whether the PKRU installed on this thread grants reads of `ptr`'s page.
  bool Readable(const void* ptr) const {
    return backend_->ReadPkru().allows_read(backend_->KeyFor(reinterpret_cast<uintptr_t>(ptr)));
  }

  LibraryId Register(const std::string& name) {
    auto id = mc_->RegisterLibrary(name);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : kTrustedLibrary;
  }

  std::unique_ptr<SimMpkBackend> sim_;
  std::unique_ptr<MprotectMpkBackend> mprotect_;
  MpkBackend* backend_ = nullptr;
  std::unique_ptr<MultiCompartment> mc_;
};

// Regression for the session-growth fault: every session ever created used
// to keep its pool mapped and tagged, so each re-tag's snapshot rebuild (and
// every registration) grew with the number of sessions served.
TEST_P(PoolRecyclingTest, SessionChurnKeepsTaggedRangesBounded) {
  constexpr size_t kWindow = 48;
  constexpr size_t kSessions = 4000;
  // The trusted pool plus one pool per live session; the newest session is
  // registered before the oldest is released.
  constexpr size_t kBound = kWindow + 4;
  std::deque<LibraryId> live;
  size_t peak = 0;
  for (size_t i = 0; i < kSessions; ++i) {
    const LibraryId id = Register("s" + std::to_string(i));
    ASSERT_NE(id, kTrustedLibrary);
    auto* scratch = static_cast<uint64_t*>(mc_->AllocateIn(id, kObjectBytes));
    ASSERT_NE(scratch, nullptr) << "session " << i;
    {
      MultiCompartment::Scope scope(*mc_, id);
      *scratch = i;
    }
    live.push_back(id);
    if (live.size() > kWindow) {
      ASSERT_TRUE(mc_->ReleaseLibrary(live.front()).ok()) << "session " << i;
      live.pop_front();
    }
    peak = std::max(peak, TaggedRanges());
  }
  EXPECT_LE(peak, kBound);
  EXPECT_LE(mc_->spare_pool_count(), 1u);
  EXPECT_EQ(mc_->live_library_count(), kWindow);
  EXPECT_EQ(mc_->library_count(), kSessions);  // ids are never reused
}

TEST_P(PoolRecyclingTest, RecycledPoolReadsZeroToNextTenant) {
  const LibraryId a = Register("a");
  auto* secret = static_cast<unsigned char*>(mc_->AllocateIn(a, kObjectBytes));
  ASSERT_NE(secret, nullptr);
  {
    MultiCompartment::Scope scope(*mc_, a);
    std::memset(secret, 0xA5, kObjectBytes);
  }
  ASSERT_TRUE(mc_->ReleaseLibrary(a).ok());
  ASSERT_EQ(mc_->spare_pool_count(), 1u);

  const LibraryId b = Register("b");
  EXPECT_EQ(mc_->spare_pool_count(), 0u);
  auto* fresh = static_cast<unsigned char*>(mc_->AllocateIn(b, kObjectBytes));
  ASSERT_EQ(fresh, secret) << "b should have been given a's pool";
  EXPECT_EQ(mc_->PrivateOwnerOf(fresh), b);
  MultiCompartment::Scope scope(*mc_, b);
  ASSERT_TRUE(Readable(fresh));
  for (size_t i = 0; i < kObjectBytes; ++i) {
    ASSERT_EQ(fresh[i], 0) << "byte " << i << " of a's data leaked to b";
  }
}

TEST_P(PoolRecyclingTest, RecycledPoolDeniedToNeighboursAndWhenEvicted) {
  const LibraryId a = Register("a");
  ASSERT_TRUE(mc_->ReleaseLibrary(a).ok());
  const LibraryId b = Register("b");
  ASSERT_EQ(mc_->spare_pool_count(), 0u);
  void* obj = mc_->AllocateIn(b, kObjectBytes);
  ASSERT_NE(obj, nullptr);
  const LibraryId neighbour = Register("neighbour");

  // Resident: b's slot key is denied to its neighbour.
  {
    MultiCompartment::Scope scope(*mc_, b);
    EXPECT_TRUE(Readable(obj));
  }
  {
    MultiCompartment::Scope scope(*mc_, neighbour);
    EXPECT_FALSE(Readable(obj));
  }
  // Evicted: sweep enough other libraries through the 4 slots.
  for (int i = 0; i < 6; ++i) {
    MultiCompartment::Scope scope(*mc_, Register("sweep" + std::to_string(i)));
  }
  ASSERT_FALSE(mc_->library_resident(b));
  EXPECT_EQ(backend_->KeyFor(reinterpret_cast<uintptr_t>(obj)), mc_->key_of(b));
  MultiCompartment::Scope scope(*mc_, neighbour);
  EXPECT_FALSE(Readable(obj));
  if (GetParam() == Backend::kMprotect) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
          volatile unsigned char v = *static_cast<unsigned char*>(obj);
          (void)v;
        },
        "");
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PoolRecyclingTest,
                         ::testing::Values(Backend::kSim, Backend::kMprotect),
                         [](const ::testing::TestParamInfo<Backend>& param) {
                           return param.param == Backend::kSim ? "Sim" : "Mprotect";
                         });

// A failed registration must neither take a spare pool off the list nor
// strand its virtual key. Pure bookkeeping, so one backend covers it.
class PoolRecyclingFailureTest : public ::testing::Test {
 protected:
  void Create(size_t library_pool_bytes) {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    MultiCompartmentConfig config;
    config.trusted_pool_bytes = size_t{1} << 20;
    config.shared_pool_bytes = size_t{1} << 20;
    config.library_pool_bytes = library_pool_bytes;
    config.max_hw_slots = 2;
    auto mc = MultiCompartment::Create(&backend_, config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
  }

  SimMpkBackend backend_;
  std::unique_ptr<MultiCompartment> mc_;
};

TEST_F(PoolRecyclingFailureTest, TableFullKeepsSparePoolsAndKey) {
  Create(kArenaChunkGranularity);
  // Fill the library table: ids are never reused, so every slot but one is
  // spent on a released session, and the last holds a live one.
  const size_t capacity = StableIndexArray<int>::capacity();
  for (size_t i = 0; i + 1 < capacity; ++i) {
    auto id = mc_->RegisterLibrary("t");
    ASSERT_TRUE(id.ok()) << i << ": " << id.status().ToString();
    ASSERT_TRUE(mc_->ReleaseLibrary(*id).ok());
  }
  auto last = mc_->RegisterLibrary("last");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_EQ(mc_->spare_pool_count(), 0u);
  const size_t ranges = backend_.tagged_range_count();

  // No spare: the fresh pool reserved for the attempt becomes one (untouched
  // and tagged with the evicted key) instead of being unmapped while tagged.
  auto full = mc_->RegisterLibrary("overflow");
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(mc_->spare_pool_count(), 1u);
  EXPECT_EQ(mc_->vpkey_stats().virtual_keys, 1u);
  EXPECT_EQ(backend_.tagged_range_count(), ranges + 1);

  // With spares: the attempt leaves every one of them on the list.
  ASSERT_TRUE(mc_->ReleaseLibrary(*last).ok());
  ASSERT_EQ(mc_->spare_pool_count(), 2u);
  full = mc_->RegisterLibrary("overflow");
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(mc_->spare_pool_count(), 2u);
  EXPECT_EQ(mc_->vpkey_stats().virtual_keys, 0u);
  EXPECT_EQ(backend_.tagged_range_count(), ranges + 1);
}

TEST_F(PoolRecyclingFailureTest, ArenaCreateFailureKeepsKeyAndTagsNothing) {
  Create(4096);  // below the arena's minimum reservation
  const size_t ranges = backend_.tagged_range_count();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(mc_->RegisterLibrary("x").status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(mc_->vpkey_stats().virtual_keys, 0u);
  EXPECT_EQ(mc_->spare_pool_count(), 0u);
  EXPECT_EQ(mc_->library_count(), 0u);
  EXPECT_EQ(backend_.tagged_range_count(), ranges);
}

}  // namespace
}  // namespace pkrusafe
