#include "src/runtime/runtime.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/mpk/hardware_backend.h"

namespace pkrusafe {
namespace {

constexpr AllocId kSharedSite{1, 0, 0};   // flows into U in our scenarios
constexpr AllocId kPrivateSite{2, 0, 0};  // never crosses the boundary

std::unique_ptr<PkruSafeRuntime> MakeRuntime(RuntimeMode mode, SitePolicy policy = {}) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = mode;
  config.allocator.trusted_pool_bytes = size_t{1} << 30;
  config.allocator.untrusted_pool_bytes = size_t{1} << 30;
  config.policy = std::move(policy);
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return std::move(*runtime);
}

// Simulates untrusted code touching `ptr` through the checked-access path.
Status UntrustedRead(PkruSafeRuntime& rt, const void* ptr) {
  UntrustedScope scope(rt.gates());
  return rt.backend().CheckAccess(reinterpret_cast<uintptr_t>(ptr), AccessKind::kRead);
}

TEST(RuntimeTest, DisabledModeKeepsEverythingTrusted) {
  auto rt = MakeRuntime(RuntimeMode::kDisabled);
  void* p = rt->AllocTrusted(kSharedSite, 64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*rt->allocator().OwnerOf(p), Domain::kTrusted);
  rt->Free(p);
}

TEST(RuntimeTest, EnforcingDeniesUnprofiledCrossAccess) {
  // E1 step 1: enforcement with an empty profile — untrusted access to any
  // trusted allocation faults.
  auto rt = MakeRuntime(RuntimeMode::kEnforcing);
  void* p = rt->AllocTrusted(kSharedSite, 64);
  EXPECT_EQ(UntrustedRead(*rt, p).code(), StatusCode::kPermissionDenied);
  rt->Free(p);
}

TEST(RuntimeTest, ProfilingRecordsCrossAccessAndResumes) {
  // E1 step 2: the profiling build observes the access, records the site and
  // lets execution continue.
  auto rt = MakeRuntime(RuntimeMode::kProfiling);
  void* shared = rt->AllocTrusted(kSharedSite, 64);
  void* priv = rt->AllocTrusted(kPrivateSite, 64);

  EXPECT_TRUE(UntrustedRead(*rt, shared).ok());  // permissive: single-stepped

  Profile profile = rt->TakeProfile();
  EXPECT_TRUE(profile.Contains(kSharedSite));
  EXPECT_FALSE(profile.Contains(kPrivateSite));
  EXPECT_EQ(rt->stats().profile_faults, 1u);

  rt->Free(shared);
  rt->Free(priv);
}

TEST(RuntimeTest, EnforcingWithProfileSharesExactlyThoseSites) {
  // E1 step 3: rebuild with the profile; the shared site now comes from M_U
  // and the access succeeds, while unprofiled sites remain protected.
  Profile profile;
  profile.Add(kSharedSite);
  auto rt = MakeRuntime(RuntimeMode::kEnforcing, SitePolicy::FromProfile(profile));

  void* shared = rt->AllocTrusted(kSharedSite, 64);
  void* priv = rt->AllocTrusted(kPrivateSite, 64);
  EXPECT_EQ(*rt->allocator().OwnerOf(shared), Domain::kUntrusted);
  EXPECT_EQ(*rt->allocator().OwnerOf(priv), Domain::kTrusted);

  EXPECT_TRUE(UntrustedRead(*rt, shared).ok());
  EXPECT_EQ(UntrustedRead(*rt, priv).code(), StatusCode::kPermissionDenied);

  rt->Free(shared);
  rt->Free(priv);
}

TEST(RuntimeTest, FullPipelineProfileThenEnforce) {
  // DESIGN.md invariant 5 (profile soundness): replaying the profiled run
  // under enforcement produces zero faults. Invariant 6 (minimality): the
  // unshared site stays in M_T.
  Profile profile;
  {
    auto rt = MakeRuntime(RuntimeMode::kProfiling);
    void* a = rt->AllocTrusted(kSharedSite, 128);
    void* b = rt->AllocTrusted(kPrivateSite, 128);
    EXPECT_TRUE(UntrustedRead(*rt, a).ok());
    rt->Free(a);
    rt->Free(b);
    profile = rt->TakeProfile();
  }
  {
    auto rt = MakeRuntime(RuntimeMode::kEnforcing, SitePolicy::FromProfile(profile));
    void* a = rt->AllocTrusted(kSharedSite, 128);
    void* b = rt->AllocTrusted(kPrivateSite, 128);
    EXPECT_TRUE(UntrustedRead(*rt, a).ok());  // no fault: now in M_U
    EXPECT_EQ(*rt->allocator().OwnerOf(b), Domain::kTrusted);
    rt->Free(a);
    rt->Free(b);
  }
}

TEST(RuntimeTest, AllocUntrustedAlwaysGoesToSharedPool) {
  for (RuntimeMode mode :
       {RuntimeMode::kDisabled, RuntimeMode::kProfiling, RuntimeMode::kEnforcing}) {
    auto rt = MakeRuntime(mode);
    void* p = rt->AllocUntrusted(64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*rt->allocator().OwnerOf(p), Domain::kUntrusted) << RuntimeModeName(mode);
    rt->Free(p);
  }
}

TEST(RuntimeTest, ReallocPreservesProvenanceDuringProfiling) {
  auto rt = MakeRuntime(RuntimeMode::kProfiling);
  void* p = rt->AllocTrusted(kSharedSite, 64);
  std::memset(p, 0x3C, 64);
  void* q = rt->Realloc(p, 64 * 1024);  // forces a move to a new span
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(static_cast<unsigned char*>(q)[63], 0x3C);

  // The grown object still faults back to the original site.
  EXPECT_TRUE(UntrustedRead(*rt, static_cast<char*>(q) + 60000).ok());
  EXPECT_TRUE(rt->TakeProfile().Contains(kSharedSite));
  rt->Free(q);
}

TEST(RuntimeTest, ProfilingFaultsRecordOncePerSite) {
  auto rt = MakeRuntime(RuntimeMode::kProfiling);
  void* a = rt->AllocTrusted(kSharedSite, 32);
  void* b = rt->AllocTrusted(kSharedSite, 32);  // same site, second object
  EXPECT_TRUE(UntrustedRead(*rt, a).ok());
  EXPECT_TRUE(UntrustedRead(*rt, b).ok());
  Profile profile = rt->TakeProfile();
  EXPECT_EQ(profile.site_count(), 1u);
  EXPECT_EQ(profile.CountFor(kSharedSite), 2u);
  rt->Free(a);
  rt->Free(b);
}

TEST(RuntimeTest, StatsReportSitesAndBytes) {
  Profile profile;
  profile.Add(kSharedSite);
  auto rt = MakeRuntime(RuntimeMode::kEnforcing, SitePolicy::FromProfile(profile));
  void* a = rt->AllocTrusted(kSharedSite, 1000);  // -> M_U
  void* b = rt->AllocTrusted(kPrivateSite, 1000);  // -> M_T
  void* c = rt->AllocUntrusted(1000);

  const RuntimeStats stats = rt->stats();
  EXPECT_EQ(stats.sites_seen, 2u);
  EXPECT_EQ(stats.sites_shared, 1u);
  EXPECT_GT(stats.trusted_bytes, 0u);
  EXPECT_GT(stats.untrusted_bytes, stats.trusted_bytes);  // 2 of 3 went to M_U
  EXPECT_GT(stats.untrusted_fraction(), 0.5);

  rt->Free(a);
  rt->Free(b);
  rt->Free(c);
}

TEST(RuntimeTest, GateTransitionsShowUpInStats) {
  auto rt = MakeRuntime(RuntimeMode::kEnforcing);
  rt->gates().CallUntrusted([] {});
  rt->gates().CallUntrusted([] {});
  EXPECT_EQ(rt->stats().transitions, 4u);
}

TEST(RuntimeTest, ProfileSurvivesSaveLoadCycle) {
  auto rt = MakeRuntime(RuntimeMode::kProfiling);
  void* p = rt->AllocTrusted(kSharedSite, 64);
  EXPECT_TRUE(UntrustedRead(*rt, p).ok());
  rt->Free(p);

  const std::string path = ::testing::TempDir() + "/runtime_profile_roundtrip.txt";
  ASSERT_TRUE(rt->TakeProfile().SaveToFile(path).ok());
  auto loaded = Profile::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());

  auto enforcing = MakeRuntime(RuntimeMode::kEnforcing, SitePolicy::FromProfile(*loaded));
  void* q = enforcing->AllocTrusted(kSharedSite, 64);
  EXPECT_EQ(*enforcing->allocator().OwnerOf(q), Domain::kUntrusted);
  enforcing->Free(q);
  std::remove(path.c_str());
}

TEST(RuntimeTest, HardwareRuntimesReturnTheirKeys) {
  if (!HardwareMpkBackend::IsSupported()) {
    GTEST_SKIP() << "CPU/kernel does not support Intel MPK";
  }
  // More runtimes than the CPU has keys: each must hand its M_T key back
  // when it dies, or pkey_alloc runs dry around the 15th.
  for (int i = 0; i < 20; ++i) {
    RuntimeConfig config;
    config.backend = BackendKind::kHardware;
    config.mode = RuntimeMode::kEnforcing;
    config.allocator.trusted_pool_bytes = size_t{1} << 24;
    config.allocator.untrusted_pool_bytes = size_t{1} << 24;
    auto rt = PkruSafeRuntime::Create(std::move(config));
    ASSERT_TRUE(rt.ok()) << "runtime " << i << ": " << rt.status().ToString();
    void* p = (*rt)->AllocTrusted(kPrivateSite, 64);
    ASSERT_NE(p, nullptr);
    (*rt)->gates().CallUntrusted([] {});
    (*rt)->Free(p);
  }
}

}  // namespace
}  // namespace pkrusafe
