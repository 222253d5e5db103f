// Hardware MPK backend tests. These run in full only on machines whose CPU
// and kernel support protection keys (pkey_alloc succeeds); elsewhere every
// hardware-touching test skips, keeping CI green while still exercising the
// real silicon path on Xeon/Ryzen-class hosts.
#include "src/mpk/hardware_backend.h"

#include <gtest/gtest.h>

#include "src/memmap/page.h"
#include "src/memmap/vm_region.h"
#include "src/mpk/backend_factory.h"

namespace pkrusafe {
namespace {

#define SKIP_WITHOUT_MPK()                                      \
  if (!HardwareMpkBackend::IsSupported()) {                     \
    GTEST_SKIP() << "CPU/kernel does not support Intel MPK";    \
  }

TEST(HardwareBackendTest, IsSupportedIsStable) {
  // Whatever the answer, asking twice must agree (probe caches).
  EXPECT_EQ(HardwareMpkBackend::IsSupported(), HardwareMpkBackend::IsSupported());
}

TEST(HardwareBackendTest, AllocateKeyAndTag) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto region = VmRegion::Reserve(4 * kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  EXPECT_GT(*key, 0);
  ASSERT_TRUE(backend.TagRange(region->base(), 4 * kPageSize, *key).ok());
  EXPECT_EQ(backend.KeyFor(region->base()), *key);
  EXPECT_EQ(backend.KeyFor(region->base() + 4 * kPageSize), kDefaultPkey);
}

TEST(HardwareBackendTest, PkruRegisterRoundTrips) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  const PkruValue original = backend.ReadPkru();
  const PkruValue denied = original.WithAccessDisabled(*key);
  backend.WritePkru(denied);
  EXPECT_EQ(backend.ReadPkru(), denied);
  backend.WritePkru(original);
  EXPECT_EQ(backend.ReadPkru(), original);
}

TEST(HardwareBackendTest, DeniedWriteDiesUnderRealMpk) {
  SKIP_WITHOUT_MPK();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        HardwareMpkBackend backend;
        auto region = VmRegion::Reserve(kPageSize);
        auto key = backend.AllocateKey();
        (void)backend.TagRange(region->base(), kPageSize, *key);
        backend.WritePkru(backend.ReadPkru().WithAccessDisabled(*key));
        auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
        bytes[0] = 1;
      },
      "");
}

TEST(HardwareBackendTest, SingleStepProfilingOnSilicon) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto region = VmRegion::Reserve(kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend.TagRange(region->base(), kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());

  int faults = 0;
  backend.SetFaultHandler([&](const MpkFault&) {
    ++faults;
    return FaultResolution::kRetryAllowed;
  });

  const PkruValue original = backend.ReadPkru();
  backend.WritePkru(original.WithAccessDisabled(*key));
  auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
  bytes[0] = 77;
  backend.WritePkru(original);
  backend.UninstallSignalHandlers();

  EXPECT_EQ(faults, 1);
  EXPECT_EQ(bytes[0], 77);
}

TEST(HardwareBackendTest, FreeKeyRejectsForeignAndDoubleFrees) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(backend.FreeKey(kDefaultPkey).code(), StatusCode::kInvalidArgument);
  // A key held by another backend is not this one's to free.
  HardwareMpkBackend other;
  auto foreign = other.AllocateKey();
  ASSERT_TRUE(foreign.ok());
  EXPECT_EQ(backend.FreeKey(*foreign).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(backend.FreeKey(*key).ok());
  EXPECT_EQ(backend.FreeKey(*key).code(), StatusCode::kInvalidArgument);
}

TEST(HardwareBackendTest, FactoryAutoPrefersHardware) {
  SKIP_WITHOUT_MPK();
  auto backend = CreateMpkBackend(BackendKind::kAuto);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->name(), "hardware");
}

}  // namespace
}  // namespace pkrusafe
