// The crossings a server request actually makes, on one thread's stack:
// CallUntrusted (a GateSet frame) -> MultiCompartment::Scope (a library
// frame) -> CallTrusted (a GateSet frame again). Both kinds of frame go
// through the one CompartmentStack::Enter/Exit routine, so they must nest,
// restore and unwind as one stack — on the sim backend and, where the CPU
// has PKU, on the real register.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/mpk/backend_factory.h"
#include "src/mpk/hardware_backend.h"
#include "src/multidomain/multi_compartment.h"
#include "src/runtime/call_gate.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace {

using telemetry::TraceDirection;
using telemetry::TraceEvent;
using telemetry::TraceEventType;

class InterleavedCrossingTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kHardware && !HardwareMpkBackend::IsSupported()) {
      GTEST_SKIP() << "CPU/kernel does not support Intel MPK";
    }
    SetCurrentThreadPkru(PkruValue::AllowAll());
    auto backend = CreateMpkBackend(GetParam());
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    backend_ = std::move(*backend);
    auto gate_key = backend_->AllocateKey();
    ASSERT_TRUE(gate_key.ok()) << gate_key.status().ToString();
    gate_key_ = *gate_key;
    gates_ = std::make_unique<GateSet>(backend_.get(), gate_key_);

    MultiCompartmentConfig config;
    config.trusted_pool_bytes = size_t{1} << 20;
    config.shared_pool_bytes = size_t{1} << 20;
    config.library_pool_bytes = size_t{1} << 20;
    config.max_hw_slots = 2;
    config.extra_deny = {gate_key_};
    auto mc = MultiCompartment::Create(backend_.get(), config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
    auto lib = mc_->RegisterLibrary("tenant");
    ASSERT_TRUE(lib.ok()) << lib.status().ToString();
    lib_ = *lib;
    outer_pkru_ = backend_->ReadPkru();
  }

  void TearDown() override {
    if (backend_ != nullptr) {
      backend_->WritePkru(outer_pkru_);
    }
    SetCurrentThreadPkru(PkruValue::AllowAll());
  }

  PkruValue Pkru() const { return backend_->ReadPkru(); }

  std::unique_ptr<MpkBackend> backend_;
  PkeyId gate_key_ = 0;
  std::unique_ptr<GateSet> gates_;
  std::unique_ptr<MultiCompartment> mc_;
  LibraryId lib_ = 0;
  PkruValue outer_pkru_;
};

TEST_P(InterleavedCrossingTest, EachExitRestoresTheMatchingEnter) {
  ASSERT_EQ(CompartmentStack::Depth(), 0u);
  gates_->CallUntrusted([&] {
    EXPECT_EQ(CompartmentStack::Depth(), 1u);
    EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kUntrusted);
    const PkruValue in_gate = Pkru();
    EXPECT_EQ(in_gate, outer_pkru_.WithAccessDisabled(gate_key_));
    {
      MultiCompartment::Scope scope(*mc_, lib_);
      EXPECT_EQ(CompartmentStack::Depth(), 2u);
      EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kUntrusted);
      const PkruValue in_library = Pkru();
      EXPECT_EQ(in_library, mc_->PolicyFor(lib_));
      EXPECT_TRUE(in_library.access_disabled(gate_key_));
      gates_->CallTrusted([&] {
        EXPECT_EQ(CompartmentStack::Depth(), 3u);
        EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kTrusted);
        EXPECT_EQ(Pkru(), in_library.WithKeyAllowed(gate_key_));
      });
      EXPECT_EQ(CompartmentStack::Depth(), 2u);
      EXPECT_EQ(Pkru(), in_library);
    }
    EXPECT_EQ(CompartmentStack::Depth(), 1u);
    EXPECT_EQ(CompartmentStack::CurrentDomain(), Domain::kUntrusted);
    EXPECT_EQ(Pkru(), in_gate);
  });
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
  EXPECT_EQ(Pkru(), outer_pkru_);
}

TEST_P(InterleavedCrossingTest, ThrowFromTheInnermostBodyUnwindsAllThreeFrames) {
  EXPECT_THROW(gates_->CallUntrusted([&] {
                 MultiCompartment::Scope scope(*mc_, lib_);
                 gates_->CallTrusted([] { throw std::runtime_error("boom"); });
               }),
               std::runtime_error);
  EXPECT_EQ(CompartmentStack::Depth(), 0u);
  EXPECT_EQ(Pkru(), outer_pkru_);
  // The library scope dropped its pin on the way out, so the release that a
  // pinned key refuses goes through.
  EXPECT_TRUE(mc_->ReleaseLibrary(lib_).ok());
}

TEST_P(InterleavedCrossingTest, LibraryCrossingsLeaveGateCountersAlone) {
  { MultiCompartment::Scope scope(*mc_, lib_); }
  EXPECT_EQ(gates_->transition_count(), 0u);
  EXPECT_EQ(mc_->transition_count(), 2u);

  gates_->CallUntrusted([&] { MultiCompartment::Scope scope(*mc_, lib_); });
  EXPECT_EQ(gates_->transitions_to_untrusted(), 1u);
  EXPECT_EQ(gates_->transitions_to_trusted(), 1u);
  EXPECT_EQ(mc_->transition_count(), 4u);
}

TEST_P(InterleavedCrossingTest, TracedLibraryCrossingIsOneBalancedGatePair) {
  const PkruValue mask = mc_->PolicyFor(lib_);
  telemetry::ResetForTesting();
  telemetry::SetEnabled(true);
  { MultiCompartment::Scope scope(*mc_, lib_); }
  telemetry::SetEnabled(false);
  std::vector<TraceEvent> gate_events;
  std::vector<uint64_t> pkru_writes;
  for (const TraceEvent& event : telemetry::CollectTrace()) {
    if (event.tid != telemetry::CurrentTid()) {
      continue;
    }
    if (event.type == TraceEventType::kGateEnter || event.type == TraceEventType::kGateExit) {
      gate_events.push_back(event);
    } else if (event.type == TraceEventType::kPkruWrite) {
      pkru_writes.push_back(event.a);
    }
  }
  telemetry::ResetForTesting();

  ASSERT_EQ(gate_events.size(), 2u);
  EXPECT_EQ(gate_events[0].type, TraceEventType::kGateEnter);
  EXPECT_EQ(gate_events[0].detail, static_cast<uint8_t>(TraceDirection::kTrustedToUntrusted));
  EXPECT_EQ(gate_events[0].a, 1u);  // depth after the push
  EXPECT_EQ(gate_events[0].b, mask.raw());
  EXPECT_EQ(gate_events[1].type, TraceEventType::kGateExit);
  EXPECT_EQ(gate_events[1].detail, static_cast<uint8_t>(TraceDirection::kUntrustedToTrusted));
  EXPECT_EQ(gate_events[1].a, 0u);
  EXPECT_EQ(gate_events[1].b, outer_pkru_.raw());
  EXPECT_EQ(pkru_writes, (std::vector<uint64_t>{mask.raw(), outer_pkru_.raw()}));
}

INSTANTIATE_TEST_SUITE_P(Backends, InterleavedCrossingTest,
                         ::testing::Values(BackendKind::kSim, BackendKind::kHardware),
                         [](const ::testing::TestParamInfo<BackendKind>& param) {
                           return param.param == BackendKind::kSim ? std::string("Sim")
                                                                   : std::string("Hardware");
                         });

}  // namespace
}  // namespace pkrusafe
