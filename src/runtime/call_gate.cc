#include "src/runtime/call_gate.h"

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {

namespace {

struct StackStorage {
  CompartmentStack::Frame frames[CompartmentStack::kMaxDepth];
  size_t depth = 0;
};

thread_local StackStorage tls_stack;

// Per-crossing PKRU-write latency, pooled across every crossing. Transition
// *counts* stay in the per-GateSet atomics (the source of truth Tables 1-2
// read); the runtime mirrors those into the registry as callback gauges.
telemetry::Histogram* CrossingHistogram() {
  static telemetry::Histogram* histogram = telemetry::MetricsRegistry::Global().GetOrCreateHistogram(
      "gate.crossing_ns", telemetry::Histogram::ExponentialBounds(16, 2.0, 20));
  return histogram;
}

uint8_t DirectionCode(bool into_untrusted) {
  return static_cast<uint8_t>(into_untrusted ? telemetry::TraceDirection::kTrustedToUntrusted
                                             : telemetry::TraceDirection::kUntrustedToTrusted);
}

// The crossing's one PKRU write.
void Install(MpkBackend* backend, PkruValue target, bool verify) {
  backend->WritePkru(target);
  if (verify) {
    const PkruValue actual = backend->ReadPkru();
    PS_CHECK(actual == target) << "call gate PKRU verification failed: wrote "
                               << target.ToString() << " but register holds "
                               << actual.ToString();
  }
}

}  // namespace

void CompartmentStack::Push(Frame frame) {
  StackStorage& stack = tls_stack;
  PS_CHECK_LT(stack.depth, kMaxDepth) << "compartment stack overflow";
  stack.frames[stack.depth++] = frame;
}

CompartmentStack::Frame CompartmentStack::Pop() {
  StackStorage& stack = tls_stack;
  PS_CHECK_GT(stack.depth, 0u) << "compartment stack underflow";
  return stack.frames[--stack.depth];
}

size_t CompartmentStack::Depth() { return tls_stack.depth; }

Domain CompartmentStack::CurrentDomain() {
  const StackStorage& stack = tls_stack;
  return stack.depth == 0 ? Domain::kTrusted : stack.frames[stack.depth - 1].entered;
}

// The trace events are recorded in the traced branches here, not in
// Install, so the disabled path pays exactly one telemetry::Enabled() check
// per crossing (the cost contract bench_callgate_micro verifies).

void CompartmentStack::Enter(MpkBackend* backend, Domain entered, CrossingRights rights,
                             bool verify) {
  const PkruValue saved = backend->ReadPkru();
  Push({saved, entered});
  const PkruValue target = rights.ApplyTo(saved);
  if (telemetry::Enabled()) [[unlikely]] {
    const uint64_t t0 = telemetry::NowNs();
    telemetry::RecordEventAt(t0, telemetry::TraceEventType::kGateEnter,
                             DirectionCode(entered == Domain::kUntrusted), Depth(), target.raw());
    Install(backend, target, verify);
    telemetry::RecordEvent(telemetry::TraceEventType::kPkruWrite, 0, target.raw());
    CrossingHistogram()->Observe(telemetry::NowNs() - t0);
  } else {
    Install(backend, target, verify);
  }
}

void CompartmentStack::Exit(MpkBackend* backend, Domain expected, bool verify) {
  const Frame frame = Pop();
  PS_CHECK(frame.entered == expected) << "unbalanced compartment transitions";
  if (telemetry::Enabled()) [[unlikely]] {
    const uint64_t t0 = telemetry::NowNs();
    Install(backend, frame.saved_pkru, verify);
    const uint64_t t1 = telemetry::NowNs();
    CrossingHistogram()->Observe(t1 - t0);
    telemetry::RecordEventAt(t1, telemetry::TraceEventType::kPkruWrite, 0,
                             frame.saved_pkru.raw());
    // The return crossing runs opposite to the one that pushed the frame.
    telemetry::RecordEventAt(t1, telemetry::TraceEventType::kGateExit,
                             DirectionCode(expected != Domain::kUntrusted), Depth(),
                             frame.saved_pkru.raw());
  } else {
    Install(backend, frame.saved_pkru, verify);
  }
}

}  // namespace pkrusafe
