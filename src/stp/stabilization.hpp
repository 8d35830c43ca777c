// Stabilization conformance suite: protocol x corruption kind x target
// process.
//
// Each trial scripts exactly one transient-corruption fault from the
// fault-plan grammar (fault/plan.hpp) against a chosen process:
//
//   corrupt-payload  — an in-flight message toward the target is XOR-mangled
//   forge-message    — an id the target's peer never sent is injected
//   scramble-state   — the target's live state blob is mutated and restored
//
// and runs the protocol on its design channel with the engine's suffix-
// safety convergence window armed (EngineConfig::convergence_window): after
// the last injected corruption the newly written output must become a
// correct continuation of X within k items, or the run is classified
// RunVerdict::kStabilizationViolation (see docs/STABILIZATION.md).
//
// Unlike the recovery suite, the conformance contract here is NOT "every
// cell completes": the un-hardened protocols were designed for lossy
// channels, not byzantine bits, and several cells legitimately diverge or
// livelock.  Each case therefore carries a pinned expected-verdict matrix —
// the suite asserts the outcome is *exactly* the documented one, so a
// regression in either direction (a hardened cell degrading, or a pinned
// divergence silently healing) trips the sweep.  make_hardened() is the
// existence proof: its row is pinned kCompleted in every cell.
#pragma once

#include "fault/plan.hpp"
#include "stp/conformance.hpp"

namespace stpx::stp {

/// The corruption kinds a stabilization trial can inject, in matrix order.
constexpr fault::FaultKind kCorruptionKinds[] = {
    fault::FaultKind::kCorruptPayload,
    fault::FaultKind::kForgeMessage,
    fault::FaultKind::kScrambleState,
};
constexpr std::size_t kCorruptionKindCount = 3;

/// One protocol entry in the conformance matrix.
struct StabilizationCase : ProtocolCase {
  /// Pinned expected verdict per cell, indexed [kind][proc] with `kind`
  /// following kCorruptionKinds and `proc` 0 = sender, 1 = receiver.
  /// Defaults to "every cell re-converges"; cases override the cells where
  /// the un-hardened protocol demonstrably does not.
  sim::RunVerdict expected[kCorruptionKindCount][2] = {
      {sim::RunVerdict::kCompleted, sim::RunVerdict::kCompleted},
      {sim::RunVerdict::kCompleted, sim::RunVerdict::kCompleted},
      {sim::RunVerdict::kCompleted, sim::RunVerdict::kCompleted},
  };
};

/// The scripted schedule one conformance trial runs: a single corruption
/// aimed at `proc`, armed once two items are on the output tape (so there
/// is a correct prefix to diverge from).  Exposed so tests can aim a cell's
/// plan at a protocol directly.
fault::FaultPlan stabilization_plan(fault::FaultKind kind, sim::Proc proc);

/// Run the full matrix: every case x all three corruption kinds x both
/// target processes.  `seed` feeds the per-trial scheduler/channel
/// factories; runs are deterministic per (case, kind, proc, seed).  A
/// trial passes when its verdict is exactly the cell's pin.
MatrixReport stabilization_sweep(const std::vector<StabilizationCase>& cases,
                                 std::uint64_t seed);

/// The default matrix: the hardened protocol followed by the suite roster
/// (stp/conformance.hpp), with the expected-verdict pins of
/// docs/STABILIZATION.md.
std::vector<StabilizationCase> default_stabilization_cases();

}  // namespace stpx::stp
