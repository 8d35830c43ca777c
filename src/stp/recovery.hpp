// Recovery conformance suite: protocol x crash schedule x storage fault.
//
// Each trial attaches fresh stable stores to both processes, scripts one
// storage fault plus one crash-restart against a chosen process, and runs
// the protocol on its design channel.  The sweep asserts the durable
// recovery layer's contract: prefix-safety always holds (a violation at or
// after the crash surfaces as RunVerdict::kRecoveryViolation) and liveness
// resumes (the run still completes).
//
// Fault placement comes in two flavours:
//   * biting      — the damage lines up with the newest record at the crash,
//                   so recovery rehydrates a one-record-old checkpoint.
//                   Protocols declared rewind-safe must ride this out.
//   * superseded  — the damage lands early and later appends out-date it, so
//                   recovery is exact.  Used for the (documented) protocols
//                   that cannot tolerate a rewound checkpoint at all; the
//                   dedicated hazard tests pin down what biting does to them.
#pragma once

#include "fault/plan.hpp"
#include "stp/conformance.hpp"

namespace stpx::stp {

/// One protocol entry in the conformance matrix.  `spec` carries no stores;
/// recovery_sweep attaches a fresh MemStore pair per trial.
struct RecoveryCase : ProtocolCase {
  /// Whether this process tolerates recovering from a checkpoint one record
  /// older than its live state (see docs/RECOVERY.md for the per-protocol
  /// analysis).  Rewind-unsafe combos get superseded fault placement.
  bool sender_rewind_safe = true;
  bool receiver_rewind_safe = true;
  /// The receiver flushes buffered writes in bursts (sync stop-and-wait
  /// does), so a @writes trigger above 2 can land inside the final burst
  /// and never be observed by a channel tick.  Caps the superseded
  /// torn-write crash trigger at 2; see recovery_plan.
  bool writes_can_batch = false;
};

/// The scripted schedule one conformance trial runs: one storage fault
/// against `proc`'s store, then a crash-restart of `proc`.  Exposed so the
/// hazard tests can aim a biting plan at a rewind-unsafe protocol.
/// `writes_can_batch` mirrors RecoveryCase::writes_can_batch.
fault::FaultPlan recovery_plan(fault::FaultKind kind, sim::Proc proc,
                               bool biting, bool writes_can_batch = false);

/// Run the full matrix: every case x all four storage-fault kinds x both
/// processes.  `seed` feeds the per-trial scheduler/channel factories.  A
/// trial passes when it completes, crashed at least once and recovered
/// from the store.
MatrixReport recovery_sweep(const std::vector<RecoveryCase>& cases,
                            std::uint64_t seed);

/// The default matrix: the suite roster (stp/conformance.hpp) with the
/// per-protocol rewind notes of docs/RECOVERY.md.
std::vector<RecoveryCase> default_recovery_cases();

}  // namespace stpx::stp
