#include "stp/recovery.hpp"

#include <sstream>

#include "store/stable_store.hpp"
#include "util/expect.hpp"

namespace stpx::stp {

namespace {

constexpr fault::FaultKind kStoreFaults[] = {
    fault::FaultKind::kTornWrite,
    fault::FaultKind::kLoseTail,
    fault::FaultKind::kCorruptRecord,
    fault::FaultKind::kStaleSnapshot,
};

/// Rewind kinds can surface a one-record-old checkpoint at recovery.  A
/// stale snapshot cannot: records are full-state checkpoints, so re-reading
/// superseded ones only inflates records_replayed.
bool can_rewind(fault::FaultKind k) {
  return k != fault::FaultKind::kStaleSnapshot;
}

/// Rewind-safe processes take biting placement; rewind-unsafe ones only
/// for the kinds that cannot surface a rewound checkpoint.
bool biting(const RecoveryCase& c, fault::FaultKind kind, sim::Proc proc) {
  const bool rewind_safe = proc == sim::Proc::kSender ? c.sender_rewind_safe
                                                      : c.receiver_rewind_safe;
  return rewind_safe || !can_rewind(kind);
}

/// Each trial gets a fresh MemStore pair, so no checkpoint outlives it.
sim::RunResult run_with_fresh_stores(SystemSpec spec, const seq::Sequence& x,
                                     std::uint64_t seed) {
  store::MemStore sender_store;
  store::MemStore receiver_store;
  spec.engine.sender_store = &sender_store;
  spec.engine.receiver_store = &receiver_store;
  return run_one(spec, x, seed);
}

std::string judge(const RecoveryCase& c, fault::FaultKind kind,
                  sim::Proc proc, const sim::RunResult& r) {
  const std::uint64_t crashes = r.stats.crashes[0] + r.stats.crashes[1];
  // The contract: the run completes AND the crash actually happened AND
  // recovery rehydrated from the store (no silent cold restart).
  // Exception: sender checkpoints are ack-driven, so under loss the sender
  // log can still hold a single record when a lose-tail or corrupt-record
  // fault destroys it outright.  A cold sender restart is then the
  // *correct* recovery (the sender re-reads X from its code) and
  // completing the transfer is the whole contract.
  const bool cold_ok = proc == sim::Proc::kSender &&
                       (kind == fault::FaultKind::kLoseTail ||
                        kind == fault::FaultKind::kCorruptRecord);
  if (r.verdict == sim::RunVerdict::kCompleted && crashes >= 1 &&
      (r.stats.recoveries >= 1 || cold_ok)) {
    return {};
  }
  std::ostringstream os;
  os << c.name << " x " << fault::to_cstr(kind) << " proc "
     << sim::to_cstr(proc)
     << (biting(c, kind, proc) ? " (biting)" : " (superseded)") << " -> "
     << sim::to_cstr(r.verdict) << " crashes=" << crashes
     << " recoveries=" << r.stats.recoveries << " after " << r.stats.steps
     << " steps, wrote " << seq::to_string(r.output);
  return os.str();
}

sim::EngineConfig trial_engine() {
  sim::EngineConfig cfg;
  cfg.max_steps = 300000;
  cfg.stall_window = 4000;
  // Compact aggressively so the stale-snapshot trials actually have a
  // previous snapshot generation to roll back to.
  cfg.compact_every = 4;
  return cfg;
}

}  // namespace

fault::FaultPlan recovery_plan(fault::FaultKind kind, sim::Proc proc,
                               bool biting, bool writes_can_batch) {
  STPX_EXPECT(fault::is_store_fault(kind),
              "recovery_plan: not a storage-fault kind");
  // Biting lines the damage up with the newest record at the crash; a torn
  // write needs the crash one write later so the truncated append has
  // happened (and IS the newest record) when recovery runs.  Superseded
  // placement fires the fault early and crashes later: the engine persists
  // on every durable change, so any intact append between the fault and the
  // crash makes the newest record equal the live durable state again and
  // recovery is exact.  The superseded torn write is the delicate one: the
  // truncated record is the first durable change *after* arming, and
  // ack-gated stop-and-wait senders only append their (k+1)-th advance once
  // write k+2 is in sight — so their crash waits until @writes 3.  Write-
  // batching protocols never expose y == 3 to a tick (the final flush jumps
  // past it), but their processes append on sub-write cadence, so @writes 2
  // already sits past an intact record.
  const std::uint64_t fault_at =
      biting ? 2 : (kind == fault::FaultKind::kTornWrite ? 0 : 1);
  std::uint64_t crash_at = 2;
  if (kind == fault::FaultKind::kTornWrite)
    crash_at = biting ? 3 : (writes_can_batch ? 2 : 3);
  fault::FaultPlan plan;
  fault::FaultAction f;
  f.kind = kind;
  f.trigger = {fault::TriggerKind::kWrites, fault_at};
  f.proc = proc;
  if (kind == fault::FaultKind::kLoseTail) f.count = 1;
  plan.actions.push_back(f);
  fault::FaultAction crash;
  crash.kind = proc == sim::Proc::kSender ? fault::FaultKind::kCrashSender
                                          : fault::FaultKind::kCrashReceiver;
  crash.trigger = {fault::TriggerKind::kWrites, crash_at};
  plan.actions.push_back(crash);
  return plan;
}

MatrixReport recovery_sweep(const std::vector<RecoveryCase>& cases,
                            std::uint64_t seed) {
  Matrix<RecoveryCase> m;
  m.kinds = kStoreFaults;
  m.plan = [](const RecoveryCase& c, fault::FaultKind kind, sim::Proc proc) {
    return recovery_plan(kind, proc, biting(c, kind, proc),
                         c.writes_can_batch);
  };
  m.run = run_with_fresh_stores;
  m.judge = judge;
  return run_matrix(cases, m, seed);
}

std::vector<RecoveryCase> default_recovery_cases() {
  std::vector<RecoveryCase> cases;
  for (ProtocolCase& p : suite_roster(trial_engine())) {
    cases.push_back({std::move(p)});
  }
  // Bounded-header senders (abp, modk, block, hybrid) cannot tolerate a
  // rewound checkpoint: the re-sent item reuses a header bit / seqno residue
  // the receiver has already cycled past, and the alias is accepted as the
  // *next* item — a wrong write (see the Hazard tests and docs/RECOVERY.md).
  // Their unbounded-seqno and content-addressed peers rewind safely.
  for (const char* name : {"abp", "modk-stenning", "block", "hybrid"}) {
    case_named(cases, name).sender_rewind_safe = false;
  }
  // The repfree-del sender cannot tolerate a rewound checkpoint: it would
  // re-send an already-acked item the receiver's seen_ set silently eats,
  // and no future ack names it (the W = a+1 stall; see docs/RECOVERY.md).
  case_named(cases, "repfree-del").sender_rewind_safe = false;
  // Sync stop-and-wait has no headers, so NEITHER side can dedup a rewound
  // stream — exact restore works, rewinds are the documented hazard.
  RecoveryCase& sync = case_named(cases, "sync-stop-wait");
  sync.sender_rewind_safe = false;
  sync.receiver_rewind_safe = false;
  sync.writes_can_batch = true;  // verdict-gated flushes batch writes
  return cases;
}

}  // namespace stpx::stp
