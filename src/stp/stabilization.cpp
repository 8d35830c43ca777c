#include "stp/stabilization.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "channel/del_channel.hpp"
#include "proto/suite.hpp"
#include "util/expect.hpp"

namespace stpx::stp {

namespace {

sim::EngineConfig trial_engine() {
  sim::EngineConfig cfg;
  cfg.max_steps = 300000;
  cfg.stall_window = 4000;
  // Suffix-safety convergence: after the last corruption, the output must
  // become a correct continuation within two items (one mis-written item
  // plus the slack of a protocol that re-sends the damaged position).
  cfg.convergence_window = 2;
  return cfg;
}

std::size_t kind_index(fault::FaultKind kind) {
  for (std::size_t i = 0; i < kCorruptionKindCount; ++i) {
    if (kCorruptionKinds[i] == kind) return i;
  }
  STPX_EXPECT(false, "kind_index: not a corruption kind");
  return 0;  // unreachable
}

std::string judge(const StabilizationCase& c, fault::FaultKind kind,
                  sim::Proc proc, const sim::RunResult& r) {
  const sim::RunVerdict expected =
      c.expected[kind_index(kind)][proc == sim::Proc::kSender ? 0 : 1];
  if (r.verdict == expected) return {};
  std::ostringstream os;
  os << c.name << " x " << fault::to_cstr(kind) << " proc "
     << sim::to_cstr(proc) << " -> " << sim::to_cstr(r.verdict)
     << " (pinned " << sim::to_cstr(expected) << ") corruptions="
     << r.stats.corruptions << " scrambles=" << r.stats.scrambles_applied
     << "/" << r.stats.scrambles_rejected << " after " << r.stats.steps
     << " steps, wrote " << seq::to_string(r.output) << " of "
     << seq::to_string(r.input);
  return os.str();
}

}  // namespace

fault::FaultPlan stabilization_plan(fault::FaultKind kind, sim::Proc proc) {
  STPX_EXPECT(fault::is_corruption_fault(kind),
              "stabilization_plan: not a corruption-fault kind");
  fault::FaultAction a;
  a.kind = kind;
  // Arm once two items are on the tape: there is a correct prefix to
  // diverge from, and every protocol still has traffic in flight.
  a.trigger = {fault::TriggerKind::kWrites, 2};
  switch (kind) {
    case fault::FaultKind::kCorruptPayload:
      // Mangle a message the target is about to receive.
      a.dir = proc == sim::Proc::kReceiver ? sim::Dir::kSenderToReceiver
                                           : sim::Dir::kReceiverToSender;
      a.count = 21;  // the XOR mask: flips item bits and survives masking
      break;
    case fault::FaultKind::kForgeMessage:
      a.dir = proc == sim::Proc::kReceiver ? sim::Dir::kSenderToReceiver
                                           : sim::Dir::kReceiverToSender;
      a.match = 4;  // a plausible small id: in-alphabet for most protocols
      a.count = 2;  // two copies, so a dropped first copy still lands
      break;
    case fault::FaultKind::kScrambleState:
      a.proc = proc;
      a.count = 0xB0A710ADULL;  // the scramble salt (fixed => deterministic)
      break;
    default: break;  // unreachable (guarded above)
  }
  fault::FaultPlan plan;
  plan.actions.push_back(a);
  return plan;
}

MatrixReport stabilization_sweep(const std::vector<StabilizationCase>& cases,
                                 std::uint64_t seed) {
  Matrix<StabilizationCase> m;
  m.kinds = kCorruptionKinds;
  m.plan = [](const StabilizationCase&, fault::FaultKind kind,
              sim::Proc proc) { return stabilization_plan(kind, proc); };
  m.judge = judge;
  return run_matrix(cases, m, seed);
}

std::vector<StabilizationCase> default_stabilization_cases() {
  std::vector<StabilizationCase> cases;
  for (ProtocolCase& p : suite_roster(trial_engine())) {
    cases.push_back({std::move(p)});
  }
  // ---- the hardened protocol, first row: pinned kCompleted in every cell
  // (the pin matrix default).  Checksummed ids shed corrupt/forged traffic
  // and the sealed checkpoint rejects scrambles, so every cell
  // re-converges.
  // It takes the roster's scheduler and engine from its first entry.
  StabilizationCase hardened{
      {"hardened", cases.front().spec, seq::Sequence{0, 1, 2, 3, 4, 5}}};
  hardened.spec.protocols = [] { return proto::make_hardened(6); };
  hardened.spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.2, seed);
  };
  cases.insert(cases.begin(), std::move(hardened));

  // ---- the un-hardened suite.  Pins record the *measured*, deterministic
  // outcome of each cell (seed 2026; see docs/STABILIZATION.md for the
  // per-protocol analysis); stenning, abp, block and hybrid re-converge in
  // every cell.  A pin lists one {sender, receiver} pair per row of
  // kCorruptionKinds: corrupt-payload, forge-message, scramble-state.
  constexpr sim::RunVerdict kOk = sim::RunVerdict::kCompleted;
  constexpr sim::RunVerdict kStall = sim::RunVerdict::kStalled;
  constexpr sim::RunVerdict kDiverge = sim::RunVerdict::kStabilizationViolation;
  auto pin = [&](std::string_view name,
                 const sim::RunVerdict (&cells)[kCorruptionKindCount][2]) {
    StabilizationCase& c = case_named(cases, name);
    for (std::size_t k = 0; k < kCorruptionKindCount; ++k) {
      for (std::size_t p = 0; p < 2; ++p) c.expected[k][p] = cells[k][p];
    }
  };
  // A scrambled sender cursor jumps past the receiver's frontier; with only
  // mod-K tags there is no cumulative ack to walk it back: livelock.
  pin("modk-stenning", {{kOk, kOk}, {kOk, kOk}, {kStall, kOk}});
  // Content IS the header here, so a forged in-alphabet id is believed on
  // either side: the receiver writes it out of order, the sender takes it
  // as a premature ack — both diverge past the convergence window.
  pin("repfree-dup", {{kOk, kOk}, {kDiverge, kDiverge}, {kOk, kOk}});
  // Same forged-ack hazard as repfree-dup on the receiver side; a scrambled
  // sender cursor additionally livelocks (the W = a+1 stall of
  // docs/RECOVERY.md, reached by corruption instead of a rewind).
  pin("repfree-del", {{kOk, kOk}, {kOk, kDiverge}, {kStall, kOk}});
  // The cumulative ack is trusted verbatim: a mangled or forged ack larger
  // than the frontier fast-forwards the sender past items the receiver
  // never saw, and nothing ever walks it back.
  pin("go-back-n", {{kStall, kOk}, {kStall, kOk}, {kOk, kOk}});
  // A forged per-item ack marks an unsent item as delivered; the sender
  // never retransmits it and the receiver waits forever.
  pin("selective-repeat", {{kOk, kOk}, {kStall, kOk}, {kOk, kOk}});
  // A forged word symbol poisons the prefix-trie decode on either side (the
  // send-once sender waits for an ack that never matches, the receiver's
  // candidate set goes empty); a scrambled receiver loses received_ and the
  // send-once sender never re-sends.
  pin("encoded-knowledge", {{kOk, kOk}, {kStall, kStall}, {kOk, kStall}});
  // A scrambled sender cursor desynchronizes the headerless lockstep; the
  // receiver cannot name what it is missing, so the run livelocks.
  pin("sync-stop-wait", {{kOk, kOk}, {kOk, kOk}, {kStall, kOk}});
  return cases;
}

}  // namespace stpx::stp
