// Tests for the self-stabilization layer: the corruption-fault grammar and
// sampler, the hardened protocol's three integrity defenses, the engine's
// suffix-safety convergence criterion, checkpoint round-trip fidelity for
// the whole suite, failure dedup, and the protocol x corruption x process
// conformance matrix.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "channel/dup_channel.hpp"
#include "channel/schedulers.hpp"
#include "channel/sync_channel.hpp"
#include "fault/plan.hpp"
#include "proto/hardened.hpp"
#include "proto/suite.hpp"
#include "stp/conformance.hpp"
#include "stp/soak.hpp"
#include "stp/stabilization.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------- grammar --

namespace stpx::fault {
namespace {

TEST(CorruptionGrammar, ParsesAllThreeOps) {
  const auto plan = plan_from_text(
      "corrupt-payload @step 5 dir SR count 21 match *\n"
      "forge-message @writes 2 dir RS count 3 match 4\n"
      "scramble-state @sends 7 proc receiver count 99\n");
  ASSERT_EQ(plan.actions.size(), 3u);

  EXPECT_EQ(plan.actions[0].kind, FaultKind::kCorruptPayload);
  EXPECT_EQ(plan.actions[0].trigger.kind, TriggerKind::kStep);
  EXPECT_EQ(plan.actions[0].dir, sim::Dir::kSenderToReceiver);
  EXPECT_EQ(plan.actions[0].count, 21u);
  EXPECT_EQ(plan.actions[0].match, kAnyMsg);

  EXPECT_EQ(plan.actions[1].kind, FaultKind::kForgeMessage);
  EXPECT_EQ(plan.actions[1].trigger.kind, TriggerKind::kWrites);
  EXPECT_EQ(plan.actions[1].dir, sim::Dir::kReceiverToSender);
  EXPECT_EQ(plan.actions[1].match, 4);

  EXPECT_EQ(plan.actions[2].kind, FaultKind::kScrambleState);
  EXPECT_EQ(plan.actions[2].proc, sim::Proc::kReceiver);
  EXPECT_EQ(plan.actions[2].count, 99u);
}

TEST(CorruptionGrammar, TextRoundTripIsStable) {
  const std::string text =
      "corrupt-payload @step 5 dir SR count 21 match *\n"
      "forge-message @writes 2 dir RS count 3 match 4\n"
      "scramble-state @sends 7 proc receiver count 99\n";
  const std::string once = to_text(plan_from_text(text));
  EXPECT_EQ(once, text);
  EXPECT_EQ(to_text(plan_from_text(once)), once);
}

TEST(CorruptionGrammar, KindPredicates) {
  for (FaultKind k : {FaultKind::kCorruptPayload, FaultKind::kForgeMessage,
                      FaultKind::kScrambleState}) {
    EXPECT_TRUE(is_corruption_fault(k)) << to_cstr(k);
    EXPECT_FALSE(is_store_fault(k)) << to_cstr(k);
  }
  EXPECT_FALSE(is_corruption_fault(FaultKind::kDropBurst));
  EXPECT_FALSE(is_corruption_fault(FaultKind::kTornWrite));
}

TEST(CorruptionSampler, DisabledByDefault) {
  // Corruption faults are opt-in: the default sampler menu must never
  // produce them (r1 soak baselines would silently change otherwise).
  Rng rng(7);
  SamplerConfig cfg;
  for (int i = 0; i < 200; ++i) {
    for (const FaultAction& a : sample_plan(rng, cfg).actions) {
      EXPECT_FALSE(is_corruption_fault(a.kind)) << to_cstr(a.kind);
    }
  }
}

TEST(CorruptionSampler, EnabledKindsAppearAndAreWellFormed) {
  Rng rng(11);
  SamplerConfig cfg;
  cfg.allow_drop = false;
  cfg.allow_dup = false;
  cfg.allow_blackout = false;
  cfg.allow_freeze = false;
  cfg.allow_corrupt_payload = true;
  cfg.allow_forge_message = true;
  cfg.allow_scramble_state = true;
  std::set<FaultKind> seen;
  for (int i = 0; i < 200; ++i) {
    for (const FaultAction& a : sample_plan(rng, cfg).actions) {
      ASSERT_TRUE(is_corruption_fault(a.kind)) << to_cstr(a.kind);
      seen.insert(a.kind);
      if (a.kind == FaultKind::kCorruptPayload) {
        // XOR mask: nonzero and bounded, so the mangled id stays plausible.
        EXPECT_GE(a.count, 1u);
        EXPECT_LE(a.count, cfg.max_xor_mask);
      }
      if (a.kind == FaultKind::kForgeMessage) {
        // A forge must name the lie (no wildcard) so plans replay exactly.
        EXPECT_NE(a.match, kAnyMsg);
        EXPECT_GE(a.match, 0);
        EXPECT_LT(a.match, static_cast<sim::MsgId>(cfg.max_forge_id));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u);  // every enabled kind was actually sampled
}

}  // namespace
}  // namespace stpx::fault

// --------------------------------------------------------------- hardened --

namespace stpx::proto {
namespace {

TEST(Hardened, SealedBlobRoundTripAndTamperDetection) {
  const std::string payload = "190 3 0 1 2";
  const std::string blob = hardened_seal_blob(payload);
  std::string out;
  ASSERT_TRUE(hardened_unseal_blob(blob, out));
  EXPECT_EQ(out, payload);

  // Any single-character tamper (the scramble model mutates whole tokens,
  // a strictly larger change) must be caught by the blob hash.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = bad[i] == '7' ? '8' : '7';
    if (bad == blob) continue;
    EXPECT_FALSE(hardened_unseal_blob(bad, out)) << "tamper at " << i;
  }
  EXPECT_FALSE(hardened_unseal_blob(payload, out));  // hash token missing
  EXPECT_FALSE(hardened_unseal_blob("", out));
}

TEST(Hardened, ReceiverShedsMangledAndForgedIds) {
  HardenedSender s(6);
  HardenedReceiver r(6);
  s.start(seq::Sequence{0, 1, 2});
  r.start();

  const auto eff = s.on_step();
  ASSERT_TRUE(eff.send.has_value());
  const sim::MsgId genuine = *eff.send;

  // A flipped bit fails the checksum: dropped, counted, nothing written.
  r.on_deliver(genuine ^ 21);
  EXPECT_EQ(r.rejected(), 1u);
  EXPECT_TRUE(r.on_step().writes.empty());

  // A forged small id (the stabilization plan's lie) is equally shed.
  r.on_deliver(4);
  EXPECT_EQ(r.rejected(), 2u);
  EXPECT_TRUE(r.on_step().writes.empty());

  // The genuine copy still lands.
  r.on_deliver(genuine);
  const auto w = r.on_step().writes;
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 0);
}

TEST(Hardened, SenderShedsForgedAcks) {
  HardenedSender s(6);
  s.start(seq::Sequence{0, 1, 2});
  (void)s.on_step();
  EXPECT_EQ(s.acked(), 0u);
  s.on_deliver(4);  // forged "ack" without the salt
  EXPECT_EQ(s.rejected(), 1u);
  EXPECT_EQ(s.acked(), 0u);  // the cursor did not move
}

TEST(Hardened, ScrambledCheckpointIsRejected) {
  HardenedSender s(6);
  s.start(seq::Sequence{0, 1, 2});
  HardenedReceiver r(6);
  r.start();

  // Token-level mutations of a sealed checkpoint (what scramble-state
  // produces) must be rejected with the live state untouched.
  const std::string sblob = s.save_state();
  EXPECT_FALSE(s.restore_state("191 9 " + sblob));
  EXPECT_FALSE(s.restore_state(sblob + " 7"));
  std::string mutated = sblob;
  mutated[0] = mutated[0] == '1' ? '2' : '1';
  EXPECT_FALSE(s.restore_state(mutated));
  EXPECT_EQ(s.save_state(), sblob);  // live state survived every attempt

  const std::string rblob = r.save_state();
  std::string rmut = rblob;
  rmut[rmut.size() / 2] = rmut[rmut.size() / 2] == '3' ? '4' : '3';
  EXPECT_FALSE(r.restore_state(rmut, seq::Sequence{}));
  EXPECT_EQ(r.epoch(), 0u);  // a failed restore does not announce a restart
}

TEST(Hardened, EpochResyncWalksTheSenderBack) {
  // Lockstep a short transfer, then restore the receiver from its own
  // checkpoint: the restore bumps the epoch, the next ack carries it, and
  // the sender adopts the receiver's frontier outright.
  HardenedSender s(6);
  HardenedReceiver r(6);
  const seq::Sequence x{0, 1, 2, 3};
  s.start(x);
  r.start();
  seq::Sequence tape;
  for (int i = 0; i < 12 && s.acked() < 2; ++i) {
    const auto se = s.on_step();
    if (se.send) r.on_deliver(*se.send);
    const auto re = r.on_step();
    for (seq::DataItem d : re.writes) tape.push_back(d);
    if (re.send) s.on_deliver(*re.send);
  }
  ASSERT_GE(s.acked(), 2u);
  ASSERT_EQ(s.epoch(), 0u);

  ASSERT_TRUE(r.restore_state(r.save_state(), tape));
  EXPECT_EQ(r.epoch(), 1u);  // a successful restore announces the restart

  const auto ack = r.on_step();
  ASSERT_TRUE(ack.send.has_value());
  s.on_deliver(*ack.send);
  EXPECT_EQ(s.epoch(), 1u);  // the sender resynced to the new epoch
}

// ------------------------------------- checkpoint round-trip (suite-wide) --

TEST(CheckpointRoundTrip, SaveRestoreSaveIsByteIdenticalSuiteWide) {
  // The scramble layer compares checkpoints textually, and the recovery
  // layer re-baselines from save_state() after every restore — both depend
  // on restore_state(save_state()) being a byte-identical fixed point, on a
  // fresh instance, for every protocol and both processes.  Exercised on a
  // mid-run state so non-trivial fields (windows, buffers, seen-sets) are
  // actually populated.
  for (const stp::ProtocolCase& e : stp::suite_roster({})) {
    // The headerless lockstep protocol takes its delivery verdicts from the
    // channel, so the pump acks its sends by hand.
    const bool sync = e.name == "sync-stop-wait";
    ProtocolPair live = e.spec.protocols();
    live.sender->start(e.input);
    live.receiver->start();
    seq::Sequence tape;
    for (int i = 0; i < 10; ++i) {
      const auto se = live.sender->on_step();
      if (se.send) live.receiver->on_deliver(*se.send);
      const auto re = live.receiver->on_step();
      for (seq::DataItem d : re.writes) tape.push_back(d);
      if (re.send) live.sender->on_deliver(*re.send);
      if (sync && se.send) live.sender->on_deliver(channel::kSyncAck);
    }
    EXPECT_FALSE(tape.empty()) << e.name << ": pump made no progress";

    const std::string sblob = live.sender->save_state();
    const std::string rblob = live.receiver->save_state();

    ProtocolPair fresh = e.spec.protocols();
    fresh.sender->start(e.input);
    fresh.receiver->start();
    ASSERT_TRUE(fresh.sender->restore_state(sblob)) << e.name;
    EXPECT_EQ(fresh.sender->save_state(), sblob) << e.name;
    ASSERT_TRUE(fresh.receiver->restore_state(rblob, tape)) << e.name;
    EXPECT_EQ(fresh.receiver->save_state(), rblob) << e.name;
  }
}

TEST(CheckpointRoundTrip, HardenedReceiverDiffersOnlyInEpoch) {
  // The hardened receiver deliberately breaks the fixed point: a successful
  // restore bumps the epoch (that IS the resync signal), so the post-restore
  // checkpoint differs from the restored one — but only in the epoch.
  ProtocolPair live = make_hardened(6);
  live.sender->start(seq::Sequence{0, 1, 2});
  live.receiver->start();

  const std::string sblob = live.sender->save_state();
  ASSERT_TRUE(live.sender->restore_state(sblob));
  EXPECT_EQ(live.sender->save_state(), sblob);  // the sender IS a fixed point

  auto* r = dynamic_cast<HardenedReceiver*>(live.receiver.get());
  ASSERT_NE(r, nullptr);
  const std::string before = r->save_state();
  ASSERT_TRUE(r->restore_state(before, seq::Sequence{}));
  EXPECT_EQ(r->epoch(), 1u);
  EXPECT_NE(r->save_state(), before);
  ASSERT_TRUE(r->restore_state(r->save_state(), seq::Sequence{}));
  EXPECT_EQ(r->epoch(), 2u);
}

}  // namespace
}  // namespace stpx::proto

// ---------------------------------------------- convergence + conformance --

namespace stpx::stp {
namespace {

SystemSpec repfree_dup_spec() {
  SystemSpec spec;
  spec.protocols = [] { return proto::make_repfree_dup(6); };
  spec.channel = [](std::uint64_t) {
    return std::make_unique<channel::DupChannel>();
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 60000;
  spec.engine.stall_window = 6000;
  spec.engine.convergence_window = 2;
  return spec;
}

TEST(Convergence, CleanRunCompletesWithoutCorruptionBookkeeping) {
  // The chaos decorator with an empty plan is transparent: no corruptions,
  // no scrambles, plain completion (converged == completed for clean runs).
  const auto r = run_one(with_chaos(repfree_dup_spec(), fault::FaultPlan{}),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_EQ(r.stats.corruptions, 0u);
  EXPECT_EQ(r.stats.scrambles_applied + r.stats.scrambles_rejected, 0u);
  EXPECT_TRUE(r.converged);
}

TEST(Convergence, ForgedMessageDivergesTheTrustingProtocol) {
  // The bench's exhibit 1, pinned as a test: one forged in-alphabet id
  // toward repfree-dup's receiver is believed (content IS the header),
  // written out of order, and the suffix-safety criterion rejects the run.
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const auto r = run_one(with_chaos(repfree_dup_spec(), plan),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStabilizationViolation);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.stats.corruptions, 1u);
}

TEST(Convergence, SameLieIsInvisibleToTheHardenedProtocol) {
  auto spec = repfree_dup_spec();
  spec.protocols = [] { return proto::make_hardened(6); };
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const auto r = run_one(with_chaos(spec, plan),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.stats.corruptions, 1u);  // the fault fired; it was just shed
}

TEST(Convergence, LegacyWindowZeroHaltsAtTheViolation) {
  // convergence_window = 0 keeps the pre-stabilization contract: the first
  // bad write ends the run as a (post-corruption) stabilization violation
  // rather than opening a recovery window.
  auto spec = repfree_dup_spec();
  spec.engine.convergence_window = 0;
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const auto r = run_one(with_chaos(spec, plan),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStabilizationViolation);
  EXPECT_FALSE(r.safety_ok);
}

TEST(Conformance, StabilizationPlanShape) {
  const auto plan = stabilization_plan(fault::FaultKind::kScrambleState,
                                       sim::Proc::kSender);
  ASSERT_EQ(plan.actions.size(), 1u);
  EXPECT_EQ(plan.actions[0].kind, fault::FaultKind::kScrambleState);
  EXPECT_EQ(plan.actions[0].trigger.kind, fault::TriggerKind::kWrites);
  EXPECT_EQ(plan.actions[0].trigger.at, 2u);
  EXPECT_EQ(plan.actions[0].proc, sim::Proc::kSender);
  // Only corruption-fault kinds are accepted.
  EXPECT_THROW(
      stabilization_plan(fault::FaultKind::kDropBurst, sim::Proc::kSender),
      ContractError);
}

/// Every trial of the default matrix at seed 2026, in sweep order, one
/// line per (protocol, fault): "protocol fault", then the verdict and step
/// count of the sender-targeted trial, then of the receiver-targeted one.
/// The step counts pin the schedules: a harness change that reorders cells
/// or perturbs a run's interleaving fails here even when every verdict
/// stays the same.
const char* const kStabilizationMatrixGolden[] = {
    "hardened corrupt-payload completed 101 completed 100",
    "hardened forge-message completed 140 completed 144",
    "hardened scramble-state completed 102 completed 102",
    "stenning corrupt-payload completed 82 completed 72",
    "stenning forge-message completed 101 completed 101",
    "stenning scramble-state completed 103 completed 80",
    "abp corrupt-payload completed 83 completed 83",
    "abp forge-message completed 83 completed 68",
    "abp scramble-state completed 114 completed 57",
    "modk-stenning corrupt-payload completed 97 completed 91",
    "modk-stenning forge-message completed 135 completed 111",
    "modk-stenning scramble-state stalled 4026 completed 80",
    "repfree-dup corrupt-payload completed 187 completed 189",
    "repfree-dup forge-message stabilization-violation 4146 "
    "stabilization-violation 4138",
    "repfree-dup scramble-state completed 192 completed 192",
    "repfree-del corrupt-payload completed 79 completed 79",
    "repfree-del forge-message completed 65 stabilization-violation 4040",
    "repfree-del scramble-state stalled 4012 completed 67",
    "go-back-n corrupt-payload stalled 4013 completed 49",
    "go-back-n forge-message stalled 4013 completed 42",
    "go-back-n scramble-state completed 52 completed 44",
    "selective-repeat corrupt-payload completed 65 completed 38",
    "selective-repeat forge-message stalled 4051 completed 59",
    "selective-repeat scramble-state completed 39 completed 61",
    "block corrupt-payload completed 27 completed 27",
    "block forge-message completed 27 completed 26",
    "block scramble-state completed 27 completed 27",
    "hybrid corrupt-payload completed 197 completed 194",
    "hybrid forge-message completed 49 completed 47",
    "hybrid scramble-state completed 50 completed 42",
    "encoded-knowledge corrupt-payload completed 187 completed 189",
    "encoded-knowledge forge-message stalled 4091 stalled 4028",
    "encoded-knowledge scramble-state completed 192 stalled 4028",
    "sync-stop-wait corrupt-payload completed 34 completed 32",
    "sync-stop-wait forge-message completed 36 completed 41",
    "sync-stop-wait scramble-state stalled 4011 completed 25",
};

TEST(Conformance, MatrixLandsOnItsPins) {
  // The headline acceptance test: every protocol in the suite x all three
  // corruption kinds x both target processes, each cell's verdict matching
  // its documented pin (docs/STABILIZATION.md).
  const auto cases = default_stabilization_cases();
  ASSERT_GE(cases.size(), 12u);  // hardened + the 11-protocol suite
  const MatrixReport report = stabilization_sweep(cases, 2026);
  EXPECT_EQ(report.trials.size(),
            cases.size() * kCorruptionKindCount * 2);
  for (const auto& t : report.trials)
    if (!t.detail.empty()) ADD_FAILURE() << t.detail;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.passed, report.trials.size());
  ASSERT_EQ(report.trials.size(), 2 * std::size(kStabilizationMatrixGolden));
  auto cell = [](const MatrixTrial& t) {
    return std::string(sim::to_cstr(t.verdict)) + " " +
           std::to_string(t.stats.steps);
  };
  for (std::size_t i = 0; i < std::size(kStabilizationMatrixGolden); ++i) {
    const MatrixTrial& s = report.trials[2 * i];
    const MatrixTrial& r = report.trials[2 * i + 1];
    ASSERT_EQ(s.proc, sim::Proc::kSender);
    ASSERT_EQ(r.proc, sim::Proc::kReceiver);
    ASSERT_EQ(r.protocol + fault::to_cstr(r.fault),
              s.protocol + fault::to_cstr(s.fault));
    EXPECT_EQ(s.protocol + " " + fault::to_cstr(s.fault) + " " + cell(s) +
                  " " + cell(r),
              kStabilizationMatrixGolden[i])
        << "row " << i;
  }
}

TEST(Conformance, HardenedCompletesEveryCellWithTheFaultActuallyFiring) {
  const auto cases = default_stabilization_cases();
  const MatrixReport report = stabilization_sweep(cases, 2026);
  std::size_t hardened_cells = 0;
  for (const auto& t : report.trials) {
    if (t.protocol != "hardened") continue;
    ++hardened_cells;
    EXPECT_EQ(t.verdict, sim::RunVerdict::kCompleted)
        << fault::to_cstr(t.fault) << " proc " << sim::to_cstr(t.proc);
    // Re-converging past a fault that never fired proves nothing: every
    // cell must have seen its corruption (scramble cells via the sealed
    // checkpoint rejecting the blob).
    if (t.fault == fault::FaultKind::kScrambleState) {
      EXPECT_GE(t.stats.scrambles_applied + t.stats.scrambles_rejected, 1u);
      EXPECT_EQ(t.stats.scrambles_applied, 0u);  // the seal held every time
    } else {
      EXPECT_GE(t.stats.corruptions, 1u);
    }
  }
  EXPECT_EQ(hardened_cells, kCorruptionKindCount * 2);
}

TEST(Dedup, RepeatedForgeriesCollapseToOneCounterexample) {
  // Three failing trials, same lie under different seeds: minimization must
  // land on the same 1-minimal plan and dedup must report it once with its
  // multiplicity.
  const auto spec = repfree_dup_spec();
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const seq::Sequence x{0, 1, 2, 3, 4, 5};
  std::vector<SoakFailure> failures;
  for (std::uint64_t seed : {2026u, 2027u, 2028u}) {
    const auto r = run_one(with_chaos(spec, plan), x, seed);
    if (r.verdict != sim::RunVerdict::kStabilizationViolation) continue;
    SoakFailure f;
    f.protocol = "repfree-dup";
    f.input = x;
    f.seed = seed;
    f.plan = plan;
    f.verdict = r.verdict;
    failures.push_back(std::move(f));
  }
  ASSERT_GE(failures.size(), 2u);  // the lie is not schedule-luck
  const auto deduped = dedup_failures(spec, failures);
  ASSERT_EQ(deduped.size(), 1u);
  EXPECT_EQ(deduped[0].occurrences, failures.size());
  EXPECT_EQ(deduped[0].verdict, sim::RunVerdict::kStabilizationViolation);
  // 1-minimal: the single forge action cannot shrink further.
  EXPECT_EQ(deduped[0].minimized.actions.size(), 1u);
}

}  // namespace
}  // namespace stpx::stp
