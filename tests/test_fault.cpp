// Tests for the fault subsystem: FaultPlan serialization and sampling, the
// ChaosChannel decorator (IChannel conformance + each fault kind), engine
// crash-restart, the livelock watchdog, and plan minimization.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/dupdel_channel.hpp"
#include "channel/fifo_channel.hpp"
#include "channel/schedulers.hpp"
#include "fault/chaos_channel.hpp"
#include "fault/plan.hpp"
#include "stp/fault.hpp"
#include "stp/soak.hpp"
#include "store/stable_store.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace stpx::fault {
namespace {

using sim::Dir;

// ------------------------------------------------------------------ plans --

TEST(FaultPlan, TextRoundTrip) {
  FaultPlan plan;
  plan.actions.push_back({.kind = FaultKind::kDropBurst,
                          .trigger = {TriggerKind::kStep, 120},
                          .dir = Dir::kSenderToReceiver,
                          .count = 3});
  plan.actions.push_back({.kind = FaultKind::kDupBurst,
                          .trigger = {TriggerKind::kWrites, 2},
                          .dir = Dir::kReceiverToSender,
                          .count = 4,
                          .match = sim::MsgId{1}});
  plan.actions.push_back({.kind = FaultKind::kBlackout,
                          .trigger = {TriggerKind::kSends, 10},
                          .dir = Dir::kSenderToReceiver,
                          .duration = 200});
  plan.actions.push_back({.kind = FaultKind::kFreeze,
                          .trigger = {TriggerKind::kStep, 50},
                          .dir = Dir::kReceiverToSender,
                          .duration = 100});
  plan.actions.push_back({.kind = FaultKind::kCapInFlight,
                          .trigger = {TriggerKind::kStep, 0},
                          .dir = Dir::kSenderToReceiver,
                          .count = 2});
  plan.actions.push_back(
      {.kind = FaultKind::kCrashSender, .trigger = {TriggerKind::kWrites, 3}});
  plan.actions.push_back(
      {.kind = FaultKind::kCrashReceiver, .trigger = {TriggerKind::kStep, 500}});
  plan.actions.push_back({.kind = FaultKind::kTornWrite,
                          .trigger = {TriggerKind::kWrites, 2},
                          .proc = sim::Proc::kReceiver});
  plan.actions.push_back({.kind = FaultKind::kLoseTail,
                          .trigger = {TriggerKind::kWrites, 3},
                          .proc = sim::Proc::kSender,
                          .count = 1});
  plan.actions.push_back({.kind = FaultKind::kCorruptRecord,
                          .trigger = {TriggerKind::kStep, 40},
                          .proc = sim::Proc::kReceiver});
  plan.actions.push_back({.kind = FaultKind::kStaleSnapshot,
                          .trigger = {TriggerKind::kSends, 8},
                          .proc = sim::Proc::kSender});

  const std::string text = to_text(plan);
  EXPECT_EQ(plan_from_text(text), plan) << text;
}

TEST(FaultPlan, ParserRejectsGarbage) {
  EXPECT_THROW(plan_from_text("explode @step 3"), ContractError);
  EXPECT_THROW(plan_from_text("drop step 3"), ContractError);
  EXPECT_THROW(plan_from_text("drop @sometime 3"), ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3 dir XX"), ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3 wibble 4"), ContractError);
  EXPECT_THROW(plan_from_text("torn-write @step 3 proc nobody"), ContractError);
  // Every number is read whole and range-checked: no wrap-around of a
  // negative, no out-of-range value, no trailing characters.
  EXPECT_THROW(plan_from_text("drop @step -1 dir SR count 1 match *"),
               ContractError);
  EXPECT_THROW(plan_from_text("drop @step 99999999999999999999"),
               ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3x"), ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3 count -2"), ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3 count"), ContractError);
  EXPECT_THROW(plan_from_text("blackout @step 3 len +4"), ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3 match abc"), ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3 match 1x"), ContractError);
  EXPECT_THROW(plan_from_text("drop @step 3 match 99999999999999999999"),
               ContractError);
  EXPECT_EQ(plan_from_text("drop @step 3 match 7").actions[0].match, 7);
}

TEST(FaultPlan, ParserSkipsCommentsAndBlanks) {
  const auto plan =
      plan_from_text("# a comment\n\ncrash-sender @writes 1\n");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.actions[0].kind, FaultKind::kCrashSender);
}

TEST(FaultPlan, SamplingIsDeterministicAndRespectsMenu) {
  SamplerConfig cfg;
  cfg.allow_crash_sender = true;
  Rng a(42), b(42);
  EXPECT_EQ(sample_plan(a, cfg), sample_plan(b, cfg));

  SamplerConfig drops_only;
  drops_only.allow_dup = drops_only.allow_blackout = drops_only.allow_freeze =
      false;
  drops_only.min_actions = 3;
  drops_only.max_actions = 5;
  Rng c(7);
  const auto plan = sample_plan(c, drops_only);
  EXPECT_GE(plan.size(), 3u);
  EXPECT_LE(plan.size(), 5u);
  for (const auto& act : plan.actions) {
    EXPECT_EQ(act.kind, FaultKind::kDropBurst);
    EXPECT_GE(act.count, 1u);  // sampled bursts are finite and non-empty
  }
}

// ---------------------------------------------- decorator conformance -----
// The IChannel laws of test_channel_conformance.cpp, re-run through a
// ChaosChannel with an empty plan: decoration must be transparent.

struct WrapCase {
  std::string name;
  std::function<std::unique_ptr<sim::IChannel>()> make_inner;
  bool fifo;
};

std::vector<WrapCase> wrap_cases() {
  using namespace stpx::channel;
  return {
      {"dup", [] { return std::make_unique<DupChannel>(); }, false},
      {"del", [] { return std::make_unique<DelChannel>(); }, false},
      {"dupdel", [] { return std::make_unique<DupDelChannel>(); }, false},
      {"fifo", [] { return std::make_unique<FifoChannel>(); }, true},
  };
}

class ChaosConformance : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::unique_ptr<sim::IChannel> make() {
    return std::make_unique<ChaosChannel>(wrap_cases()[GetParam()].make_inner(),
                                          FaultPlan{});
  }
  bool fifo() const { return wrap_cases()[GetParam()].fifo; }
};

TEST_P(ChaosConformance, FreshAndResetAreEmpty) {
  auto ch = make();
  EXPECT_TRUE(ch->deliverable(Dir::kSenderToReceiver).empty());
  ch->send(Dir::kSenderToReceiver, 1);
  ch->reset();
  EXPECT_TRUE(ch->deliverable(Dir::kSenderToReceiver).empty());
  EXPECT_EQ(ch->copies(Dir::kSenderToReceiver, 1), 0u);
}

TEST_P(ChaosConformance, DeliverableMatchesCopies) {
  auto ch = make();
  ch->send(Dir::kSenderToReceiver, 3);
  ch->send(Dir::kSenderToReceiver, 7);
  const auto list = ch->deliverable(Dir::kSenderToReceiver);
  std::set<sim::MsgId> listed(list.begin(), list.end());
  EXPECT_EQ(listed.size(), list.size());
  for (sim::MsgId id : listed) {
    EXPECT_GT(ch->copies(Dir::kSenderToReceiver, id), 0u);
  }
  if (!fifo()) {
    EXPECT_TRUE(listed.count(3));
    EXPECT_TRUE(listed.count(7));
  } else {
    EXPECT_EQ(list.size(), 1u);
  }
}

TEST_P(ChaosConformance, DeliverDiscipline) {
  auto ch = make();
  EXPECT_THROW(ch->deliver(Dir::kSenderToReceiver, 5), ContractError);
  ch->send(Dir::kSenderToReceiver, 5);
  const auto before = ch->copies(Dir::kSenderToReceiver, 5);
  ASSERT_GT(before, 0u);
  ch->deliver(Dir::kSenderToReceiver, 5);
  EXPECT_LE(ch->copies(Dir::kSenderToReceiver, 5), before);
}

TEST_P(ChaosConformance, DropDiscipline) {
  auto ch = make();
  if (!ch->can_drop()) {
    ch->send(Dir::kSenderToReceiver, 2);
    EXPECT_THROW(ch->drop(Dir::kSenderToReceiver, 2), ContractError);
    return;
  }
  EXPECT_THROW(ch->drop(Dir::kSenderToReceiver, 2), ContractError);
  ch->send(Dir::kSenderToReceiver, 2);
  ch->drop(Dir::kSenderToReceiver, 2);
  EXPECT_EQ(ch->copies(Dir::kSenderToReceiver, 2), 0u);
}

TEST_P(ChaosConformance, CloneIsDeepAndDirectionsIndependent) {
  auto ch = make();
  ch->send(Dir::kSenderToReceiver, 1);
  auto copy = ch->clone();
  copy->send(Dir::kSenderToReceiver, 9);
  EXPECT_EQ(ch->copies(Dir::kSenderToReceiver, 9), 0u);
  EXPECT_EQ(ch->copies(Dir::kReceiverToSender, 1), 0u);
  if (ch->copies(Dir::kSenderToReceiver, 1) > 0) {
    ch->deliver(Dir::kSenderToReceiver, 1);
  }
  EXPECT_GT(copy->copies(Dir::kSenderToReceiver, 1), 0u);
}

TEST_P(ChaosConformance, FuzzMatchesUndecoratedChannel) {
  // Drive a decorated and an undecorated channel through the same random
  // legal operation soup; with an empty plan they must agree exactly.
  auto chaos = make();
  auto plain = wrap_cases()[GetParam()].make_inner();
  Rng rng(17 + GetParam());
  for (int i = 0; i < 2000; ++i) {
    const Dir dir = rng.chance(0.5) ? Dir::kSenderToReceiver
                                    : Dir::kReceiverToSender;
    const int op = static_cast<int>(rng.range(0, 2));
    if (op == 0) {
      const auto id = static_cast<sim::MsgId>(rng.below(6));
      chaos->send(dir, id);
      plain->send(dir, id);
    } else {
      const auto avail = plain->deliverable(dir);
      ASSERT_EQ(chaos->deliverable(dir), avail);
      if (avail.empty()) continue;
      const sim::MsgId id = rng.pick(avail);
      ASSERT_EQ(chaos->copies(dir, id), plain->copies(dir, id));
      if (op == 1) {
        chaos->deliver(dir, id);
        plain->deliver(dir, id);
      } else if (plain->can_drop()) {
        chaos->drop(dir, id);
        plain->drop(dir, id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllInnerChannels, ChaosConformance,
    ::testing::Range<std::size_t>(0, wrap_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return wrap_cases()[info.param].name;
    });

// -------------------------------------------------- fault kinds, unit -----

ChaosChannel make_del_chaos(const std::string& plan_text) {
  return ChaosChannel(std::make_unique<channel::DelChannel>(),
                      plan_from_text(plan_text));
}

TEST(ChaosChannel, DropBurstDeletesMatchingCopies) {
  auto ch = make_del_chaos("drop @step 5 dir SR count 2 match 3\n");
  ch.send(Dir::kSenderToReceiver, 3);
  ch.send(Dir::kSenderToReceiver, 3);
  ch.send(Dir::kSenderToReceiver, 3);
  ch.send(Dir::kSenderToReceiver, 8);
  ch.tick({4, 0});  // before the trigger: nothing happens
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 3), 3u);
  ch.tick({5, 0});
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 3), 1u);  // 2 of 3 dropped
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 8), 1u);  // predicate miss
  EXPECT_EQ(ch.stats().copies_dropped, 2u);
  ch.tick({6, 0});  // fire-once: no further drops
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 3), 1u);
}

TEST(ChaosChannel, DropBurstCountZeroDropsEverything) {
  auto ch = make_del_chaos("drop @step 1 dir SR count 0 match *\n");
  ch.send(Dir::kSenderToReceiver, 1);
  ch.send(Dir::kSenderToReceiver, 2);
  ch.send(Dir::kSenderToReceiver, 2);
  ch.tick({1, 0});
  EXPECT_TRUE(ch.deliverable(Dir::kSenderToReceiver).empty());
  EXPECT_EQ(ch.stats().copies_dropped, 3u);
}

TEST(ChaosChannel, DropBurstIsNoOpOnDupChannel) {
  ChaosChannel ch(std::make_unique<channel::DupChannel>(),
                  plan_from_text("drop @step 0 dir SR count 0 match *\n"));
  ch.send(Dir::kSenderToReceiver, 1);
  ch.tick({3, 0});  // DupChannel forbids deletion; burst must not throw
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 1), 1u);
  EXPECT_EQ(ch.stats().copies_dropped, 0u);
}

TEST(ChaosChannel, DupBurstAmplifiesInFlightCopies) {
  auto ch = make_del_chaos("dup @step 2 dir SR count 5 match *\n");
  ch.send(Dir::kSenderToReceiver, 4);
  ch.tick({2, 0});
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 4), 6u);
  EXPECT_EQ(ch.stats().copies_duplicated, 5u);
}

TEST(ChaosChannel, DupBurstWithNothingInFlightIsNoOp) {
  auto ch = make_del_chaos("dup @step 0 dir SR count 5 match *\n");
  ch.tick({0, 0});
  EXPECT_TRUE(ch.deliverable(Dir::kSenderToReceiver).empty());
  EXPECT_EQ(ch.stats().copies_duplicated, 0u);
}

TEST(ChaosChannel, BlackoutSwallowsSendsForWindow) {
  auto ch = make_del_chaos("blackout @step 10 dir SR len 5 match *\n");
  ch.tick({10, 0});
  ch.send(Dir::kSenderToReceiver, 1);
  ch.send(Dir::kReceiverToSender, 1);  // other direction unaffected
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 1), 0u);
  EXPECT_EQ(ch.copies(Dir::kReceiverToSender, 1), 1u);
  EXPECT_EQ(ch.stats().sends_blacked_out, 1u);
  ch.tick({15, 0});  // window [10, 15) is over
  ch.send(Dir::kSenderToReceiver, 2);
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 2), 1u);
}

TEST(ChaosChannel, FreezeHidesDeliverableForWindow) {
  auto ch = make_del_chaos("freeze @step 3 dir SR len 4\n");
  ch.send(Dir::kSenderToReceiver, 6);
  ch.tick({3, 0});
  EXPECT_TRUE(ch.deliverable(Dir::kSenderToReceiver).empty());
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 6), 0u);
  EXPECT_THROW(ch.deliver(Dir::kSenderToReceiver, 6), ContractError);
  ch.tick({7, 0});  // thawed: the copy was preserved, not deleted
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 6), 1u);
  ch.deliver(Dir::kSenderToReceiver, 6);
}

TEST(ChaosChannel, CapShedsExcessSends) {
  auto ch = make_del_chaos("cap @step 0 dir SR count 2\n");
  ch.tick({0, 0});
  ch.send(Dir::kSenderToReceiver, 1);
  ch.send(Dir::kSenderToReceiver, 2);
  ch.send(Dir::kSenderToReceiver, 3);  // over the cap: shed
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 3), 0u);
  EXPECT_EQ(ch.stats().sends_shed, 1u);
  ch.deliver(Dir::kSenderToReceiver, 1);
  ch.send(Dir::kSenderToReceiver, 3);  // back under the cap
  EXPECT_EQ(ch.copies(Dir::kSenderToReceiver, 3), 1u);
}

TEST(ChaosChannel, WriteAndSendTriggersArm) {
  auto ch = make_del_chaos(
      "crash-sender @writes 2\n"
      "crash-receiver @sends 3\n");
  EXPECT_FALSE(ch.tick({0, 0}).crash_sender);
  EXPECT_FALSE(ch.tick({1, 1}).crash_sender);
  EXPECT_TRUE(ch.tick({2, 2}).crash_sender);   // writes hit 2
  EXPECT_FALSE(ch.tick({3, 5}).crash_sender);  // fire-once
  ch.send(Dir::kSenderToReceiver, 1);
  ch.send(Dir::kSenderToReceiver, 1);
  EXPECT_FALSE(ch.tick({4, 5}).crash_receiver);
  ch.send(Dir::kReceiverToSender, 0);
  EXPECT_TRUE(ch.tick({5, 5}).crash_receiver);  // sends hit 3
  EXPECT_EQ(ch.stats().crashes_requested, 2u);
}

TEST(ChaosChannel, ResetRearmsThePlan) {
  auto ch = make_del_chaos("drop @step 1 dir SR count 0 match *\n");
  ch.send(Dir::kSenderToReceiver, 1);
  ch.tick({1, 0});
  EXPECT_EQ(ch.stats().copies_dropped, 1u);
  ch.reset();
  EXPECT_EQ(ch.stats().copies_dropped, 0u);
  ch.send(Dir::kSenderToReceiver, 2);
  ch.tick({1, 0});  // the same action fires again after reset
  EXPECT_EQ(ch.stats().copies_dropped, 1u);
  EXPECT_TRUE(ch.deliverable(Dir::kSenderToReceiver).empty());
}

}  // namespace
}  // namespace stpx::fault

// ===================================================== engine-level =======

namespace stpx::stp {
namespace {

using sim::Dir;

/// A sender that never sends anything: the canonical livelocked system.
class MuteSender final : public sim::ISender {
 public:
  void start(const seq::Sequence&) override {}
  sim::SenderEffect on_step() override { return {}; }
  void on_deliver(sim::MsgId) override {}
  int alphabet_size() const override { return 1; }
  std::unique_ptr<sim::ISender> clone() const override {
    return std::make_unique<MuteSender>(*this);
  }
  std::string name() const override { return "mute-sender"; }
};

SystemSpec repfree_del_spec(int m, std::uint64_t max_steps = 100000) {
  SystemSpec spec;
  spec.protocols = [m] { return proto::make_repfree_del(m); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = max_steps;
  return spec;
}

SystemSpec stenning_spec(int m) {
  SystemSpec spec;
  spec.protocols = [m] { return proto::make_stenning(m); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 100000;
  return spec;
}

seq::Sequence iota(int n) {
  seq::Sequence x;
  for (int i = 0; i < n; ++i) x.push_back(i);
  return x;
}

// ---------------------------------------------------------------- watchdog --

TEST(Watchdog, ConvertsLivelockIntoStalledVerdict) {
  SystemSpec spec;
  spec.protocols = [] {
    proto::ProtocolPair pair = proto::make_repfree_del(3);
    pair.sender = std::make_unique<MuteSender>();
    return pair;
  };
  spec.channel = [](std::uint64_t) {
    return std::make_unique<channel::DelChannel>();
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 100000;
  spec.engine.stall_window = 500;

  const auto r = run_one(spec, {0, 1, 2}, 1);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStalled);
  EXPECT_TRUE(r.stalled);
  EXPECT_TRUE(r.safety_ok);
  // The watchdog fired at its window, not at budget exhaustion.
  EXPECT_LT(r.stats.steps, 1000u);
}

TEST(Watchdog, SilentWhenProgressContinues) {
  auto spec = repfree_del_spec(8);
  spec.engine.stall_window = 2000;
  const auto r = run_one(spec, iota(8), 3);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_FALSE(r.stalled);
}

TEST(Watchdog, DisabledByDefault) {
  SystemSpec spec = repfree_del_spec(3, /*max_steps=*/800);
  spec.protocols = [] {
    proto::ProtocolPair pair = proto::make_repfree_del(3);
    pair.sender = std::make_unique<MuteSender>();
    return pair;
  };
  const auto r = run_one(spec, {0, 1, 2}, 1);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kBudgetExhausted);
  EXPECT_EQ(r.stats.steps, 800u);
}

// ----------------------------------------------------------- crash-restart --

TEST(CrashRestart, StenningSenderSurvivesAmnesia) {
  // The sender restarts from item 0; stale seqnos are ignored and the
  // cumulative ack fast-forwards it to the frontier.  The tape stays a
  // prefix of X throughout and the transfer completes.
  auto spec = stenning_spec(6);
  spec.engine.stall_window = 5000;
  const auto plan = fault::plan_from_text("crash-sender @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 11);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_TRUE(r.safety_ok);
  EXPECT_EQ(r.stats.crashes[0], 1u);
  EXPECT_EQ(r.stats.crashes[1], 0u);
}

TEST(CrashRestart, StenningSurvivesRepeatedSenderCrashes) {
  auto spec = stenning_spec(8);
  spec.engine.stall_window = 5000;
  const auto plan = fault::plan_from_text(
      "crash-sender @writes 1\n"
      "crash-sender @writes 3\n"
      "crash-sender @writes 5\n");
  const auto r = run_one(with_chaos(spec, plan), iota(8), 4);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_EQ(r.stats.crashes[0], 3u);
}

TEST(CrashRestart, StenningReceiverAmnesiaIsSafeButStalls) {
  // The receiver forgets how much it wrote; safety holds (it never writes a
  // wrong item) but progress is gone for good — the watchdog reports it.
  auto spec = stenning_spec(6);
  spec.engine.stall_window = 3000;
  const auto plan = fault::plan_from_text("crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 11);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStalled);
  EXPECT_TRUE(r.safety_ok);
  EXPECT_TRUE(seq::is_prefix(r.output, r.input));
  EXPECT_EQ(r.stats.crashes[1], 1u);
}

TEST(CrashRestart, RepFreeSenderAmnesiaLivelocksNotViolates) {
  // After a sender restart the repfree sender rewinds to item 0, which the
  // receiver correctly ignores forever: a livelock, never a wrong write.
  auto spec = repfree_del_spec(6);
  spec.engine.stall_window = 3000;
  spec.scheduler = [](std::uint64_t) {
    return std::make_unique<channel::RoundRobinScheduler>();
  };
  const auto plan = fault::plan_from_text("crash-sender @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 1);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStalled);
  EXPECT_TRUE(r.safety_ok);
  EXPECT_TRUE(seq::is_prefix(r.output, r.input));
  EXPECT_EQ(r.stats.crashes[0], 1u);
}

TEST(CrashRestart, RepFreeReceiverAmnesiaViolatesSafety) {
  // Duplicate the first data message so stale copies of an already-written
  // item linger in flight, then crash the receiver: with `seen_` gone, a
  // stale copy is re-written — the output tape stops being a prefix of X.
  // This is the amnesia hazard the paper's model (which has no crash fault)
  // never needed to defend against.
  auto spec = repfree_del_spec(6);
  spec.engine.stall_window = 4000;
  spec.scheduler = [](std::uint64_t) {
    return std::make_unique<channel::RoundRobinScheduler>();
  };
  const auto plan = fault::plan_from_text(
      "dup @step 1 dir SR count 6 match *\n"
      "crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 1);
  // The bad write comes after the crash, so the structured verdict blames
  // the (absent) recovery layer rather than the steady-state protocol.
  EXPECT_EQ(r.verdict, sim::RunVerdict::kRecoveryViolation);
  EXPECT_FALSE(r.safety_ok);
  EXPECT_FALSE(seq::is_prefix(r.output, r.input));
}

TEST(CrashRestart, BothProcessesCrashingSameTickRecoverWithStores) {
  // Crash storm: sender and receiver both restart at the same write count.
  // With stable stores attached, both rehydrate and the transfer completes.
  auto spec = stenning_spec(6);
  spec.engine.stall_window = 5000;
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = fault::plan_from_text(
      "crash-sender @writes 2\n"
      "crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 11);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_EQ(r.stats.crashes[0], 1u);
  EXPECT_EQ(r.stats.crashes[1], 1u);
  EXPECT_EQ(r.stats.recoveries, 2u);
}

TEST(CrashRestart, BackToBackReceiverRestartsStayDurable) {
  // Restart the receiver at every other write: each recovery must pick up
  // exactly where the previous incarnation left off.
  auto spec = stenning_spec(8);
  spec.engine.stall_window = 5000;
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = fault::plan_from_text(
      "crash-receiver @writes 2\n"
      "crash-receiver @writes 3\n"
      "crash-receiver @writes 4\n"
      "crash-receiver @writes 6\n");
  const auto r = run_one(with_chaos(spec, plan), iota(8), 4);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_EQ(r.stats.crashes[1], 4u);
  EXPECT_EQ(r.stats.recoveries, 4u);
}

// ------------------------------------------ FaultExperiment.max_steps -----

TEST(FaultExperiment, MaxStepsOverrideCapsTheRun) {
  const seq::Sequence x = iota(6);
  // Inherited budget: plenty; the run completes.
  const auto full = measure_fault_recovery(repfree_del_spec(6), x,
                                           {.fault_after_writes = 2}, 7);
  EXPECT_TRUE(full.fault_injected);
  EXPECT_TRUE(full.completed);
  // Tight override: the same run cannot finish inside 40 steps.
  const auto capped = measure_fault_recovery(
      repfree_del_spec(6), x, {.fault_after_writes = 2, .max_steps = 40}, 7);
  EXPECT_FALSE(capped.completed);
}

}  // namespace
}  // namespace stpx::stp
