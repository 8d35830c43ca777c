// Tests of the benchmark's own machinery: the decorators must be
// transparent (same frames, same protocol outputs, same store records as
// the undecorated stack), the pairing and histogram helpers must measure
// what they claim, and every name the benchmark prints must be a valid
// metric or workload name.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "alloc_count.hpp"
#include "net/loopback.hpp"
#include "proto/suite.hpp"
#include "report.hpp"
#include "store/stable_store.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace stpx;

std::vector<std::uint8_t> data_frame(std::uint32_t session, sim::Dir dir,
                                     sim::MsgId msg) {
  net::Frame f;
  f.kind = net::FrameKind::kData;
  f.dir = dir;
  f.session = session;
  f.msg = msg;
  return net::encode(f);
}

net::LoopbackConfig lossy(std::uint64_t seed) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                  sim::Dir::kSenderToReceiver, 5, 1, 10000);
  cfg.reorder_window = 4;
  cfg.seed = seed;
  return cfg;
}

TEST(Decorators, TransportIsByteTransparent) {
  auto plain = net::make_loopback(lossy(7));
  auto traced = net::make_loopback(lossy(7));
  SessionTable table(4, 0, kDomain);
  TimedTransport a(traced.a.get(), &table), b(traced.b.get(), &table);
  Rng rng(11);
  std::vector<std::vector<std::uint8_t>> got_plain, got_traced;
  for (int i = 0; i < 500; ++i) {
    const auto bytes = data_frame(static_cast<std::uint32_t>(rng.below(4)),
                                  sim::Dir::kSenderToReceiver,
                                  static_cast<sim::MsgId>(rng.below(1000)));
    EXPECT_EQ(plain.a->send(bytes), a.send(bytes));
    if (rng.below(3) == 0) {
      auto p = plain.b->poll();
      auto t = b.poll();
      ASSERT_EQ(p.has_value(), t.has_value());
      if (p) {
        got_plain.push_back(*p);
        got_traced.push_back(*t);
      }
    }
  }
  while (auto p = plain.b->poll()) got_plain.push_back(*p);
  while (auto t = b.poll()) got_traced.push_back(*t);
  EXPECT_EQ(got_plain, got_traced);
  EXPECT_EQ(a.sent(), 500u);
  EXPECT_EQ(b.polled(), got_traced.size());
}

/// Drives one Stenning sender/receiver endpoint pair in lock step over a
/// perfect in-order link and records every step() output.
struct LockStep {
  std::unique_ptr<proto::ISessionEndpoint> tx, rx;
  const proto::ReceiverSessionEndpoint* tape = nullptr;
  std::vector<std::optional<sim::MsgId>> outputs;
  std::vector<std::string> states;

  LockStep(const seq::Sequence& x, SessionTable* tx_table,
           SessionTable* rx_table) {
    auto pair = proto::make_stenning(kDomain);
    tx = std::make_unique<proto::SenderSessionEndpoint>(
        std::move(pair.sender), x);
    auto r = std::make_unique<proto::ReceiverSessionEndpoint>(
        std::move(pair.receiver), x);
    tape = r.get();
    rx = std::move(r);
    if (tx_table != nullptr) {
      tx = std::make_unique<TimedEndpoint>(std::move(tx), 0, true, tx_table);
      rx = std::make_unique<TimedEndpoint>(std::move(rx), 0, false, rx_table);
    }
  }

  void run(std::size_t steps) {
    for (std::size_t i = 0; i < steps && !rx->done(); ++i) {
      const auto d = tx->step();
      outputs.push_back(d);
      if (d) rx->on_deliver(*d);
      const auto a = rx->step();
      outputs.push_back(a);
      if (a) tx->on_deliver(*a);
      states.push_back(tx->save_state() + "|" + rx->save_state());
    }
  }
};

TEST(Decorators, EndpointStepsAreIdentical) {
  seq::Sequence x;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    x.push_back(static_cast<seq::DataItem>(rng.below(kDomain)));
  }
  SessionTable txt(1, 0, kDomain), rxt(1, 1, kDomain);
  LockStep plain(x, nullptr, nullptr), traced(x, &txt, &rxt);
  plain.run(1000);
  traced.run(1000);
  EXPECT_EQ(plain.outputs, traced.outputs);
  EXPECT_EQ(plain.states, traced.states);
  EXPECT_TRUE(traced.rx->done());
  EXPECT_EQ(traced.tape->output(), x);
  EXPECT_EQ(traced.rx->items_done(), x.size());
  EXPECT_EQ(traced.rx->name(), plain.rx->name());
}

TEST(Decorators, StoreRecordsAreIdentical) {
  store::MemStore plain, inner;
  TimedStore traced(&inner);
  plain.reset();
  traced.reset();
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::string> recs;
    for (int i = 0; i <= batch % 5; ++i) {
      recs.push_back(std::to_string(batch * 100 + i) + " 1 2 3");
    }
    plain.append_batch(recs);
    traced.append_batch(recs);
    if (batch == 12) {
      plain.compact();
      traced.compact();
    }
  }
  EXPECT_EQ(plain.replay().payloads, traced.replay().payloads);
  EXPECT_EQ(plain.recover().state, traced.recover().state);
  EXPECT_EQ(plain.appends(), traced.appends());
  EXPECT_GT(traced.replay_ns(), 0u);
}

TEST(Decorators, TracedDurableRoundIsCorrect) {
  // A short seeded run of the whole stack, decorated: every session must
  // still end with an exact copy across the kill and rehydrate.
  const Spec mini{"mini", 32, 6, /*durable=*/true,
                  std::chrono::microseconds(300), /*steps_per_sweep=*/2,
                  /*max_inflight=*/8};
  const auto inputs = make_inputs(mini, 5);
  const std::string dir = ::testing::TempDir() + "perfbench-mini";
  for (const bool traced : {false, true}) {
    Round round(mini, 5, inputs, traced, dir);
    const RoundResult r = round.run(std::chrono::seconds(60));
    EXPECT_TRUE(r.errors.empty()) << (r.errors.empty() ? "" : r.errors[0]);
    EXPECT_EQ(r.sessions_failed, 0u);
    EXPECT_EQ(r.items, mini.sessions * mini.items);
    if (traced) EXPECT_GT(r.wire_sent, 0u);
  }
  Tracer::get().reset();
}

TEST(Pairing, PolledFramesPairWithDeliveriesSkippingSheds) {
  SessionTable t(2, 1, kDomain);
  net::Frame f;
  f.session = 1;
  for (std::int64_t m = 0; m < 5; ++m) {
    f.msg = m * 8;
    t.note_polled(f, 100 + static_cast<std::uint64_t>(m));
  }
  // msg 8 was shed: pairing msg 16 drops it.
  EXPECT_EQ(t.take_polled(1, net::FrameKind::kData, 0), 100u);
  EXPECT_EQ(t.take_polled(1, net::FrameKind::kData, 16), 102u);
  EXPECT_FALSE(t.take_polled(1, net::FrameKind::kData, 8).has_value());
  EXPECT_EQ(t.take_polled(1, net::FrameKind::kData, 24), 103u);
  EXPECT_FALSE(t.take_polled(0, net::FrameKind::kData, 32).has_value());
  EXPECT_FALSE(t.take_polled(9, net::FrameKind::kData, 32).has_value());
}

TEST(Pairing, AckHoldAndRetransmissions) {
  SessionTable t(1, 1, kDomain);
  t.note_emitted(0, 3, 1000);
  const auto ack = data_frame(0, sim::Dir::kReceiverToSender, 3);
  const auto m1 = t.match_sent(*net::decode(ack), ack);
  ASSERT_TRUE(m1.emitted_ns.has_value());
  EXPECT_EQ(*m1.emitted_ns, 1000u);
  EXPECT_FALSE(m1.retransmission);
  const auto m2 = t.match_sent(*net::decode(ack), ack);  // keepalive resend
  EXPECT_FALSE(m2.emitted_ns.has_value());
  EXPECT_TRUE(m2.retransmission);
}

TEST(Histogram, QuantilesWithinBucketPrecision) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_NEAR(h.quantile(0.5), 50000.0, 50000.0 / 64);
  EXPECT_NEAR(h.quantile(0.99), 99000.0, 99000.0 / 64);
  EXPECT_EQ(Histogram().quantile(0.5), 0.0);
  Histogram small;
  small.add(7);
  EXPECT_EQ(small.quantile(0.99), 7.0);
}

TEST(QuietRounds, RoundsWithLittleStealOrTheQuietestTenth) {
  const auto rounds = [](std::vector<double> steal) {
    std::vector<RoundFigures> v;
    for (const double s : steal) {
      RoundFigures f;
      f.steal_frac = s;
      v.push_back(f);
    }
    return v;
  };
  const auto steal_of = [](const std::vector<RoundFigures>& v) {
    std::vector<double> out;
    for (const RoundFigures& f : v) out.push_back(f.steal_frac);
    return out;
  };
  // Enough rounds at or under kQuietSteal: those, in order.
  EXPECT_EQ(steal_of(quiet_rounds(rounds({0.2, 0.0, 0.01, 0.3, 0.0}))),
            (std::vector<double>{0.0, 0.01, 0.0}));
  // Too few: the quietest tenth, ties included.
  EXPECT_EQ(steal_of(quiet_rounds(rounds(
                {0.2, 0.1, 0.3, 0.1, 0.4, 0.5, 0.6, 0.3, 0.1, 0.7, 0.8}))),
            (std::vector<double>{0.1, 0.1, 0.1}));
  EXPECT_EQ(steal_of(quiet_rounds(rounds(
                {0.2, 0.1, 0.3, 0.15, 0.4, 0.5, 0.6, 0.3, 0.7, 0.8, 0.9}))),
            (std::vector<double>{0.1, 0.15}));
  EXPECT_EQ(quiet_rounds(rounds({0.5})).size(), 1u);
  EXPECT_TRUE(quiet_rounds({}).empty());
  // The end-to-end figures are medians over the quiet rounds only.
  RoundTotals t;
  for (const double s : {0.0, 0.3, 0.0, 0.4, 0.0}) {
    RoundFigures f;
    f.steal_frac = s;
    f.items_per_s = s > 0 ? 1.0 : 10.0;
    t.per_round.push_back(f);
  }
  EXPECT_EQ(t.median_of(&RoundFigures::items_per_s), 10.0);
}

TEST(AllocCount, CountsThisThreadsAllocations) {
  const std::uint64_t a0 = thread_allocs();
  auto p = std::make_unique<int>(1);
  std::vector<int> v(10);
  EXPECT_EQ(thread_allocs() - a0, 2u);
  const std::uint64_t a1 = thread_allocs();
  std::thread([] { std::vector<int> w(100); }).join();
  // The other thread's allocation is not attributed here (std::thread
  // itself allocates its state once).
  EXPECT_LE(thread_allocs() - a1, 1u);
}

TEST(Names, EveryMetricAndWorkloadNameIsValid) {
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  RunReport empty;
  auto all = end_to_end_metrics(empty);
  const auto layers = per_layer_metrics(empty);
  all.insert(all.end(), layers.begin(), layers.end());
  for (const Metric& m : all) {
    EXPECT_TRUE(std::regex_match(m.name, name)) << m.name;
    EXPECT_TRUE(std::regex_match(m.unit, unit)) << m.unit;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
  for (const Spec& s : specs()) {
    EXPECT_TRUE(std::regex_match(std::string(s.name), name)) << s.name;
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate " << s.name;
  }
  EXPECT_NE(result_json(true, 1, 0, all).find("\"setup_s\": {\"value\": 0, "
                                              "\"unit\": \"s\"}"),
            std::string::npos);
}

TEST(Names, BenchmarkJsonListsExactlyThePrintedNames) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::set<std::string> listed;
  const std::regex entry("\"name\": \"([^\"]+)\"");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), entry);
       it != std::sregex_iterator(); ++it) {
    listed.insert((*it)[1].str());
  }
  std::set<std::string> printed;
  RunReport empty;
  for (const Metric& m : end_to_end_metrics(empty)) printed.insert(m.name);
  for (const Metric& m : per_layer_metrics(empty)) printed.insert(m.name);
  // Every metric and every workload is listed.
  std::set<std::string> workloads;
  for (const Spec& s : specs()) workloads.insert(s.name);
  std::set<std::string> listed_metrics, listed_workloads;
  for (const std::string& name : listed) {
    (workloads.count(name) == 0 ? listed_metrics : listed_workloads)
        .insert(name);
  }
  EXPECT_EQ(listed_metrics, printed);
  EXPECT_EQ(listed_workloads, workloads);
}

}  // namespace
}  // namespace perfbench
