// Conformance suite for the wire layer (ctest -L net_smoke):
//
//   * codec — round-trip identity, field validation, and the byte-mangling
//     sweep (every single-byte corruption of a valid frame is rejected;
//     decode never throws on arbitrary bytes);
//   * loopback transport — FaultPlan-scripted drop/dup/blackout/freeze/cap
//     semantics, bounded queues, seeded reordering;
//   * session adapters — engine-free protocol driving with the online
//     prefix-safety check;
//   * SessionMux / service façade — small perfect-link runs, lossy runs,
//     routing rejects, inbox backpressure, idle eviction, metrics; and the
//     acceptance run: >= 1000 concurrent sessions over a lossy reordering
//     link, every one completing with its output an exact copy of its
//     input, prefix-safe at every write (attested by a checking probe);
//   * UDP transport — skipped gracefully where the environment forbids
//     sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "fault/plan.hpp"
#include "golden.hpp"
#include "net/flight_recorder.hpp"
#include "net/frame.hpp"
#include "net/loopback.hpp"
#include "net/mux.hpp"
#include "net/prefix_probe.hpp"
#include "net/service.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "proto/session_adapter.hpp"
#include "proto/suite.hpp"
#include "store/stable_store.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;

constexpr int kDomain = 8;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  x.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

std::vector<std::uint8_t> frame_bytes(std::uint32_t session, sim::MsgId msg,
                                      sim::Dir dir = sim::Dir::kSenderToReceiver,
                                      net::FrameKind kind = net::FrameKind::kData) {
  net::Frame f;
  f.kind = kind;
  f.dir = dir;
  f.session = session;
  f.msg = msg;
  return net::encode(f);
}

/// How many drained trace events are of `kind` (a hook's firing count).
std::size_t count_events(const std::vector<net::TraceEvent>& evs,
                         net::TraceEventKind kind) {
  return static_cast<std::size_t>(std::count_if(
      evs.begin(), evs.end(),
      [kind](const net::TraceEvent& ev) { return ev.kind == kind; }));
}

/// Re-stamp the checksum after tampering with header bytes, so the reject
/// reason under test is the field check rather than the checksum.
void restamp(std::vector<std::uint8_t>& b) {
  const std::uint32_t sum = net::fnv1a32(b.data(), net::kFrameSize - 4);
  b[17] = static_cast<std::uint8_t>(sum & 0xFF);
  b[18] = static_cast<std::uint8_t>((sum >> 8) & 0xFF);
  b[19] = static_cast<std::uint8_t>((sum >> 16) & 0xFF);
  b[20] = static_cast<std::uint8_t>((sum >> 24) & 0xFF);
}

// --------------------------------------------------------------------------
// Codec
// --------------------------------------------------------------------------

TEST(NetFrame, EncodeLayout) {
  const auto b = frame_bytes(0x01020304, 7);
  ASSERT_EQ(b.size(), net::kFrameSize);
  EXPECT_EQ(b[0], net::kMagic0);
  EXPECT_EQ(b[1], net::kMagic1);
  EXPECT_EQ(b[2], net::kWireVersion);
  EXPECT_EQ(b[3], 0);  // data
  EXPECT_EQ(b[4], 0);  // S->R
  // Session id, little-endian.
  EXPECT_EQ(b[5], 0x04);
  EXPECT_EQ(b[6], 0x03);
  EXPECT_EQ(b[7], 0x02);
  EXPECT_EQ(b[8], 0x01);
}

TEST(NetFrame, RoundTripSweep) {
  const std::uint32_t sessions[] = {0, 1, 77, 0xFFFFFFFFu};
  const sim::MsgId msgs[] = {0, 1, 4096, -1,
                             std::numeric_limits<sim::MsgId>::max(),
                             std::numeric_limits<sim::MsgId>::min()};
  for (const auto kind :
       {net::FrameKind::kData, net::FrameKind::kFin, net::FrameKind::kProbe,
        net::FrameKind::kProbeAck, net::FrameKind::kJoin,
        net::FrameKind::kJoinAck, net::FrameKind::kResolve,
        net::FrameKind::kResolveAck, net::FrameKind::kNotOwner}) {
    for (const auto dir :
         {sim::Dir::kSenderToReceiver, sim::Dir::kReceiverToSender}) {
      for (const auto session : sessions) {
        for (const auto msg : msgs) {
          net::Frame f;
          f.kind = kind;
          f.dir = dir;
          f.session = session;
          f.msg = msg;
          const auto decoded = net::decode(net::encode(f));
          ASSERT_TRUE(decoded.has_value());
          EXPECT_EQ(*decoded, f);
        }
      }
    }
  }
}

TEST(NetFrame, Fnv1aKnownVectors) {
  EXPECT_EQ(net::fnv1a32(nullptr, 0), 0x811C9DC5u);
  const std::uint8_t a = 'a';
  EXPECT_EQ(net::fnv1a32(&a, 1), 0xE40C292Cu);
  // Single-byte sensitivity at a fixed position: all 256 values hash apart.
  std::uint8_t buf[4] = {1, 2, 3, 4};
  std::map<std::uint32_t, int> seen;
  for (int v = 0; v < 256; ++v) {
    buf[2] = static_cast<std::uint8_t>(v);
    ++seen[net::fnv1a32(buf, 4)];
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(NetFrame, RejectsBadSize) {
  const auto good = frame_bytes(3, 9);
  for (std::size_t len = 0; len < net::kFrameSize; ++len) {
    net::RejectReason why{};
    EXPECT_FALSE(net::decode(good.data(), len, &why).has_value());
    EXPECT_EQ(why, net::RejectReason::kBadSize);
  }
  auto longer = good;
  longer.resize(net::kFrameSize + 3, 0);
  net::RejectReason why{};
  EXPECT_FALSE(net::decode(longer, &why).has_value());
  EXPECT_EQ(why, net::RejectReason::kBadSize);
}

TEST(NetFrame, RejectsBadFields) {
  struct Case {
    std::size_t offset;
    std::uint8_t value;
    net::RejectReason want;
  };
  const Case cases[] = {
      {0, 0x00, net::RejectReason::kBadMagic},
      {1, 0xFF, net::RejectReason::kBadMagic},
      {2, net::kWireVersion + 1, net::RejectReason::kBadVersion},
      {3, net::kMaxFrameKind + 1, net::RejectReason::kBadKind},
      {4, 2, net::RejectReason::kBadDir},
  };
  for (const auto& c : cases) {
    auto b = frame_bytes(3, 9);
    b[c.offset] = c.value;
    restamp(b);  // isolate the field check from the checksum check
    net::RejectReason why{};
    EXPECT_FALSE(net::decode(b, &why).has_value());
    EXPECT_EQ(why, c.want) << "offset " << c.offset;
  }
  // And an intact header with a wrong checksum.
  auto b = frame_bytes(3, 9);
  b[19] ^= 0x40;
  net::RejectReason why{};
  EXPECT_FALSE(net::decode(b, &why).has_value());
  EXPECT_EQ(why, net::RejectReason::kBadChecksum);
}

// The deterministic mangling sweep: every possible single-byte corruption
// of a valid frame (21 positions x 255 deltas) must be rejected — the
// checksum catches whatever the field checks let through.
TEST(NetFrame, SingleByteMangleAlwaysRejected) {
  const auto good = frame_bytes(0xDEADBEEF, 123456789, sim::Dir::kReceiverToSender,
                                net::FrameKind::kFin);
  ASSERT_TRUE(net::decode(good).has_value());
  for (std::size_t pos = 0; pos < net::kFrameSize; ++pos) {
    for (int delta = 1; delta < 256; ++delta) {
      auto b = good;
      b[pos] = static_cast<std::uint8_t>(b[pos] ^ delta);
      EXPECT_FALSE(net::decode(b).has_value())
          << "pos " << pos << " delta " << delta;
    }
  }
}

TEST(NetFrame, GarbageFuzzNeverThrows) {
  Rng rng(0xF00DF00DULL);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> b(static_cast<std::size_t>(rng.below(48)));
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.below(256));
    // Must not throw or crash; acceptance is allowed but wildly unlikely.
    (void)net::decode(b);
  }
}

// --------------------------------------------------------------------------
// Loopback transport
// --------------------------------------------------------------------------

TEST(NetLoopback, PerfectLinkIsFifoBothWays) {
  auto pair = net::make_loopback();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pair.a->send(frame_bytes(1, i)));
    EXPECT_TRUE(pair.b->send(frame_bytes(2, 100 + i)));
  }
  for (int i = 0; i < 5; ++i) {
    const auto from_a = pair.b->poll();
    ASSERT_TRUE(from_a.has_value());
    EXPECT_EQ(net::decode(*from_a)->msg, i);
    const auto from_b = pair.a->poll();
    ASSERT_TRUE(from_b.has_value());
    EXPECT_EQ(net::decode(*from_b)->msg, 100 + i);
  }
  EXPECT_FALSE(pair.a->poll().has_value());
  EXPECT_FALSE(pair.b->poll().has_value());
}

TEST(NetLoopback, DropBurstDiscardsExactCount) {
  // Fires as the 2nd send arrives: sends #2 and #3 are discarded.
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("drop @sends 2 dir SR count 2");
  auto pair = net::make_loopback(cfg);
  for (int i = 1; i <= 5; ++i) pair.a->send(frame_bytes(1, i));
  std::vector<sim::MsgId> got;
  while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
  EXPECT_EQ(got, (std::vector<sim::MsgId>{1, 4, 5}));
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).dropped, 2u);
  EXPECT_EQ(pair.stats(sim::Dir::kReceiverToSender).dropped, 0u);
}

TEST(NetLoopback, DropCountZeroFlushesQueue) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("drop @sends 4 dir SR count 0");
  auto pair = net::make_loopback(cfg);
  for (int i = 1; i <= 4; ++i) pair.a->send(frame_bytes(1, i));
  std::vector<sim::MsgId> got;
  while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
  // The 4th send triggers the flush of the three queued frames, then lands.
  EXPECT_EQ(got, (std::vector<sim::MsgId>{4}));
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).dropped, 3u);
}

TEST(NetLoopback, DupBurstDuplicates) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("dup @sends 1 dir RS count 2");
  auto pair = net::make_loopback(cfg);
  for (int i = 1; i <= 3; ++i) pair.b->send(frame_bytes(1, i));
  std::vector<sim::MsgId> got;
  while (auto b = pair.a->poll()) got.push_back(net::decode(*b)->msg);
  EXPECT_EQ(got, (std::vector<sim::MsgId>{1, 1, 2, 2, 3}));
  EXPECT_EQ(pair.stats(sim::Dir::kReceiverToSender).duplicated, 2u);
}

TEST(NetLoopback, BlackoutSwallowsSendsUntilTicksElapse) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("blackout @step 0 dir SR len 3");
  auto pair = net::make_loopback(cfg);
  EXPECT_FALSE(pair.a->send(frame_bytes(1, 1)));  // swallowed
  // Three polls advance the link clock past the window.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(pair.b->poll().has_value());
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 2)));
  const auto b = pair.b->poll();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(net::decode(*b)->msg, 2);
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).blacked_out, 1u);
}

TEST(NetLoopback, FreezeRetainsFramesUntilThaw) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("freeze @step 0 dir SR len 3");
  auto pair = net::make_loopback(cfg);
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 9)));  // queued, not dropped
  EXPECT_FALSE(pair.b->poll().has_value());      // tick 1 < 3: frozen
  EXPECT_FALSE(pair.b->poll().has_value());      // tick 2 < 3: frozen
  const auto b = pair.b->poll();                 // tick 3: thawed
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(net::decode(*b)->msg, 9);
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).frozen_polls, 2u);
}

TEST(NetLoopback, CapShedsOverflow) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("cap @sends 1 dir SR count 2");
  auto pair = net::make_loopback(cfg);
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 1)));
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 2)));
  EXPECT_FALSE(pair.a->send(frame_bytes(1, 3)));  // queue at cap: shed
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).shed, 1u);
}

TEST(NetLoopback, MaxQueueBoundSheds) {
  net::LoopbackConfig cfg;
  cfg.max_queue = 1;
  auto pair = net::make_loopback(cfg);
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 1)));
  EXPECT_FALSE(pair.a->send(frame_bytes(1, 2)));
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).shed, 1u);
}

TEST(NetLoopback, ReorderDeliversPermutation) {
  net::LoopbackConfig cfg;
  cfg.reorder_window = 4;
  cfg.seed = 42;
  auto pair = net::make_loopback(cfg);
  std::vector<sim::MsgId> sent;
  for (int i = 0; i < 16; ++i) {
    sent.push_back(i);
    pair.a->send(frame_bytes(1, i));
  }
  std::vector<sim::MsgId> got;
  while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
  ASSERT_EQ(got.size(), sent.size());
  auto sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, sent);  // a permutation: nothing lost, nothing invented
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).delivered, 16u);
}

TEST(NetFaultPlan, PeriodicPlanShapeAndTextRoundTrip) {
  const auto plan = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                         sim::Dir::kSenderToReceiver,
                                         /*period=*/10, /*count=*/1,
                                         /*horizon=*/35);
  ASSERT_EQ(plan.size(), 3u);
  std::uint64_t at = 10;
  for (const auto& a : plan.actions) {
    EXPECT_EQ(a.kind, fault::FaultKind::kDropBurst);
    EXPECT_EQ(a.trigger.kind, fault::TriggerKind::kSends);
    EXPECT_EQ(a.trigger.at, at);
    EXPECT_EQ(a.dir, sim::Dir::kSenderToReceiver);
    EXPECT_EQ(a.count, 1u);
    at += 10;
  }
  EXPECT_EQ(fault::plan_from_text(fault::to_text(plan)), plan);
}

// --------------------------------------------------------------------------
// Session adapters (engine-free protocol driving)
// --------------------------------------------------------------------------

TEST(NetSessionAdapter, DirectShuttleTransfersAndChecksPrefix) {
  const seq::Sequence x = {3, 1, 4, 1, 5};
  auto pair = proto::make_stenning(kDomain);
  proto::SenderSessionEndpoint snd(std::move(pair.sender), x);
  proto::ReceiverSessionEndpoint rcv(std::move(pair.receiver), x);

  // Hostile ids at the trust boundary are ignored, not asserted on.
  rcv.on_deliver(-5);
  snd.on_deliver(-1);
  EXPECT_TRUE(rcv.safety_ok());

  for (int step = 0; step < 200 && !rcv.done(); ++step) {
    if (const auto m = snd.step()) rcv.on_deliver(*m);
    if (const auto a = rcv.step()) snd.on_deliver(*a);
  }
  ASSERT_TRUE(rcv.done());
  EXPECT_EQ(rcv.output(), x);
  EXPECT_TRUE(rcv.safety_ok());
  EXPECT_EQ(rcv.items_done(), x.size());

  // The sender only finishes on the wire-level receipt notice.
  EXPECT_FALSE(snd.done());
  snd.on_fin();
  EXPECT_TRUE(snd.done());
  EXPECT_EQ(snd.items_done(), x.size());
}

TEST(NetSessionAdapter, ViolationSticksAndSilences) {
  const seq::Sequence expected = {0, 1, 2};
  auto pair = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint rcv(std::move(pair.receiver), expected);
  // Stenning's receiver writes item `m` when the in-order id arrives; feed
  // it a first message that decodes to the wrong item for position 0.
  // Stenning data ids encode (index, item) as id = index * domain + item.
  rcv.on_deliver(5);  // index 0, item 5 != expected 0
  (void)rcv.step();
  EXPECT_FALSE(rcv.safety_ok());
  EXPECT_FALSE(rcv.done());
  // Silenced: further steps produce no output.
  EXPECT_FALSE(rcv.step().has_value());
}

// --------------------------------------------------------------------------
// SessionMux + service façade
// --------------------------------------------------------------------------

struct ServiceRun {
  net::LoopbackPair wire;
  std::unique_ptr<net::StpClient> client;
  std::unique_ptr<net::StpServer> server;
};

ServiceRun make_service(std::size_t n_sessions, net::LoopbackConfig wire_cfg,
                        net::MuxConfig mux_cfg, std::size_t seq_len = 4) {
  ServiceRun run;
  run.wire = net::make_loopback(wire_cfg);
  run.client = std::make_unique<net::StpClient>(run.wire.a.get(), mux_cfg);
  run.server = std::make_unique<net::StpServer>(run.wire.b.get(), mux_cfg);
  for (std::uint32_t id = 0; id < n_sessions; ++id) {
    auto pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, seq_len);
    run.client->add_session(id, std::move(pair.sender), x);
    run.server->add_session(id, std::move(pair.receiver), x);
  }
  return run;
}

void expect_all_completed(const net::SessionMux& mux, std::size_t n,
                          std::size_t seq_len) {
  const auto reports = mux.reports();
  ASSERT_EQ(reports.size(), n);
  for (const auto& r : reports) {
    EXPECT_EQ(r.state, net::SessionState::kCompleted) << "session " << r.id;
    EXPECT_EQ(r.items, seq_len) << "session " << r.id;
  }
}

TEST(NetMux, PerfectLinkSmallRun) {
  net::MuxConfig cfg;
  cfg.sweep_interval = 200us;
  auto run = make_service(4, {}, cfg);
  ASSERT_TRUE(net::run_service_pair(*run.client, *run.server, 10s));
  expect_all_completed(run.client->mux(), 4, 4);
  expect_all_completed(run.server->mux(), 4, 4);

  const auto cs = run.client->mux().stats();
  const auto ss = run.server->mux().stats();
  EXPECT_GT(cs.frames_sent, 0u);
  EXPECT_GT(ss.fins_sent, 0u);
  EXPECT_EQ(ss.items_done, 16u);
  EXPECT_EQ(cs.sessions_completed, 4u);
  EXPECT_EQ(ss.sessions_violated, 0u);
  EXPECT_EQ(run.client->mux().active_sessions(), 0u);

  // Sender sessions collected ack-RTT samples.
  bool any_rtt = false;
  for (const auto& r : run.client->mux().reports()) {
    any_rtt = any_rtt || !r.ack_rtt_us.empty();
  }
  EXPECT_TRUE(any_rtt);
}

TEST(NetMux, LossyDupReorderRunCompletes) {
  net::LoopbackConfig wire;
  fault::FaultPlan plan = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kSenderToReceiver, 5, 1, 200000);
  const auto rs_drop = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kReceiverToSender, 6, 1, 200000);
  const auto sr_dup = fault::periodic_plan(
      fault::FaultKind::kDupBurst, sim::Dir::kSenderToReceiver, 7, 1, 200000);
  plan.actions.insert(plan.actions.end(), rs_drop.actions.begin(),
                      rs_drop.actions.end());
  plan.actions.insert(plan.actions.end(), sr_dup.actions.begin(),
                      sr_dup.actions.end());
  wire.plan = plan;
  wire.reorder_window = 3;
  wire.seed = 7;
  wire.max_queue = 4096;

  net::MuxConfig cfg;
  cfg.sweep_interval = 300us;
  cfg.keepalive_sweeps = 4;
  auto run = make_service(16, wire, cfg);
  ASSERT_TRUE(net::run_service_pair(*run.client, *run.server, 30s));
  expect_all_completed(run.client->mux(), 16, 4);
  expect_all_completed(run.server->mux(), 16, 4);
  EXPECT_GT(run.wire.stats(sim::Dir::kSenderToReceiver).dropped, 0u);
}

TEST(NetMux, RejectsGarbageWrongDirAndUnknownSession) {
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.sweep_interval = 500us;
  net::FlightRecorder recorder;
  cfg.probe = &recorder;
  net::StpServer server(wire.b.get(), cfg);
  auto pair = proto::make_stenning(kDomain);
  server.add_session(7, std::move(pair.receiver), seq_for(7, 3));
  server.mux().start();

  wire.a->send({0x13, 0x37, 0x00});                      // garbage: rejected
  wire.a->send(frame_bytes(99, 0));                      // unknown session
  wire.a->send(frame_bytes(7, 0, sim::Dir::kReceiverToSender));  // wrong dir

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto st = server.mux().stats();
    if (st.frames_rejected >= 2 && st.frames_unknown_session >= 1) break;
    std::this_thread::sleep_for(1ms);
  }
  server.mux().stop();

  const auto st = server.mux().stats();
  EXPECT_EQ(st.frames_rejected, 2u);  // garbage + wrong direction
  EXPECT_EQ(st.frames_unknown_session, 1u);
  EXPECT_EQ(st.frames_received, 0u);
  EXPECT_EQ(count_events(recorder.drain(), net::TraceEventKind::kFrameRejected),
            2u);
}

TEST(NetMux, InboxBackpressureSheds) {
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.inbox_limit = 2;
  cfg.sweep_interval = 200ms;  // workers effectively parked during the flood
  net::StpServer server(wire.b.get(), cfg);
  auto pair = proto::make_stenning(kDomain);
  server.add_session(1, std::move(pair.receiver), seq_for(1, 3));
  server.mux().start();

  for (int i = 0; i < 200; ++i) wire.a->send(frame_bytes(1, 0));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline &&
         server.mux().stats().frames_shed == 0) {
    std::this_thread::sleep_for(1ms);
  }
  server.mux().stop();
  EXPECT_GT(server.mux().stats().frames_shed, 0u);
}

TEST(NetMux, IdleSessionsAreEvicted) {
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.sweep_interval = 1ms;
  cfg.idle_eviction_sweeps = 3;
  cfg.keepalive_sweeps = 0;
  net::PrefixProbe probe(1);
  cfg.probe = &probe;
  net::StpServer server(wire.b.get(), cfg);  // no client: a dead peer
  auto pair = proto::make_stenning(kDomain);
  server.add_session(1, std::move(pair.receiver), seq_for(1, 3));
  server.mux().start();
  EXPECT_TRUE(server.mux().drain(5s));
  server.mux().stop();

  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].state, net::SessionState::kEvicted);
  EXPECT_EQ(server.mux().stats().sessions_evicted, 1u);
  EXPECT_EQ(probe.entered(net::SessionState::kEvicted), 1u);
}

TEST(NetMux, DuplicateSessionIdIsAContractError) {
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.b.get(), {});
  auto p1 = proto::make_stenning(kDomain);
  auto p2 = proto::make_stenning(kDomain);
  mux.add_session(5,
                  std::make_unique<proto::ReceiverSessionEndpoint>(
                      std::move(p1.receiver), seq_for(5, 2)),
                  false);
  EXPECT_THROW(mux.add_session(5,
                               std::make_unique<proto::ReceiverSessionEndpoint>(
                                   std::move(p2.receiver), seq_for(5, 2)),
                               false),
               ContractError);
}

TEST(NetMux, OutOfOrderRegistrationRoutesAndCatchesDuplicates) {
  // The id index is kept sorted on insert, so a mid-index duplicate must
  // be caught by the search, and sessions registered in any order (each
  // end in a different one) must still route and complete.
  const std::vector<std::uint32_t> ids = {40, 7, 23, 3, 31, 12};
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.sweep_interval = 200us;
  net::StpClient client(wire.a.get(), cfg);
  net::StpServer server(wire.b.get(), cfg);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto pair = proto::make_stenning(kDomain);
    const std::uint32_t cid = ids[i];
    const std::uint32_t sid = ids[ids.size() - 1 - i];
    client.add_session(cid, std::move(pair.sender), seq_for(cid, 4));
    auto other = proto::make_stenning(kDomain);
    server.add_session(sid, std::move(other.receiver), seq_for(sid, 4));
  }
  for (const std::uint32_t dup : {3u, 23u, 40u}) {
    auto pair = proto::make_stenning(kDomain);
    EXPECT_THROW(server.add_session(dup, std::move(pair.receiver),
                                    seq_for(dup, 4)),
                 ContractError)
        << "id " << dup;
  }
  ASSERT_TRUE(net::run_service_pair(client, server, 10s));
  expect_all_completed(client.mux(), ids.size(), 4);
  expect_all_completed(server.mux(), ids.size(), 4);
  EXPECT_EQ(server.mux().stats().frames_unknown_session, 0u);
}

TEST(NetMux, PublishedMetricNamesMatchGolden) {
  // Every counter, the verdicts, the gauge and the histogram of an
  // unstarted mux holding one sender and one receiver, byte for byte.
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.b.get(), {});
  auto pair = proto::make_stenning(kDomain);
  mux.add_session(1,
                  std::make_unique<proto::SenderSessionEndpoint>(
                      std::move(pair.sender), seq_for(1, 2)),
                  true);
  mux.add_session(2,
                  std::make_unique<proto::ReceiverSessionEndpoint>(
                      std::move(pair.receiver), seq_for(1, 2)),
                  false);
  obs::MetricsRegistry reg;
  mux.publish_metrics(reg);
  EXPECT_EQ(reg.to_json() + "\n", golden::read("net_metrics.json"));
}

TEST(NetMux, PublishesMetrics) {
  net::MuxConfig cfg;
  cfg.sweep_interval = 200us;
  auto run = make_service(3, {}, cfg);
  ASSERT_TRUE(net::run_service_pair(*run.client, *run.server, 10s));

  obs::MetricsRegistry reg;
  run.server->mux().publish_metrics(reg);
  EXPECT_GT(reg.counter_value("net.frames.sent"), 0u);
  EXPECT_GT(reg.counter_value("net.frames.received"), 0u);
  EXPECT_GT(reg.counter_value("net.fins.sent"), 0u);
  EXPECT_EQ(reg.counter_value("net.items.done"), 12u);
  EXPECT_EQ(reg.counter_value("net.verdict.completed"), 3u);
  EXPECT_EQ(reg.counter_value("net.verdict.safety-violation"), 0u);
  ASSERT_EQ(reg.gauges().count("net.sessions.active"), 1u);
  EXPECT_EQ(reg.gauges().at("net.sessions.active").value(), 0);

  obs::MetricsRegistry creg;
  run.client->mux().publish_metrics(creg);
  ASSERT_EQ(creg.histograms().count("net.ack_rtt_us"), 1u);
  EXPECT_GT(creg.histograms().at("net.ack_rtt_us").count(), 0u);
}

// --------------------------------------------------------------------------
// Retransmission: reply-clocked repeats, the RTO timer, Karn sampling.
//
// Each run puts a TickEndpoint beside the session under test in a
// one-worker mux: it sends a fresh message on every step, so its frames on
// the wire count the mux's sweeps exactly, whatever the host's load.
// --------------------------------------------------------------------------

/// Never finishes; step k returns k / per_msg.
class TickEndpoint final : public proto::ISessionEndpoint {
 public:
  explicit TickEndpoint(sim::MsgId per_msg = 1) : per_msg_(per_msg) {}
  void on_deliver(sim::MsgId) override {}
  std::optional<sim::MsgId> step() override { return calls_++ / per_msg_; }
  bool done() const override { return false; }
  bool safety_ok() const override { return true; }
  std::size_t items_done() const override { return 0; }
  std::string name() const override { return "tick"; }

 private:
  sim::MsgId per_msg_;
  sim::MsgId calls_ = 0;
};

constexpr std::uint32_t kTested = 1;
constexpr std::uint32_t kTick = 2;

/// The far end of a mux's wire: every frame it sent, in order, and the
/// sweep each went out in (counted from the tick session's fresh
/// messages, so a re-sent tick does not count).
struct WireTap {
  net::ITransport* end = nullptr;
  std::size_t ticks_per_sweep = 1;
  std::vector<net::Frame> frames;

  void poll() {
    while (auto bytes = end->poll()) {
      if (auto f = net::decode(*bytes)) frames.push_back(*f);
    }
  }
  /// Sweep of each frame of `session`.  The tick session is registered
  /// after it, so it speaks last in every sweep.
  std::vector<std::size_t> sweeps_of(std::uint32_t session) const {
    std::vector<std::size_t> out;
    std::size_t ticks = 0;
    for (const auto& f : frames) {
      if (f.session == kTick) ticks = std::max<std::size_t>(ticks, f.msg + 1);
      if (f.session == session) out.push_back(ticks / ticks_per_sweep);
    }
    return out;
  }
  /// Sweeps completed so far.
  std::size_t sweeps() const {
    const auto ticks = sweeps_of(kTick);
    return ticks.empty() ? 0 : ticks.back();
  }
  template <class Pred>
  bool wait_until(Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(200us);
      poll();
    }
    return true;
  }
};

net::MuxConfig tick_cfg(std::size_t steps, std::uint64_t keepalive) {
  net::MuxConfig cfg;
  cfg.workers = 1;  // one shard: the tick shares every sweep
  cfg.steps_per_sweep = steps;
  cfg.max_inflight = 8;
  cfg.keepalive_sweeps = keepalive;
  cfg.sweep_interval = 1ms;
  return cfg;
}

/// A Stenning sender of `len` items under test, plus the tick.
void add_sender_and_tick(net::SessionMux& mux, std::size_t len) {
  mux.add_session(kTested,
                  std::make_unique<proto::SenderSessionEndpoint>(
                      proto::make_stenning(kDomain).sender,
                      seq_for(kTested, len)),
                  true);
  mux.add_session(kTick, std::make_unique<TickEndpoint>(), false);
}

void reply(net::ITransport& end, net::FrameKind kind, sim::MsgId msg) {
  end.send(frame_bytes(kTested, msg, sim::Dir::kReceiverToSender, kind));
}

TEST(NetMuxRetransmit, SilentPeerGetsOneFramePlusTimerResends) {
  // Nothing ever answers: no RTT sample, so the timer is the keepalive
  // floor alone.  The sender sends its frame once, then once every K
  // sweeps — not a copy per step until its 8-frame credit runs out.
  constexpr std::uint64_t kKeepalive = 4;
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.a.get(), tick_cfg(2, kKeepalive));
  add_sender_and_tick(mux, 4);
  WireTap tap{wire.b.get(), 2, {}};
  mux.start();
  ASSERT_TRUE(tap.wait_until([&] { return tap.sweeps() >= 40; }));
  mux.stop();
  tap.poll();

  const auto at = tap.sweeps_of(kTested);
  ASSERT_GE(at.size(), 5u);
  EXPECT_EQ(at.front(), 0u);
  std::vector<std::size_t> gaps;
  for (std::size_t i = 1; i < at.size(); ++i) {
    gaps.push_back(at[i] - at[i - 1]);
  }
  EXPECT_EQ(gaps, std::vector<std::size_t>(gaps.size(), kKeepalive));
  EXPECT_LE(at.size(), 1 + tap.sweeps() / kKeepalive);
  EXPECT_EQ(mux.stats().frames_sent, tap.frames.size());
}

TEST(NetMuxRetransmit, ReceiverSendsOneCopyOfAFramePerSweep) {
  // Two steps per sweep, and the endpoint says the same thing on both:
  // the second copy of each sweep is held back.
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.b.get(), tick_cfg(2, 4));
  mux.add_session(kTested, std::make_unique<TickEndpoint>(2), false);
  mux.start();
  WireTap tap{wire.a.get(), 1, {}};
  ASSERT_TRUE(tap.wait_until([&] { return tap.frames.size() >= 30; }));
  mux.stop();
  tap.poll();

  std::vector<sim::MsgId> got, want;
  for (const auto& f : tap.frames) {
    want.push_back(static_cast<sim::MsgId>(got.size()));
    got.push_back(f.msg);
  }
  EXPECT_EQ(got, want);
}

TEST(NetMuxRetransmit, AnsweredSenderStillKeepalivesAfterALostFin) {
  // The ack comes back late, so its Karn sample makes an RTO of ~3x that
  // delay.  The FIN is lost.  The sender's frame WAS answered, so it
  // re-sends on the plain keepalive cadence, K sweeps after its send,
  // instead of waiting out the RTO.
  constexpr std::uint64_t kKeepalive = 20;
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.a.get(), tick_cfg(1, kKeepalive));
  add_sender_and_tick(mux, 1);
  WireTap tap{wire.b.get(), 1, {}};
  mux.start();
  ASSERT_TRUE(tap.wait_until([&] { return !tap.sweeps_of(kTested).empty(); }));
  const std::size_t sent_at = tap.sweeps_of(kTested).front();
  ASSERT_TRUE(tap.wait_until([&] { return tap.sweeps() >= sent_at + 12; }));
  reply(*wire.b, net::FrameKind::kData, 1);  // ack(1); its FIN is lost
  ASSERT_TRUE(
      tap.wait_until([&] { return tap.sweeps_of(kTested).size() >= 2; }));
  reply(*wire.b, net::FrameKind::kFin, 1);
  ASSERT_TRUE(tap.wait_until(
      [&] { return mux.stats().sessions_completed == 1; }));
  mux.stop();

  const auto at = tap.sweeps_of(kTested);
  EXPECT_EQ(at[1] - at[0], kKeepalive);
}

TEST(NetMuxRetransmit, UnansweredFrameWaitsOutTheRto) {
  // Item 0 is acked ~140 sweeps after its one send: a Karn sample of
  // R ~ 140 sweep periods, so an RTO of 3R.  Item 1 then goes unanswered
  // past the keepalive floor of 200 sweeps, and is not re-sent there:
  // the RTO since its send has not run out yet.
  constexpr std::uint64_t kKeepalive = 200;
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.a.get(), tick_cfg(1, kKeepalive));
  add_sender_and_tick(mux, 2);
  WireTap tap{wire.b.get(), 1, {}};
  mux.start();
  ASSERT_TRUE(tap.wait_until([&] { return !tap.sweeps_of(kTested).empty(); }));
  const std::size_t sent_at = tap.sweeps_of(kTested).front();
  ASSERT_TRUE(tap.wait_until([&] { return tap.sweeps() >= sent_at + 140; }));
  reply(*wire.b, net::FrameKind::kData, 1);
  ASSERT_TRUE(
      tap.wait_until([&] { return tap.sweeps_of(kTested).size() >= 2; }));
  const auto item1_seen = std::chrono::steady_clock::now();
  const std::size_t item1_at = tap.sweeps_of(kTested)[1];
  ASSERT_TRUE(tap.wait_until(
      [&] { return tap.sweeps() >= item1_at + kKeepalive + 10; }));
  const auto window_end = std::chrono::steady_clock::now();
  const std::size_t copies = tap.sweeps_of(kTested).size();
  reply(*wire.b, net::FrameKind::kData, 2);
  reply(*wire.b, net::FrameKind::kFin, 2);
  ASSERT_TRUE(tap.wait_until(
      [&] { return mux.stats().sessions_completed == 1; }));
  mux.stop();

  const auto reports = mux.reports();
  ASSERT_FALSE(reports[0].ack_rtt_us.empty());  // item 0 went out once
  // One sample R: SRTT R, RTTVAR R/2, so an RTO of 3R, under the cap.
  const std::uint64_t rto_us = std::min<std::uint64_t>(
      3 * reports[0].ack_rtt_us.front(), net::RttEstimator::kMaxRtoUs);
  ASSERT_GT(rto_us, 200'000u);  // above the floor of 200 x 1 ms
  // A loaded host can stretch the window past the RTO, and then a re-send
  // is right: the window cannot be judged.  The slack covers this thread
  // noticing item 1 late.
  const auto window_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(window_end -
                                                            item1_seen)
          .count());
  if (window_us >= rto_us * 4 / 5) {
    GTEST_SKIP() << "window of " << window_us << " us too close to the RTO of "
                 << rto_us << " us to judge";
  }
  EXPECT_EQ(copies, 2u);  // item 0 once, item 1 once
}

TEST(NetMuxRetransmit, RepeatedFrameYieldsNoRttSample) {
  // Karn: once a frame has gone out twice, an answer cannot tell which
  // copy it answers, so it is not timed.
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.a.get(), tick_cfg(2, 4));
  add_sender_and_tick(mux, 1);
  WireTap tap{wire.b.get(), 2, {}};
  mux.start();
  ASSERT_TRUE(
      tap.wait_until([&] { return tap.sweeps_of(kTested).size() >= 2; }));
  reply(*wire.b, net::FrameKind::kData, 1);
  reply(*wire.b, net::FrameKind::kFin, 1);
  ASSERT_TRUE(tap.wait_until(
      [&] { return mux.stats().sessions_completed == 1; }));
  mux.stop();

  const auto reports = mux.reports();
  ASSERT_EQ(reports[0].id, kTested);
  EXPECT_EQ(reports[0].state, net::SessionState::kCompleted);
  EXPECT_TRUE(reports[0].ack_rtt_us.empty());
}

TEST(NetMuxRetransmit, DurableReceiverThatAcksEverySweepSendsNoKeepalive) {
  // Its acks wait in the write-ahead hold until the sweep's checkpoint
  // flush, but it is speaking every sweep: one ack per sweep, and no
  // keepalive on top.
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();
  net::MuxConfig cfg = tick_cfg(1, 4);
  cfg.session_stores = {&st};
  net::SessionMux mux(wire.b.get(), cfg);
  mux.add_session(kTested,
                  std::make_unique<proto::ReceiverSessionEndpoint>(
                      proto::make_stenning(kDomain).receiver,
                      seq_for(kTested, 4)),
                  false);
  mux.add_session(kTick, std::make_unique<TickEndpoint>(), false);
  mux.start();
  WireTap tap{wire.a.get(), 1, {}};
  ASSERT_TRUE(tap.wait_until([&] { return tap.sweeps() >= 40; }));
  mux.stop();
  tap.poll();

  EXPECT_EQ(tap.sweeps_of(kTested).size(), tap.sweeps());
}

TEST(NetMuxRetransmit, RtoFollowsRfc6298AndNeverExceedsItsCap) {
  net::RttEstimator rtt;
  EXPECT_EQ(rtt.rto_us(), 0u);  // no sample: the keepalive floor rules
  rtt.sample(1000);              // SRTT 1000, RTTVAR 500
  EXPECT_EQ(rtt.rto_us(), 3000u);
  EXPECT_EQ(rtt.rto_us(/*backed_off=*/true), 6000u);
  rtt.sample(2000);  // RTTVAR (3*500 + 1000)/4, SRTT (7*1000 + 2000)/8
  EXPECT_EQ(rtt.rto_us(), 1125u + 4 * 625u);

  const std::uint64_t cap = net::RttEstimator::kMaxRtoUs;
  for (const std::uint64_t big :
       {cap / 2, cap, 10 * cap, std::numeric_limits<std::uint64_t>::max()}) {
    rtt.sample(big);
    EXPECT_LE(rtt.rto_us(), cap);
    EXPECT_LE(rtt.rto_us(/*backed_off=*/true), cap);
  }
  EXPECT_EQ(rtt.rto_us(), cap);
  for (int i = 0; i < 200; ++i) rtt.sample(100);
  EXPECT_LT(rtt.rto_us(), cap / 100);  // and comes back down
}

// --------------------------------------------------------------------------
// Acceptance: >= 1000 concurrent sessions over a lossy, reordering link.
// --------------------------------------------------------------------------

TEST(NetMuxAcceptance, ThousandSessionsOverLossyReorderingLink) {
  constexpr std::size_t kSessions = 1000;
  constexpr std::size_t kLen = 3;

  net::LoopbackConfig wire;
  fault::FaultPlan plan = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kSenderToReceiver, 9, 1,
      500'000);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender, 11, 1,
                                       500'000);
  plan.actions.insert(plan.actions.end(), rs.actions.begin(),
                      rs.actions.end());
  wire.plan = plan;
  wire.reorder_window = 4;
  wire.seed = 0xACCE55;
  wire.max_queue = 16384;  // bounded channel: overflow is just more loss

  net::PrefixProbe probe(kSessions);
  net::MuxConfig cfg;
  cfg.workers = 2;
  cfg.steps_per_sweep = 2;
  cfg.max_inflight = 8;
  cfg.inbox_limit = 64;
  cfg.keepalive_sweeps = 4;
  cfg.sweep_interval = 500us;

  net::MuxConfig server_cfg = cfg;
  server_cfg.probe = &probe;

  auto runp = net::make_loopback(wire);
  net::StpClient client(runp.a.get(), cfg);
  net::StpServer server(runp.b.get(), server_cfg);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, kLen);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
  }

  ASSERT_TRUE(net::run_service_pair(client, server, 120s));

  // Every session on both ends completed; no violations, no evictions.
  const auto ss = server.mux().stats();
  const auto cs = client.mux().stats();
  EXPECT_EQ(ss.sessions_completed, kSessions);
  EXPECT_EQ(cs.sessions_completed, kSessions);
  EXPECT_EQ(ss.sessions_violated, 0u);
  EXPECT_EQ(ss.sessions_evicted, 0u);

  // Exact copy: each receiver's tape equals its expected sequence (the
  // adapter equality-checks every write; items == len at completion).
  expect_all_completed(server.mux(), kSessions, kLen);
  expect_all_completed(client.mux(), kSessions, kLen);

  // Prefix safety held at every write, not just at the end.
  EXPECT_FALSE(probe.out_of_order());
  EXPECT_EQ(probe.entered(net::SessionState::kSafetyViolation), 0u);
  EXPECT_EQ(probe.items(), kSessions * kLen);
  EXPECT_EQ(ss.items_done, kSessions * kLen);

  // The link really was hostile.
  EXPECT_GT(runp.stats(sim::Dir::kSenderToReceiver).dropped, 0u);
  EXPECT_GT(runp.stats(sim::Dir::kReceiverToSender).dropped, 0u);
}

// --------------------------------------------------------------------------
// Fabric heartbeat: the pump answers kProbe with an echoed kProbeAck
// --------------------------------------------------------------------------

TEST(NetMux, PumpAnswersProbesWithEchoedNonce) {
  auto link = net::make_loopback({});
  net::FlightRecorder recorder;
  net::MuxConfig cfg;
  cfg.probe = &recorder;
  net::StpServer server(link.b.get(), cfg);
  auto pp = proto::make_stenning(kDomain);
  server.add_session(1, std::move(pp.receiver), seq_for(1, 2));
  server.mux().start();

  // A router's heartbeat: kProbe on the reserved fabric session, nonce in
  // msg.  The pump must answer with kProbeAck, flipped direction, nonce
  // echoed — without disturbing any session.
  for (const sim::MsgId nonce : {sim::MsgId{7}, sim::MsgId{-3}}) {
    ASSERT_TRUE(link.a->send(frame_bytes(net::kFabricSession, nonce,
                                         sim::Dir::kSenderToReceiver,
                                         net::FrameKind::kProbe)));
    std::optional<net::Frame> ack;
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (!ack && std::chrono::steady_clock::now() < deadline) {
      if (auto bytes = link.a->poll()) {
        auto f = net::decode(*bytes);
        ASSERT_TRUE(f.has_value());
        if (f->kind == net::FrameKind::kProbeAck) ack = f;
        // Session traffic (acks/keepalives) may interleave; skip it.
      } else {
        std::this_thread::sleep_for(1ms);
      }
    }
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->session, net::kFabricSession);
    EXPECT_EQ(ack->msg, nonce);
    EXPECT_EQ(ack->dir, sim::Dir::kReceiverToSender);
  }
  server.mux().stop();
  EXPECT_GE(server.mux().stats().probes_answered, 2u);
  EXPECT_GE(count_events(recorder.drain(), net::TraceEventKind::kProbeAnswered),
            2u);
  // The heartbeat never touched the hosted session.
  EXPECT_EQ(server.mux().stats().sessions_violated, 0u);
}

// --------------------------------------------------------------------------
// UDP transport (skipped where the sandbox forbids sockets)
// --------------------------------------------------------------------------

TEST(NetUdp, PairRoundTripsFrames) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  auto pair = net::make_udp_pair();
  if (!pair) GTEST_SKIP() << "environment forbids UDP sockets";

  const auto out = frame_bytes(11, 42);
  ASSERT_TRUE(pair->a->send(out));
  std::optional<std::vector<std::uint8_t>> in;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!in && std::chrono::steady_clock::now() < deadline) {
    in = pair->b->poll();
    if (!in) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(in.has_value());
  const auto f = net::decode(*in);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->session, 11u);
  EXPECT_EQ(f->msg, 42);

  // And the reverse direction.
  ASSERT_TRUE(pair->b->send(frame_bytes(11, 43, sim::Dir::kReceiverToSender)));
  std::optional<std::vector<std::uint8_t>> back;
  const auto deadline2 = std::chrono::steady_clock::now() + 2s;
  while (!back && std::chrono::steady_clock::now() < deadline2) {
    back = pair->a->poll();
    if (!back) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(net::decode(*back)->msg, 43);
}

TEST(NetUdp, SmallServiceRunOverRealSockets) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  auto pair = net::make_udp_pair();
  if (!pair) GTEST_SKIP() << "environment forbids UDP sockets";

  net::MuxConfig cfg;
  cfg.sweep_interval = 300us;
  net::StpClient client(pair->a.get(), cfg);
  net::StpServer server(pair->b.get(), cfg);
  for (std::uint32_t id = 0; id < 2; ++id) {
    auto proto_pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, 3);
    client.add_session(id, std::move(proto_pair.sender), x);
    server.add_session(id, std::move(proto_pair.receiver), x);
  }
  ASSERT_TRUE(net::run_service_pair(client, server, 20s));
  expect_all_completed(server.mux(), 2, 3);
  expect_all_completed(client.mux(), 2, 3);
}

TEST(NetUdp, TransientSendErrorsCountAsWireLossNotSheds) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  // Learn an ephemeral port the kernel just handed out, then close it so
  // nobody listens there; sends to it draw ECONNREFUSED on a connected
  // socket — wire loss, not a hard error.
  std::uint16_t dead_port = 0;
  {
    auto probe_pair = net::make_udp_pair();
    if (!probe_pair) GTEST_SKIP() << "environment forbids UDP sockets";
    dead_port = probe_pair->b->local_port();
  }
  ASSERT_NE(dead_port, 0);
  auto t = net::make_udp_connected(dead_port);
  if (!t) GTEST_SKIP() << "environment forbids UDP sockets";

  // The kernel echoes the refusal on the NEXT send or on recv, depending
  // on timing; either way it must be counted as transient wire loss —
  // send() keeps reporting frames accepted and nothing lands in
  // send_sheds.  Some sandboxes suppress the refusal echo entirely; skip
  // there, the invariant under test never gets exercised.
  const auto out = frame_bytes(5, 1);
  std::size_t sends = 0;
  std::size_t accepted = 0;
  auto refusals = [&] {
    const auto st = (*t)->stats();
    return st.send_transient_drops + st.recv_transient_errors;
  };
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (refusals() == 0 && std::chrono::steady_clock::now() < deadline) {
    ++sends;
    if ((*t)->send(out)) ++accepted;
    (*t)->poll();
    std::this_thread::sleep_for(1ms);
  }
  if (refusals() == 0) {
    GTEST_SKIP() << "environment never echoes ECONNREFUSED for dead ports";
  }
  const auto st = (*t)->stats();
  EXPECT_GE(st.send_transient_drops + st.recv_transient_errors, 1u);
  EXPECT_EQ(st.send_sheds, 0u);
  EXPECT_EQ(accepted, sends);  // every send still reported accepted
}

TEST(NetUdp, RendezvousHandshakeConnectsAPeer) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  auto rv = net::make_udp_rendezvous();
  if (!rv) GTEST_SKIP() << "environment forbids UDP sockets";
  auto dialer = net::make_udp_connected((*rv)->port());
  ASSERT_TRUE(dialer.has_value());
  // The hello is consumed by accept_peer; send a frame we can lose.
  ASSERT_TRUE((*dialer)->send(frame_bytes(1, 0)));
  auto accepted = (*rv)->accept_peer(2s);
  ASSERT_NE(accepted, nullptr);

  // After the handshake both ends are ordinary connected transports.
  // accept_peer answers the hello with a confirm (a stray kProbeAck on
  // the reserved fabric session, there for the retrying dialer) — a
  // plain dialer drops it like every other consumer.
  ASSERT_TRUE(accepted->send(frame_bytes(9, 77, sim::Dir::kReceiverToSender)));
  std::optional<std::vector<std::uint8_t>> in;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < deadline) {
    in = (*dialer)->poll();
    if (!in) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    const auto g = net::decode(*in);
    if (g && g->session == net::kFabricSession) {
      in.reset();  // the rendezvous confirm; not the frame under test
      continue;
    }
    break;
  }
  ASSERT_TRUE(in.has_value());
  const auto f = net::decode(*in);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->session, 9u);
  EXPECT_EQ(f->msg, 77);
}

}  // namespace
}  // namespace stpx
