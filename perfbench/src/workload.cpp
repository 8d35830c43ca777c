#include "workload.hpp"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>
#include <thread>

#include "fault/plan.hpp"
#include "net/flight_recorder.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "proto/suite.hpp"
#include "store/session_log.hpp"
#include "store/stable_store.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace stpx;

// Loss pattern of r4/r5: every 9th S->R and every 11th R->S send is lost.
constexpr std::uint64_t kDropPeriodSr = 9;
constexpr std::uint64_t kDropPeriodRs = 11;
constexpr std::size_t kReorderWindow = 4;

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

net::LoopbackConfig lossy_wire(const Spec& spec, std::uint64_t seed) {
  // Enough plan actions to keep the loss going for a whole round.
  const std::uint64_t horizon = spec.sessions * spec.items * 16;
  net::LoopbackConfig wire;
  wire.plan = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                   sim::Dir::kSenderToReceiver, kDropPeriodSr,
                                   1, horizon);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender,
                                       kDropPeriodRs, 1, horizon);
  wire.plan.actions.insert(wire.plan.actions.end(), rs.actions.begin(),
                           rs.actions.end());
  wire.reorder_window = kReorderWindow;
  wire.seed = seed;
  wire.max_queue = 65536;
  return wire;
}

/// The server's probe, present in every round, traced or not.  It checks
/// that each session's writes arrive in prefix order (seeded from
/// on_rehydrate across a restart, as r5's ProgressProbe does), fails on
/// any safety or recovery violation, records the gap between consecutive
/// writes of a session (not across a restart), and tees every hook into
/// `next` (the durable workload's FlightRecorder).
class ItemProbe final : public net::INetProbe {
 public:
  explicit ItemProbe(std::size_t sessions)
      : next_index_(sessions), last_write_ns_(sessions) {}

  /// Tee every hook into `next` from now on (before the mux starts).
  void set_next(net::INetProbe* next) { next_ = next; }

  void on_frame_sent(std::uint32_t s, const net::Frame& f) override {
    if (next_ != nullptr) next_->on_frame_sent(s, f);
  }
  void on_frame_received(std::uint32_t s, const net::Frame& f) override {
    if (next_ != nullptr) next_->on_frame_received(s, f);
  }
  void on_frame_rejected(net::RejectReason why) override {
    if (next_ != nullptr) next_->on_frame_rejected(why);
  }
  void on_frame_shed(std::uint32_t s) override {
    if (next_ != nullptr) next_->on_frame_shed(s);
  }
  void on_probe_answered(std::int64_t nonce) override {
    if (next_ != nullptr) next_->on_probe_answered(nonce);
  }
  void on_checkpoint_flush(std::size_t shard, std::size_t records,
                           std::uint64_t bytes,
                           std::uint64_t duration_us) override {
    if (next_ != nullptr) {
      next_->on_checkpoint_flush(shard, records, bytes, duration_us);
    }
  }

  void on_item(std::uint32_t s, std::size_t index) override {
    const std::uint64_t t = now_ns();
    if (s < next_index_.size()) {
      if (next_index_[s].load(std::memory_order_relaxed) != index) {
        out_of_order_.store(true, std::memory_order_relaxed);
      }
      next_index_[s].store(index + 1, std::memory_order_relaxed);
      const std::uint64_t last =
          last_write_ns_[s].exchange(t, std::memory_order_relaxed);
      // Only the server worker writes (one generation at a time, joined
      // in between); the main thread reads after stop().
      if (last != 0) gaps_.add(t - last);
    }
    if (next_ != nullptr) next_->on_item(s, index);
  }
  void on_session_state(std::uint32_t s, net::SessionState st) override {
    last_state_ns_.store(now_ns(), std::memory_order_relaxed);
    if (st == net::SessionState::kSafetyViolation ||
        st == net::SessionState::kRecoveryViolation) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    if (next_ != nullptr) next_->on_session_state(s, st);
  }
  void on_rehydrate(std::uint32_t s, std::size_t position,
                    net::SessionState st) override {
    if (s < next_index_.size()) {
      next_index_[s].store(position, std::memory_order_relaxed);
      // The gap across the restart is the restart (restore_s), not an item.
      last_write_ns_[s].store(0, std::memory_order_relaxed);
    }
    if (next_ != nullptr) next_->on_rehydrate(s, position, st);
  }

  /// A session re-added cold after a restart starts over from item 0.
  void restart_session(std::uint32_t s) {
    next_index_[s].store(0, std::memory_order_relaxed);
    last_write_ns_[s].store(0, std::memory_order_relaxed);
  }
  std::size_t min_progress() const {
    std::size_t lo = static_cast<std::size_t>(-1);
    for (const auto& n : next_index_) {
      lo = std::min(lo, n.load(std::memory_order_relaxed));
    }
    return lo;
  }
  /// When a session last became terminal.
  std::uint64_t last_state_ns() const { return last_state_ns_.load(); }
  bool out_of_order() const { return out_of_order_.load(); }
  std::uint64_t violations() const { return violations_.load(); }
  const Histogram& gaps() const { return gaps_; }

 private:
  std::vector<std::atomic<std::size_t>> next_index_;
  std::vector<std::atomic<std::uint64_t>> last_write_ns_;
  Histogram gaps_{kFineBits};
  std::atomic<bool> out_of_order_{false};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> last_state_ns_{0};
  net::INetProbe* next_ = nullptr;
};

/// The client's probe: when a session last became terminal, so a round's
/// run time ends when its last session did, not when the waiting main
/// thread next looked.
class LastStateProbe final : public net::INetProbe {
 public:
  void on_session_state(std::uint32_t, net::SessionState) override {
    last_ns_.store(now_ns(), std::memory_order_relaxed);
  }
  std::uint64_t last_ns() const { return last_ns_.load(); }

 private:
  std::atomic<std::uint64_t> last_ns_{0};
};

}  // namespace

std::uint64_t rss_bytes() {
  // Hand free heap pages back first: what the allocator keeps cached from
  // earlier rounds is not memory the sessions use.
  malloc_trim(0);
  long pages = 0, resident = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> pages >> resident;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

CpuTicks cpu_ticks() {
  // The "cpu" line sums every CPU; steal is its eighth field.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      // One step and one frame in flight per session and sweep: with r4's
      // 2 and 8, a peer stalled for a few ms (host steal) comes back to
      // thousands of queued frames, and the run falls into a retransmit
      // storm that measures the host.  README.md, "Workloads".
      {"fanout-1k", 1024, 8, /*durable=*/false, std::chrono::microseconds(300),
       /*steps_per_sweep=*/1, /*max_inflight=*/1},
      {"durable-10k", 10000, 6, /*durable=*/true,
       std::chrono::microseconds(400), /*steps_per_sweep=*/2,
       /*max_inflight=*/8},
  };
  return all;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<seq::Sequence> make_inputs(const Spec& spec, std::uint64_t seed) {
  stpx::Rng rng(seed);
  std::vector<seq::Sequence> out(spec.sessions);
  for (seq::Sequence& x : out) {
    x.resize(spec.items);
    for (seq::DataItem& d : x) {
      d = static_cast<seq::DataItem>(rng.below(kDomain));
    }
  }
  return out;
}

struct Round::State {
  const Spec& spec;
  const std::vector<seq::Sequence>& inputs;
  bool traced;
  double setup_s = 0.0;
  net::MuxConfig client_cfg, server_cfg;

  // Declared before the muxes, so they outlive them.
  net::LoopbackPair loop;
  std::unique_ptr<SessionTable> client_table, server_table;
  std::unique_ptr<TimedTransport> client_timed, server_timed;
  net::ITransport* client_t = nullptr;
  net::ITransport* server_t = nullptr;
  std::unique_ptr<store::FileStore> file0, file1;
  std::unique_ptr<TimedStore> timed0, timed1;
  std::unique_ptr<net::FlightRecorder> recorder;
  std::uint64_t recorder_bytes = 0;  // its rings, zero-filled at construction
  std::unique_ptr<TimedProbe> timed_recorder;
  std::unique_ptr<ItemProbe> probe;
  LastStateProbe client_probe;
  // Each session's receiver adapter (owned by the live server mux).
  std::vector<const proto::ReceiverSessionEndpoint*> tapes;

  std::unique_ptr<net::StpClient> client;
  std::unique_ptr<net::StpServer> server;  // generation 1
  std::unique_ptr<net::StpServer> gen2;    // after the restart

  State(const Spec& sp, const std::vector<seq::Sequence>& in, bool tr)
      : spec(sp), inputs(in), traced(tr) {}

  std::unique_ptr<proto::ISessionEndpoint> wrap(
      std::unique_ptr<proto::ISessionEndpoint> e, std::uint32_t id,
      bool is_sender) {
    if (!traced) return e;
    return std::make_unique<TimedEndpoint>(
        std::move(e), id, is_sender,
        is_sender ? client_table.get() : server_table.get());
  }

  std::unique_ptr<proto::ISessionEndpoint> receiver(std::uint32_t id) {
    auto rx = std::make_unique<proto::ReceiverSessionEndpoint>(
        proto::make_stenning(kDomain).receiver, inputs[id]);
    tapes[id] = rx.get();
    return wrap(std::move(rx), id, false);
  }

  void drain_recorder() {
    if (recorder) (void)recorder->drain();
  }

  std::uint64_t replay_ns() const {
    return timed0 ? timed0->replay_ns() + timed1->replay_ns() : 0;
  }
};

Round::Round(const Spec& spec, std::uint64_t seed,
             const std::vector<seq::Sequence>& inputs, bool traced,
             const std::string& scratch_dir)
    : s_(std::make_unique<State>(spec, inputs, traced)) {
  State& s = *s_;
  const std::size_t n = spec.sessions;
  // The benchmark's own probe and pairing tables are not the system's
  // set-up: they are built before the set-up clock starts.
  s.probe = std::make_unique<ItemProbe>(n);
  if (traced) {
    s.client_table = std::make_unique<SessionTable>(n, 0, kDomain);
    s.server_table = std::make_unique<SessionTable>(n, 1, kDomain);
  }
  const std::uint64_t t0 = now_ns();
  s.loop = net::make_loopback(lossy_wire(spec, seed));
  s.client_t = s.loop.a.get();
  s.server_t = s.loop.b.get();
  if (traced) {
    s.client_timed =
        std::make_unique<TimedTransport>(s.client_t, s.client_table.get());
    s.server_timed =
        std::make_unique<TimedTransport>(s.server_t, s.server_table.get());
    s.client_t = s.client_timed.get();
    s.server_t = s.server_timed.get();
  }

  // One worker per mux: with both pumps that is 4 threads in all.
  net::MuxConfig cfg;
  cfg.workers = 1;
  cfg.steps_per_sweep = spec.steps_per_sweep;
  cfg.max_inflight = spec.max_inflight;
  cfg.keepalive_sweeps = 4;
  cfg.sweep_interval = spec.sweep_interval;
  s.client_cfg = cfg;
  s.server_cfg = cfg;

  if (spec.durable) {
    s.file0 = std::make_unique<store::FileStore>(scratch_dir + "/log0");
    s.file1 = std::make_unique<store::FileStore>(scratch_dir + "/log1");
    s.file0->reset();
    s.file1->reset();
    if (traced) {
      s.timed0 = std::make_unique<TimedStore>(s.file0.get());
      s.timed1 = std::make_unique<TimedStore>(s.file1.get());
      s.server_cfg.session_stores = {s.timed0.get(), s.timed1.get()};
    } else {
      s.server_cfg.session_stores = {s.file0.get(), s.file1.get()};
    }
    // One ring per producer thread of both server generations, each deep
    // enough for the events of a whole 10k-session sweep between drains.
    net::FlightRecorderConfig rc;
    rc.shards = 4;
    rc.ring_capacity = std::size_t{1} << 16;
    s.recorder = std::make_unique<net::FlightRecorder>(rc);
    s.recorder_bytes = rc.shards * rc.ring_capacity * sizeof(net::TraceEvent);
    if (traced) {
      s.timed_recorder = std::make_unique<TimedProbe>(s.recorder.get());
      s.probe->set_next(s.timed_recorder.get());
    } else {
      s.probe->set_next(s.recorder.get());
    }
  }
  s.server_cfg.probe = s.probe.get();
  s.client_cfg.probe = &s.client_probe;

  s.client = std::make_unique<net::StpClient>(s.client_t, s.client_cfg);
  s.server = std::make_unique<net::StpServer>(s.server_t, s.server_cfg);
  s.tapes.assign(n, nullptr);
  for (std::uint32_t id = 0; id < n; ++id) {
    // Dup-ack go-back lets a durably rewound receiver pull its sender back.
    auto pair =
        proto::make_stenning(kDomain, /*sender_ack_rewind=*/spec.durable);
    s.client->mux().add_session(
        id,
        s.wrap(std::make_unique<proto::SenderSessionEndpoint>(
                   std::move(pair.sender), inputs[id]),
               id, true),
        /*is_sender=*/true);
    auto rx = std::make_unique<proto::ReceiverSessionEndpoint>(
        std::move(pair.receiver), inputs[id]);
    s.tapes[id] = rx.get();
    s.server->mux().add_session(id, s.wrap(std::move(rx), id, false),
                                /*is_sender=*/false);
  }
  s.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
}

double Round::setup_s() const { return s_->setup_s; }

Round::~Round() = default;

RoundResult Round::run(std::chrono::seconds timeout, bool measure_rss) {
  State& s = *s_;
  RoundResult r;
  const std::size_t n = s.spec.sessions;
  r.sessions = n;

  const CpuTicks ticks0 = cpu_ticks();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline =
      t0 + static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(timeout)
                   .count());
  // The main thread only waits, draining the recorder while it does.
  const auto wait_for = [&](const auto& pred) {
    while (!pred()) {
      if (now_ns() > deadline) return false;
      s.drain_recorder();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };

  s.client->mux().start();
  s.server->mux().start();
  net::StpServer* live = s.server.get();
  net::NetStats gen1{};
  std::uint64_t post0 = 0;
  if (s.spec.durable) {
    // Kill once every session has landed an item (and so is manifested).
    if (!wait_for([&] { return s.probe->min_progress() >= 1; })) {
      r.errors.push_back("timed out before every session landed an item");
    }
    s.server->mux().kill();
    gen1 = s.server->mux().stats();
    s.drain_recorder();
    // The killed generation's memory goes with it; every session is
    // re-admitted or re-added below, so no tape points into it after.
    s.server.reset();

    s.gen2 = std::make_unique<net::StpServer>(s.server_t, s.server_cfg);
    const std::uint64_t scan0 = s.replay_ns();
    const std::uint64_t tr0 = now_ns();
    const net::RehydrateReport rep = s.gen2->mux().rehydrate(
        [&](const store::SessionManifest& m)
            -> std::unique_ptr<proto::ISessionEndpoint> {
          if (m.is_sender || m.session >= n ||
              m.proto_tag != store::proto_tag_of("stenning-receiver")) {
            return nullptr;
          }
          return s.receiver(m.session);
        });
    r.restore_s = seconds_since(tr0);
    r.scan_ns = s.replay_ns() - scan0;
    for (const std::uint64_t us : rep.restore_latency_us) r.restore_us.add(us);
    if (rep.violations != 0 || rep.declined != 0) {
      r.errors.push_back("rehydrate: " + std::to_string(rep.violations) +
                         " recovery violations, " +
                         std::to_string(rep.declined) + " declined");
    }
    // A session killed before its first checkpoint has no manifest: it is
    // re-added cold and heals by full retransmission.
    std::vector<bool> present(n, false);
    for (const auto& rep_s : s.gen2->mux().reports()) {
      if (rep_s.id < n) present[rep_s.id] = true;
    }
    for (std::uint32_t id = 0; id < n; ++id) {
      if (present[id]) continue;
      s.probe->restart_session(id);
      s.gen2->mux().add_session(id, s.receiver(id), /*is_sender=*/false);
    }
    post0 = now_ns();
    s.gen2->mux().start();
    live = s.gen2.get();
  }

  const bool done = wait_for([&] {
    return s.client->mux().all_terminal() && live->mux().all_terminal();
  });
  r.cpu_ns = process_cpu_ns() - cpu0;
  r.steal_frac = steal_frac(ticks0, cpu_ticks());
  if (measure_rss) r.rss_bytes = rss_bytes();
  r.recorder_bytes = s.recorder_bytes;
  const std::uint64_t t1 = std::max(
      {done ? std::max(s.client_probe.last_ns(), s.probe->last_state_ns())
            : now_ns(),
       post0, t0});
  r.run_s = static_cast<double>(t1 - t0) / 1e9;
  if (s.spec.durable) r.post_restart_s = static_cast<double>(t1 - post0) / 1e9;
  if (!done) r.errors.push_back("timed out before every session finished");

  // Graceful shutdown, as run_service_pair does it.
  s.client->mux().drain(std::chrono::milliseconds(0));
  live->mux().drain(std::chrono::milliseconds(0));
  s.client->mux().stop();
  live->mux().stop();
  s.drain_recorder();

  // --- checks ---------------------------------------------------------------
  std::vector<bool> ok(n, true);
  std::uint64_t violated = 0;
  const auto check = [&](const std::vector<net::SessionReport>& reps,
                         bool server_side) {
    std::vector<bool> seen(n, false);
    for (const auto& rep_s : reps) {
      if (rep_s.id >= n) continue;
      seen[rep_s.id] = true;
      if (rep_s.state == net::SessionState::kSafetyViolation ||
          rep_s.state == net::SessionState::kRecoveryViolation) {
        ++violated;
      }
      if (rep_s.state != net::SessionState::kCompleted ||
          (server_side && rep_s.items != s.spec.items)) {
        ok[rep_s.id] = false;
      }
    }
    for (std::size_t id = 0; id < n; ++id) ok[id] = ok[id] && seen[id];
  };
  const auto client_reports = s.client->mux().reports();
  check(client_reports, false);
  check(live->mux().reports(), true);
  for (std::size_t id = 0; id < n; ++id) {
    if (s.tapes[id] == nullptr || s.tapes[id]->output() != s.inputs[id]) {
      ok[id] = false;
    }
  }
  r.sessions_failed =
      static_cast<std::size_t>(std::count(ok.begin(), ok.end(), false));
  if (violated != 0 || s.probe->violations() != 0) {
    r.errors.push_back(std::to_string(violated) +
                       " sessions ended in a safety or recovery violation");
  }
  if (s.probe->out_of_order()) {
    r.errors.push_back("a session wrote an item out of prefix order");
  }
  if (r.sessions_failed != 0) {
    r.errors.push_back(std::to_string(r.sessions_failed) +
                       " sessions did not finish with an exact copy");
  }

  // --- tallies --------------------------------------------------------------
  r.items = (n - r.sessions_failed) * s.spec.items;
  const net::NetStats cs = s.client->mux().stats();
  const net::NetStats ls = live->mux().stats();
  r.frames_sent = cs.frames_sent + ls.frames_sent + gen1.frames_sent;
  r.frames_received =
      cs.frames_received + ls.frames_received + gen1.frames_received;
  r.frames_shed = cs.frames_shed + ls.frames_shed + gen1.frames_shed;
  if (s.spec.durable) r.post_restart_writes = ls.items_done;
  r.item_gap_ns = s.probe->gaps();
  for (const auto& rep_s : client_reports) {
    for (const std::uint64_t us : rep_s.ack_rtt_us) r.ack_rtt_us.add(us);
  }
  if (s.recorder) {
    const auto st = s.recorder->stats();
    r.recorder_recorded = st.recorded;
    r.recorder_dropped = st.dropped;
  }
  if (s.traced) {
    r.wire_sent = s.client_timed->sent() + s.server_timed->sent();
    r.wire_polled = s.client_timed->polled() + s.server_timed->polled();
  }
  return r;
}

}  // namespace perfbench
