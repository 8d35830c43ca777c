// Tracing for the benchmark's traced run: decorators around the stack's
// injection points, and the per-thread tallies they feed.
//
// Every decorator wraps one interface the stack already exposes and times
// the calls into it; nothing inside src/ is instrumented:
//
//   TimedTransport — net::ITransport (send / poll), one per mux side;
//   TimedEndpoint  — proto::ISessionEndpoint, handed to the mux through
//                    SessionMux::add_session or a rehydrate() factory;
//   TimedStore     — store::IStableStore (group commits, replay scans);
//   TimedProbe     — net::INetProbe, wrapping the FlightRecorder.
//
// Each call lands in the calling thread's ThreadLog (no locks on the hot
// path).  A thread's log is merged into the process-wide Tracer when the
// thread exits, so a round's totals are complete once its muxes have
// stopped.  Events that cross threads (a frame polled by the pump and
// delivered by a worker; an ack emitted by a step and sent after a group
// commit) are paired per session through a SessionTable, keyed by the
// frame's session and message id as net::decode reads them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/mux.hpp"
#include "net/transport.hpp"
#include "proto/session_adapter.hpp"
#include "store/stable_store.hpp"

namespace perfbench {

namespace net = stpx::net;
namespace proto = stpx::proto;
namespace sim = stpx::sim;
namespace store = stpx::store;

/// One captured wire frame.
using FrameBytes = std::array<std::uint8_t, net::kFrameSize>;

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns();

/// Log-linear histogram of non-negative integers: exact below 2^sub_bits,
/// then 2^sub_bits sub-buckets per power of two (relative error under
/// 2^-sub_bits).  Fixed memory however many samples it takes.
class Histogram {
 public:
  Histogram() : Histogram(6) {}
  explicit Histogram(unsigned sub_bits);
  void add(std::uint64_t v);
  /// Both histograms must have the same sub_bits.
  void merge(const Histogram& o);
  std::uint64_t count() const { return count_; }
  /// The nearest-rank q-quantile (0..1), as the midpoint of its bucket;
  /// 0 when empty.
  double quantile(double q) const;

 private:
  std::size_t bucket_of(std::uint64_t v) const;
  double bucket_mid(std::size_t b) const;
  unsigned sub_bits_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Sub-bucket precision of the end-to-end latency histograms (0.1%).
inline constexpr unsigned kFineBits = 10;

/// One recorded span.  (session, item) is the request id: the Stenning
/// item index a frame or call belongs to, -1 when it has none.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t session = 0;
  std::int32_t item = -1;
  std::uint8_t op = 0;    // SpanOp
  std::uint8_t side = 0;  // 0 = client, 1 = server
};

enum SpanOp : std::uint8_t {
  kOpSend = 0,
  kOpPoll,
  kOpStep,
  kOpDeliver,
  kOpFin,
  kOpSaveState,
  kOpRestoreState,
  kOpAppendBatch,
  kOpReplay,
  kOpEmit,
  kOpInboundWait,
  kOpAckHold,
};
const char* to_cstr(SpanOp op);

/// Additive tallies of one thread, or of all threads once merged.
struct LayerTotals {
  Histogram send_ns, poll_ns, step_ns, deliver_ns, save_state_ns, emit_ns,
      append_batch_ns, ack_hold_ns, inbound_wait_ns, sweep_period_ns;
  std::uint64_t sends = 0, polls = 0, polls_empty = 0;
  std::uint64_t data_frames_sent = 0, retx_frames = 0;
  std::uint64_t transport_allocs = 0;
  std::uint64_t steps = 0, idle_steps = 0;
  std::uint64_t batches = 0, batch_records = 0, batch_bytes = 0;
  // Thread-level figures, folded in when a thread's log is flushed.
  std::uint64_t pump_cpu_ns = 0, pump_wall_ns = 0;
  std::uint64_t worker_cpu_ns = 0, worker_wall_ns = 0;
  std::uint64_t mux_nivcsw = 0;  // involuntary switches of mux threads
  std::uint64_t mux_allocs = 0;  // mux-thread allocations outside decorators

  void merge(const LayerTotals& o);
};

/// Process-wide sink of the thread logs.
class Tracer {
 public:
  static Tracer& get();

  /// Merge the calling thread's log now (threads that outlive a round,
  /// such as the main thread, call this; mux threads merge on exit).
  void flush_this_thread();

  /// An idle gap longer than this, in which the worker blocked, before
  /// its endpoint call marks a new sweep (half the mux's sweep_interval:
  /// sweeps are separated by its sleep).
  void set_sweep_gap_ns(std::uint64_t ns) { sweep_gap_ns_.store(ns); }
  std::uint64_t sweep_gap_ns() const {
    return sweep_gap_ns_.load(std::memory_order_relaxed);
  }

  LayerTotals totals() const;
  std::vector<Span> spans() const;
  std::vector<FrameBytes> frames() const;
  void reset();

  // Caps on what is kept for export and codec replay.
  static constexpr std::size_t kMaxSpans = 1 << 18;
  static constexpr std::size_t kMaxFrames = 1 << 17;

 private:
  friend class ThreadLog;
  void absorb(const LayerTotals& t, const std::vector<Span>& spans,
              const std::vector<FrameBytes>& frames);
  bool capture_full() const {
    return capture_full_.load(std::memory_order_relaxed);
  }

  mutable std::mutex mu_;
  LayerTotals totals_;
  std::vector<Span> spans_;
  std::vector<FrameBytes> frames_;
  std::atomic<bool> capture_full_{false};
  std::atomic<std::uint64_t> sweep_gap_ns_{100000};
};

/// Per-session pairing state, one table per mux side.
class SessionTable {
 public:
  SessionTable(std::size_t sessions, std::uint8_t side, int domain);
  ~SessionTable();
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  std::uint8_t side() const { return side_; }
  int domain() const { return domain_; }

  /// Pump side: a poll returned `f` at `t_ns`.
  void note_polled(const net::Frame& f, std::uint64_t t_ns);
  /// Worker side: the frame (kind, msg) of `session` reaches its endpoint;
  /// returns when it was polled, if the pairing found it.
  std::optional<std::uint64_t> take_polled(std::uint32_t session,
                                           net::FrameKind kind,
                                           std::int64_t msg);
  /// Worker side: a receiver step emitted `msg` at `t_ns`.
  void note_emitted(std::uint32_t session, std::int64_t msg,
                    std::uint64_t t_ns);
  /// Worker side: a data frame left through the transport.  Returns the
  /// emit time of the step that produced it (ack hold), and counts it as a
  /// retransmission when byte-identical to the session's previous one.
  struct SendMatch {
    std::optional<std::uint64_t> emitted_ns;
    bool retransmission = false;
  };
  SendMatch match_sent(const net::Frame& f,
                       const std::vector<std::uint8_t>& bytes);

 private:
  struct Slot;
  Slot* slot(std::uint32_t session);
  std::unique_ptr<Slot[]> slots_;
  std::size_t size_ = 0;
  std::uint8_t side_ = 0;
  int domain_ = 0;
};

class TimedTransport final : public net::ITransport {
 public:
  TimedTransport(net::ITransport* inner, SessionTable* table)
      : inner_(inner), table_(table) {}
  bool send(const std::vector<std::uint8_t>& bytes) override;
  std::optional<std::vector<std::uint8_t>> poll() override;
  std::string name() const override { return inner_->name(); }

  std::uint64_t sent() const { return sent_.load(); }
  std::uint64_t polled() const { return polled_.load(); }

 private:
  net::ITransport* inner_;
  SessionTable* table_;
  std::atomic<std::uint64_t> sent_{0}, polled_{0};
};

class TimedEndpoint final : public proto::ISessionEndpoint {
 public:
  TimedEndpoint(std::unique_ptr<proto::ISessionEndpoint> inner,
                std::uint32_t session, bool is_sender, SessionTable* table)
      : inner_(std::move(inner)), session_(session), is_sender_(is_sender),
        table_(table) {}

  void on_deliver(sim::MsgId msg) override;
  void on_fin() override;
  std::optional<sim::MsgId> step() override;
  bool done() const override { return inner_->done(); }
  bool safety_ok() const override { return inner_->safety_ok(); }
  std::size_t items_done() const override { return inner_->items_done(); }
  std::string name() const override { return inner_->name(); }
  std::string save_state() const override;
  bool restore_state(const std::string& blob) override;

 private:
  void inbound(net::FrameKind kind, sim::MsgId msg, std::uint64_t t_ns);
  std::unique_ptr<proto::ISessionEndpoint> inner_;
  std::uint32_t session_;
  bool is_sender_;
  SessionTable* table_;
};

class TimedStore final : public store::IStableStore {
 public:
  explicit TimedStore(store::IStableStore* inner) : inner_(inner) {}

  void reset() override { inner_->reset(); }
  void append(const std::string& state) override { inner_->append(state); }
  void append_batch(const std::vector<std::string>& states) override;
  void sync() override { inner_->sync(); }
  void compact() override { inner_->compact(); }
  store::RecoveredState recover() override { return inner_->recover(); }
  store::ReplayResult replay() override;
  std::uint64_t appends() const override { return inner_->appends(); }
  void fault_torn_next_append() override { inner_->fault_torn_next_append(); }
  void fault_lose_tail(std::uint64_t n) override { inner_->fault_lose_tail(n); }
  void fault_corrupt_record() override { inner_->fault_corrupt_record(); }
  void fault_stale_snapshot() override { inner_->fault_stale_snapshot(); }
  std::string name() const override { return inner_->name(); }

  /// Total time spent inside replay() so far.
  std::uint64_t replay_ns() const { return replay_ns_.load(); }

 private:
  store::IStableStore* inner_;
  std::atomic<std::uint64_t> replay_ns_{0};
};

class TimedProbe final : public net::INetProbe {
 public:
  explicit TimedProbe(net::INetProbe* inner) : inner_(inner) {}
  void on_frame_sent(std::uint32_t s, const net::Frame& f) override;
  void on_frame_received(std::uint32_t s, const net::Frame& f) override;
  void on_frame_rejected(net::RejectReason why) override;
  void on_frame_shed(std::uint32_t s) override;
  void on_item(std::uint32_t s, std::size_t index) override;
  void on_session_state(std::uint32_t s, net::SessionState st) override;
  void on_rehydrate(std::uint32_t s, std::size_t position,
                    net::SessionState st) override;
  void on_probe_answered(std::int64_t nonce) override;
  void on_checkpoint_flush(std::size_t shard, std::size_t records,
                           std::uint64_t bytes,
                           std::uint64_t duration_us) override;

 private:
  template <class F>
  void timed(std::uint32_t session, F&& f);
  net::INetProbe* inner_;
};

/// Codec cost measured by replaying captured frames through
/// net::decode and net::encode.
struct CodecReplay {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double allocs_per_frame = 0.0;
  std::size_t frames = 0;
};
CodecReplay replay_codec(
    const std::vector<FrameBytes>& frames);

}  // namespace perfbench
