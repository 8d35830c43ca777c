#include "trace.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "alloc_count.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_nivcsw() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nivcsw);
}

std::uint64_t thread_nvcsw() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw);
}

/// Stenning's request id for a frame: data S->R carries seqno*domain+item,
/// acks R->S carry (highest seqno written)+1, FINs the item count.
std::int32_t stenning_item(const net::Frame& f, int domain) {
  std::int64_t item = -1;
  if (f.kind == net::FrameKind::kData) {
    item = f.dir == sim::Dir::kSenderToReceiver ? f.msg / domain : f.msg - 1;
  } else if (f.kind == net::FrameKind::kFin) {
    item = f.msg;
  }
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(item, -1,
                               std::numeric_limits<std::int32_t>::max()));
}

std::uint32_t clamp32(std::uint64_t v) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(v, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(unsigned sub_bits)
    : sub_bits_(sub_bits),
      buckets_((std::size_t{1} << sub_bits) * (65 - sub_bits), 0) {}

std::size_t Histogram::bucket_of(std::uint64_t v) const {
  const std::size_t exact = std::size_t{1} << sub_bits_;
  if (v < exact) return static_cast<std::size_t>(v);
  const std::size_t e = 63 - static_cast<std::size_t>(std::countl_zero(v));
  const std::size_t shift = e - sub_bits_;
  const std::size_t sub = static_cast<std::size_t>(v >> shift) & (exact - 1);
  return exact + shift * exact + sub;
}

double Histogram::bucket_mid(std::size_t b) const {
  const std::size_t exact = std::size_t{1} << sub_bits_;
  if (b < exact) return static_cast<double>(b);
  const std::size_t shift = (b - exact) / exact;
  const std::size_t sub = (b - exact) % exact;
  const double lo = std::ldexp(static_cast<double>(exact + sub),
                               static_cast<int>(shift));
  const double width = std::ldexp(1.0, static_cast<int>(shift));
  return lo + (width - 1.0) / 2.0;
}

void Histogram::add(std::uint64_t v) {
  ++buckets_[bucket_of(v)];
  ++count_;
}

void Histogram::merge(const Histogram& o) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += o.buckets_[i];
  }
  count_ += o.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto want = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= want) return bucket_mid(b);
  }
  return bucket_mid(buckets_.size() - 1);
}

const char* to_cstr(SpanOp op) {
  switch (op) {
    case kOpSend: return "transport.send";
    case kOpPoll: return "transport.poll";
    case kOpStep: return "proto.step";
    case kOpDeliver: return "proto.deliver";
    case kOpFin: return "proto.fin";
    case kOpSaveState: return "proto.save_state";
    case kOpRestoreState: return "proto.restore_state";
    case kOpAppendBatch: return "store.append_batch";
    case kOpReplay: return "store.replay";
    case kOpEmit: return "recorder.emit";
    case kOpInboundWait: return "mux.inbound_wait";
    case kOpAckHold: return "store.ack_hold";
  }
  return "?";
}

void LayerTotals::merge(const LayerTotals& o) {
  send_ns.merge(o.send_ns);
  poll_ns.merge(o.poll_ns);
  step_ns.merge(o.step_ns);
  deliver_ns.merge(o.deliver_ns);
  save_state_ns.merge(o.save_state_ns);
  emit_ns.merge(o.emit_ns);
  append_batch_ns.merge(o.append_batch_ns);
  ack_hold_ns.merge(o.ack_hold_ns);
  inbound_wait_ns.merge(o.inbound_wait_ns);
  sweep_period_ns.merge(o.sweep_period_ns);
  sends += o.sends;
  polls += o.polls;
  polls_empty += o.polls_empty;
  data_frames_sent += o.data_frames_sent;
  retx_frames += o.retx_frames;
  transport_allocs += o.transport_allocs;
  steps += o.steps;
  idle_steps += o.idle_steps;
  batches += o.batches;
  batch_records += o.batch_records;
  batch_bytes += o.batch_bytes;
  pump_cpu_ns += o.pump_cpu_ns;
  pump_wall_ns += o.pump_wall_ns;
  worker_cpu_ns += o.worker_cpu_ns;
  worker_wall_ns += o.worker_wall_ns;
  mux_nivcsw += o.mux_nivcsw;
  mux_allocs += o.mux_allocs;
}

// --- ThreadLog --------------------------------------------------------------

/// The calling thread's tallies.  Created on the thread's first decorated
/// call, merged into the Tracer when the thread exits (or on
/// flush_this_thread).  Everything it records into is allocated up front,
/// so recording itself allocates nothing and the thread's allocation
/// counter stays attributable.
class ThreadLog {
 public:
  ThreadLog() { begin(); }
  ~ThreadLog() { flush(/*restart=*/false); }
  ThreadLog(const ThreadLog&) = delete;
  ThreadLog& operator=(const ThreadLog&) = delete;

  LayerTotals t;
  std::uint64_t decorated_allocs = 0;
  bool pump = false;    // polled the transport
  bool worker = false;  // stepped or delivered to an endpoint

  /// A worker thread's call into an endpoint over [t0, t1].  The worker
  /// sleeps between sweeps, so a sweep starts at the first call after an
  /// idle gap longer than the tracer's sweep gap in which the thread
  /// blocked.  A stretch of finished sessions inside a sweep can leave as
  /// long a gap between endpoint calls, but the thread runs through it.
  void sweep_call(std::uint64_t t0, std::uint64_t t1) {
    if (t0 - last_activity_ns_ > Tracer::get().sweep_gap_ns()) {
      const std::uint64_t nvcsw = thread_nvcsw();
      if (nvcsw != sweep_nvcsw_) {
        if (sweep_start_ns_ != 0) t.sweep_period_ns.add(t0 - sweep_start_ns_);
        sweep_start_ns_ = t0;
      }
      sweep_nvcsw_ = nvcsw;
    }
    last_activity_ns_ = t1;
  }
  /// Any other worker-thread call (sends, checkpoints) ending at t1.
  void busy_until(std::uint64_t t1) { last_activity_ns_ = t1; }

  /// Spans are kept for every call of the sampled sessions (ids that are
  /// multiples of kSpanSessionStride), so each sampled request keeps its
  /// whole timeline; calls with no session are kept as they come.
  void span(SpanOp op, std::uint8_t side, std::uint32_t session,
            std::int32_t item, std::uint64_t t0, std::uint64_t t1) {
    if (session % kSpanSessionStride == 0 &&
        spans_.size() < spans_.capacity()) {
      spans_.push_back(Span{t0, clamp32(t1 - t0), session, item,
                            static_cast<std::uint8_t>(op), side});
    }
  }

  void capture(const std::vector<std::uint8_t>& bytes) {
    if (frames_.size() < frames_.capacity() &&
        bytes.size() == net::kFrameSize) {
      frames_.emplace_back();
      std::memcpy(frames_.back().data(), bytes.data(), net::kFrameSize);
    }
  }

  void flush(bool restart) {
    const std::uint64_t cpu = thread_cpu_ns();
    const std::uint64_t wall = now_ns();
    const std::uint64_t nivcsw = thread_nivcsw();
    const std::uint64_t allocs = thread_allocs();
    if (worker) {
      t.worker_cpu_ns += cpu - cpu0_;
      t.worker_wall_ns += wall - wall0_;
    } else if (pump) {
      t.pump_cpu_ns += cpu - cpu0_;
      t.pump_wall_ns += wall - wall0_;
    }
    if (worker || pump) {
      t.mux_nivcsw += nivcsw - nivcsw0_;
      const std::uint64_t total = allocs - allocs0_;
      t.mux_allocs += total > decorated_allocs ? total - decorated_allocs : 0;
    }
    Tracer::get().absorb(t, spans_, frames_);
    if (!restart) return;
    t = LayerTotals{};
    spans_ = {};
    frames_ = {};
    decorated_allocs = 0;
    pump = worker = false;
    begin();
  }

 private:
  void begin() {
    if (!Tracer::get().capture_full()) {
      spans_.reserve(kSpansPerThread);
      frames_.reserve(kFramesPerThread);
    }
    last_activity_ns_ = sweep_start_ns_ = sweep_nvcsw_ = 0;
    cpu0_ = thread_cpu_ns();
    wall0_ = now_ns();
    nivcsw0_ = thread_nivcsw();
    allocs0_ = thread_allocs();
  }

  static constexpr std::uint32_t kSpanSessionStride = 128;
  static constexpr std::size_t kSpansPerThread = 1 << 14;
  static constexpr std::size_t kFramesPerThread = 1 << 13;
  std::vector<Span> spans_;
  std::vector<FrameBytes> frames_;
  std::uint64_t last_activity_ns_ = 0, sweep_start_ns_ = 0, sweep_nvcsw_ = 0;
  std::uint64_t cpu0_ = 0, wall0_ = 0, nivcsw0_ = 0, allocs0_ = 0;
};

namespace {

ThreadLog& thread_log() {
  thread_local ThreadLog log;
  return log;
}

}  // namespace

// --- Tracer -----------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::flush_this_thread() { thread_log().flush(/*restart=*/true); }

void Tracer::absorb(
    const LayerTotals& t, const std::vector<Span>& spans,
    const std::vector<FrameBytes>& frames) {
  std::lock_guard<std::mutex> hold(mu_);
  totals_.merge(t);
  const std::size_t s = std::min(spans.size(), kMaxSpans - spans_.size());
  spans_.insert(spans_.end(), spans.begin(),
                spans.begin() + static_cast<std::ptrdiff_t>(s));
  const std::size_t f = std::min(frames.size(), kMaxFrames - frames_.size());
  frames_.insert(frames_.end(), frames.begin(),
                 frames.begin() + static_cast<std::ptrdiff_t>(f));
  if (spans_.size() >= kMaxSpans && frames_.size() >= kMaxFrames) {
    capture_full_.store(true, std::memory_order_relaxed);
  }
}

LayerTotals Tracer::totals() const {
  std::lock_guard<std::mutex> hold(mu_);
  return totals_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> hold(mu_);
  return spans_;
}

std::vector<FrameBytes> Tracer::frames() const {
  std::lock_guard<std::mutex> hold(mu_);
  return frames_;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> hold(mu_);
  totals_ = LayerTotals{};
  spans_.clear();
  frames_.clear();
  capture_full_.store(false, std::memory_order_relaxed);
}

// --- SessionTable -----------------------------------------------------------

struct SessionTable::Slot {
  struct Polled {
    std::uint64_t t_ns = 0;
    std::int64_t msg = 0;
    net::FrameKind kind = net::FrameKind::kData;
  };
  // Pump -> worker FIFO of polled frames (the mux's per-session inbox is
  // FIFO too, so deliveries come back in poll order; sheds leave gaps).
  std::atomic_flag lock;
  std::array<Polled, 32> in{};
  std::uint8_t in_head = 0, in_len = 0;
  // Worker-only: acks emitted by receiver steps, awaiting their send.
  std::array<std::pair<std::int64_t, std::uint64_t>, 8> emitted{};
  std::uint8_t em_head = 0, em_len = 0;
  std::array<std::uint8_t, net::kFrameSize> last_data{};
  bool has_last = false;
};

namespace {

class SpinGuard {
 public:
  explicit SpinGuard(std::atomic_flag& f) : f_(f) {
    while (f_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SpinGuard() { f_.clear(std::memory_order_release); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  std::atomic_flag& f_;
};

}  // namespace

SessionTable::SessionTable(std::size_t sessions, std::uint8_t side, int domain)
    : slots_(std::make_unique<Slot[]>(sessions)),
      size_(sessions),
      side_(side),
      domain_(domain) {}

SessionTable::~SessionTable() = default;

SessionTable::Slot* SessionTable::slot(std::uint32_t session) {
  return session < size_ ? &slots_[session] : nullptr;
}

void SessionTable::note_polled(const net::Frame& f, std::uint64_t t_ns) {
  Slot* s = slot(f.session);
  if (s == nullptr) return;
  SpinGuard hold(s->lock);
  const std::size_t cap = s->in.size();
  if (s->in_len == cap) {  // full: the oldest mark is dropped
    s->in_head = static_cast<std::uint8_t>((s->in_head + 1) % cap);
    --s->in_len;
  }
  s->in[(s->in_head + s->in_len) % cap] = Slot::Polled{t_ns, f.msg, f.kind};
  ++s->in_len;
}

std::optional<std::uint64_t> SessionTable::take_polled(std::uint32_t session,
                                                       net::FrameKind kind,
                                                       std::int64_t msg) {
  Slot* s = slot(session);
  if (s == nullptr) return std::nullopt;
  SpinGuard hold(s->lock);
  const std::size_t cap = s->in.size();
  for (std::size_t i = 0; i < s->in_len; ++i) {
    const Slot::Polled& p = s->in[(s->in_head + i) % cap];
    if (p.kind != kind || p.msg != msg) continue;
    // Marks before the match were shed or never delivered: drop them.
    const std::uint64_t t = p.t_ns;
    s->in_head = static_cast<std::uint8_t>((s->in_head + i + 1) % cap);
    s->in_len = static_cast<std::uint8_t>(s->in_len - i - 1);
    return t;
  }
  return std::nullopt;
}

void SessionTable::note_emitted(std::uint32_t session, std::int64_t msg,
                                std::uint64_t t_ns) {
  Slot* s = slot(session);
  if (s == nullptr) return;
  const std::size_t cap = s->emitted.size();
  if (s->em_len == cap) {
    s->em_head = static_cast<std::uint8_t>((s->em_head + 1) % cap);
    --s->em_len;
  }
  s->emitted[(s->em_head + s->em_len) % cap] = {msg, t_ns};
  ++s->em_len;
}

SessionTable::SendMatch SessionTable::match_sent(
    const net::Frame& f, const std::vector<std::uint8_t>& bytes) {
  SendMatch m;
  Slot* s = slot(f.session);
  if (s == nullptr || f.kind != net::FrameKind::kData ||
      bytes.size() != net::kFrameSize) {
    return m;
  }
  m.retransmission =
      s->has_last && std::memcmp(s->last_data.data(), bytes.data(),
                                 net::kFrameSize) == 0;
  std::memcpy(s->last_data.data(), bytes.data(), net::kFrameSize);
  s->has_last = true;
  if (f.dir != sim::Dir::kReceiverToSender) return m;
  const std::size_t cap = s->emitted.size();
  for (std::size_t i = 0; i < s->em_len; ++i) {
    const auto& e = s->emitted[(s->em_head + i) % cap];
    if (e.first != f.msg) continue;
    m.emitted_ns = e.second;
    s->em_head = static_cast<std::uint8_t>((s->em_head + i + 1) % cap);
    s->em_len = static_cast<std::uint8_t>(s->em_len - i - 1);
    break;
  }
  return m;
}

// --- TimedTransport ---------------------------------------------------------

bool TimedTransport::send(const std::vector<std::uint8_t>& bytes) {
  ThreadLog& log = thread_log();
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  const bool ok = inner_->send(bytes);
  const std::uint64_t t1 = now_ns();
  const std::uint64_t da = thread_allocs() - a0;
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (log.worker) log.busy_until(t1);
  log.t.send_ns.add(t1 - t0);
  ++log.t.sends;
  log.t.transport_allocs += da;
  log.decorated_allocs += da;
  log.capture(bytes);
  if (const auto f = net::decode(bytes)) {
    const auto m = table_->match_sent(*f, bytes);
    const std::int32_t item = stenning_item(*f, table_->domain());
    if (f->kind == net::FrameKind::kData) {
      ++log.t.data_frames_sent;
      if (m.retransmission) ++log.t.retx_frames;
    }
    if (m.emitted_ns) {
      log.t.ack_hold_ns.add(t1 - *m.emitted_ns);
      log.span(kOpAckHold, table_->side(), f->session, item, *m.emitted_ns, t1);
    }
    log.span(kOpSend, table_->side(), f->session, item, t0, t1);
  }
  return ok;
}

std::optional<std::vector<std::uint8_t>> TimedTransport::poll() {
  ThreadLog& log = thread_log();
  log.pump = true;
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  auto bytes = inner_->poll();
  const std::uint64_t t1 = now_ns();
  const std::uint64_t da = thread_allocs() - a0;
  log.t.poll_ns.add(t1 - t0);
  ++log.t.polls;
  log.t.transport_allocs += da;
  log.decorated_allocs += da;
  if (!bytes) {
    ++log.t.polls_empty;
    return bytes;
  }
  polled_.fetch_add(1, std::memory_order_relaxed);
  if (const auto f = net::decode(*bytes)) {
    table_->note_polled(*f, t1);
    log.span(kOpPoll, table_->side(), f->session,
             stenning_item(*f, table_->domain()), t0, t1);
  }
  return bytes;
}

// --- TimedEndpoint ----------------------------------------------------------

void TimedEndpoint::inbound(net::FrameKind kind, sim::MsgId msg,
                            std::uint64_t t_ns) {
  ThreadLog& log = thread_log();
  if (const auto polled = table_->take_polled(session_, kind, msg)) {
    log.t.inbound_wait_ns.add(t_ns - *polled);
    net::Frame f;
    f.kind = kind;
    f.dir = is_sender_ ? sim::Dir::kReceiverToSender
                       : sim::Dir::kSenderToReceiver;
    f.msg = msg;
    log.span(kOpInboundWait, table_->side(), session_,
             stenning_item(f, table_->domain()), *polled, t_ns);
  }
}

void TimedEndpoint::on_deliver(sim::MsgId msg) {
  ThreadLog& log = thread_log();
  log.worker = true;
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  inner_->on_deliver(msg);
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  log.sweep_call(t0, t1);
  log.t.deliver_ns.add(t1 - t0);
  inbound(net::FrameKind::kData, msg, t0);
  log.span(kOpDeliver, table_->side(), session_,
           static_cast<std::int32_t>(inner_->items_done()), t0, t1);
}

void TimedEndpoint::on_fin() {
  ThreadLog& log = thread_log();
  log.worker = true;
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  inner_->on_fin();
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  log.sweep_call(t0, t1);
  // on_fin() carries no payload; a FIN's msg is the receiver's item
  // count, which equals the sender's items_done() once finished.
  if (const auto polled = table_->take_polled(
          session_, net::FrameKind::kFin,
          static_cast<std::int64_t>(inner_->items_done()))) {
    log.t.inbound_wait_ns.add(t0 - *polled);
  }
  log.span(kOpFin, table_->side(), session_,
           static_cast<std::int32_t>(inner_->items_done()), t0, t1);
}

std::optional<sim::MsgId> TimedEndpoint::step() {
  ThreadLog& log = thread_log();
  log.worker = true;
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  const auto out = inner_->step();
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  log.sweep_call(t0, t1);
  log.t.step_ns.add(t1 - t0);
  ++log.t.steps;
  if (!out) ++log.t.idle_steps;
  if (!is_sender_ && out) table_->note_emitted(session_, *out, t1);
  std::int32_t item = -1;
  if (!is_sender_) {
    item = static_cast<std::int32_t>(inner_->items_done());
  } else if (out) {
    item = static_cast<std::int32_t>(*out / table_->domain());
  }
  log.span(kOpStep, table_->side(), session_, item, t0, t1);
  return out;
}

std::string TimedEndpoint::save_state() const {
  ThreadLog& log = thread_log();
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  std::string blob = inner_->save_state();
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  log.busy_until(t1);
  log.t.save_state_ns.add(t1 - t0);
  log.span(kOpSaveState, table_->side(), session_,
           static_cast<std::int32_t>(inner_->items_done()), t0, t1);
  return blob;
}

bool TimedEndpoint::restore_state(const std::string& blob) {
  ThreadLog& log = thread_log();
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  const bool ok = inner_->restore_state(blob);
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  log.span(kOpRestoreState, table_->side(), session_,
           static_cast<std::int32_t>(inner_->items_done()), t0, t1);
  return ok;
}

// --- TimedStore -------------------------------------------------------------

void TimedStore::append_batch(const std::vector<std::string>& states) {
  ThreadLog& log = thread_log();
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  inner_->append_batch(states);
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  if (log.worker) log.busy_until(t1);
  log.t.append_batch_ns.add(t1 - t0);
  ++log.t.batches;
  log.t.batch_records += states.size();
  for (const std::string& s : states) log.t.batch_bytes += s.size();
  log.span(kOpAppendBatch, 1, 0, -1, t0, t1);
}

store::ReplayResult TimedStore::replay() {
  ThreadLog& log = thread_log();
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  auto r = inner_->replay();
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  replay_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
  log.span(kOpReplay, 1, 0, -1, t0, t1);
  return r;
}

// --- TimedProbe -------------------------------------------------------------

template <class F>
void TimedProbe::timed(std::uint32_t session, F&& f) {
  ThreadLog& log = thread_log();
  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  f();
  const std::uint64_t t1 = now_ns();
  log.decorated_allocs += thread_allocs() - a0;
  log.t.emit_ns.add(t1 - t0);
  log.span(kOpEmit, 1, session, -1, t0, t1);
}

void TimedProbe::on_frame_sent(std::uint32_t s, const net::Frame& f) {
  timed(s, [&] { inner_->on_frame_sent(s, f); });
}
void TimedProbe::on_frame_received(std::uint32_t s, const net::Frame& f) {
  timed(s, [&] { inner_->on_frame_received(s, f); });
}
void TimedProbe::on_frame_rejected(net::RejectReason why) {
  timed(0, [&] { inner_->on_frame_rejected(why); });
}
void TimedProbe::on_frame_shed(std::uint32_t s) {
  timed(s, [&] { inner_->on_frame_shed(s); });
}
void TimedProbe::on_item(std::uint32_t s, std::size_t index) {
  timed(s, [&] { inner_->on_item(s, index); });
}
void TimedProbe::on_session_state(std::uint32_t s, net::SessionState st) {
  timed(s, [&] { inner_->on_session_state(s, st); });
}
void TimedProbe::on_rehydrate(std::uint32_t s, std::size_t position,
                              net::SessionState st) {
  timed(s, [&] { inner_->on_rehydrate(s, position, st); });
}
void TimedProbe::on_probe_answered(std::int64_t nonce) {
  timed(0, [&] { inner_->on_probe_answered(nonce); });
}
void TimedProbe::on_checkpoint_flush(std::size_t shard, std::size_t records,
                                     std::uint64_t bytes,
                                     std::uint64_t duration_us) {
  timed(0, [&] {
    inner_->on_checkpoint_flush(shard, records, bytes, duration_us);
  });
}

// --- codec replay -----------------------------------------------------------

CodecReplay replay_codec(
    const std::vector<FrameBytes>& frames) {
  CodecReplay r;
  r.frames = frames.size();
  if (frames.empty()) return r;
  // Enough passes over the capture that each timing covers ~1M calls.
  const std::size_t passes =
      std::max<std::size_t>(1, (std::size_t{1} << 20) / frames.size());
  const double calls = static_cast<double>(passes * frames.size());
  std::vector<net::Frame> decoded(frames.size());
  std::uint64_t sink = 0;

  const std::uint64_t a0 = thread_allocs();
  const std::uint64_t t0 = now_ns();
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (const auto f = net::decode(frames[i].data(), net::kFrameSize)) {
        decoded[i] = *f;
      }
    }
  }
  const std::uint64_t t1 = now_ns();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const net::Frame& f : decoded) {
      sink += net::encode(f)[net::kFrameSize - 1];
    }
  }
  const std::uint64_t t2 = now_ns();
  const std::uint64_t allocs = thread_allocs() - a0;
  r.decode_ns = static_cast<double>(t1 - t0) / calls;
  r.encode_ns = static_cast<double>(t2 - t1) / calls;
  // Allocations of one decode plus one encode, per frame.
  r.allocs_per_frame = static_cast<double>(allocs) / calls;
  // Keep the encode results observable.
  if (sink == std::numeric_limits<std::uint64_t>::max()) r.frames = 0;
  return r;
}

}  // namespace perfbench
