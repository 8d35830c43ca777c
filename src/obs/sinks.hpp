// Trace sinks: probes that serialize the event stream.
//
//   * JsonlSink — one JSON object per line, streamed to an ostream as the
//     run executes; the grep/jq-friendly archival form.
//   * ChromeTraceSink — buffers the run and exports Chrome trace-event JSON
//     (the format Perfetto and chrome://tracing load).  Sender, receiver,
//     and the two channel directions render as threads of one process;
//     sends/deliveries/writes/crashes are instant events on their track;
//     process steps are 1-step complete events; chaos fault *windows*
//     (blackout/freeze) are balanced B/E duration pairs on a dedicated
//     faults track, so a schedule's blind spots are visible as shaded
//     spans over the traffic they suppressed.
//   * ChromeTraceWriter — the one Chrome trace-event document writer,
//     shared with the wire export (net::write_wire_chrome_trace).
//
// Trace timestamps are engine steps, written as microseconds (1 step =
// 1 us) — Perfetto needs a time unit and steps are the only clock the
// model has.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/probe.hpp"

namespace stpx::obs {

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

/// Structural validity check (objects/arrays/strings/numbers/bools/null,
/// complete input).  Not a full RFC 8259 parser — enough to guarantee a
/// report or trace round-trips through a real one.
bool json_valid(const std::string& text);

/// Streams one JSON object per event line:
///   {"ev":"send","step":12,"dir":"S->R","msg":3}
class JsonlSink final : public IProbe {
 public:
  /// `out` is non-owning and must outlive the sink's use.
  explicit JsonlSink(std::ostream& out);

  void on_run_begin(std::size_t items_total) override;
  void on_step(std::uint64_t step, const sim::Action& a) override;
  void on_send(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_deliver(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_write(std::uint64_t step, std::size_t index,
                seq::DataItem item) override;
  void on_crash(std::uint64_t step, sim::Proc who) override;
  void on_restart(std::uint64_t step, sim::Proc who, bool rehydrated,
                  std::uint64_t records_replayed) override;
  void on_stall(std::uint64_t step) override;
  void on_run_end(std::uint64_t steps, sim::RunVerdict verdict) override;
  void on_fault(const FaultEvent& ev) override;

 private:
  std::ostream* out_;
};

/// The one Chrome trace-event JSON writer, shared by the engine export
/// (ChromeTraceSink) and the wire export (net::write_wire_chrome_trace);
/// callers only map their events onto tracks.  Fault windows are
/// lane-packed at construction — each takes the first lane whose previous
/// window has ended — so a caller can number further tracks after the
/// lanes (lanes_end()).  At equal timestamps a window's B sorts before
/// the instants and its E after them; otherwise events keep the order
/// they were added in.
class ChromeTraceWriter {
 public:
  /// One instant ("i", dur 0) or complete ("X", dur > 0) event.
  struct Event {
    std::uint64_t ts = 0;
    int tid = 0;
    std::string name;
    std::string args;        // pre-rendered JSON object body, may be empty
    std::uint64_t dur = 0;
  };
  /// One window, written as a balanced B/E pair (args on the B event).
  struct Window {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::string name;
    std::string args;
  };

  /// Lanes for `windows` are tracks first_lane_tid, first_lane_tid+1, ...
  ChromeTraceWriter(std::string process, std::vector<Window> windows,
                    int first_lane_tid);

  /// The first tid past the fault lanes.
  int lanes_end() const { return lanes_end_; }
  /// Name a track (thread_name metadata; written in tid order).
  void track(int tid, std::string name);
  void add(Event ev);
  /// Write {"displayTimeUnit":"ms","traceEvents":[...]}.
  void write_to(std::ostream& out) const;

 private:
  std::string process_;
  std::vector<Window> windows_;  // sorted by begin
  std::vector<int> window_tid_;  // lane track of each window
  int lanes_end_ = 0;
  std::map<int, std::string> tracks_;
  std::vector<Event> events_;
};

/// Buffers events and exports a Chrome trace-event JSON document.
class ChromeTraceSink final : public IProbe {
 public:
  void on_run_begin(std::size_t items_total) override;
  void on_step(std::uint64_t step, const sim::Action& a) override;
  void on_send(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_deliver(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_write(std::uint64_t step, std::size_t index,
                seq::DataItem item) override;
  void on_crash(std::uint64_t step, sim::Proc who) override;
  void on_restart(std::uint64_t step, sim::Proc who, bool rehydrated,
                  std::uint64_t records_replayed) override;
  void on_stall(std::uint64_t step) override;
  void on_fault(const FaultEvent& ev) override;

  /// Render everything buffered so far as {"traceEvents":[...]}.
  void write_to(std::ostream& out) const;
  std::string to_json() const;
  void clear();

 private:
  std::vector<ChromeTraceWriter::Event> instants_;
  std::vector<ChromeTraceWriter::Window> spans_;  // fault windows
};

}  // namespace stpx::obs
