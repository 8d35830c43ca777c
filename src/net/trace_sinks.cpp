#include "net/trace_sinks.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "obs/sinks.hpp"

namespace stpx::net {

void write_trace_jsonl(std::ostream& out,
                       const std::vector<TraceEvent>& evs) {
  for (const TraceEvent& ev : evs) out << to_jsonl(ev) << '\n';
}

std::optional<std::vector<TraceEvent>> read_trace_jsonl(std::istream& in) {
  std::vector<TraceEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto ev = parse_jsonl(line);
    if (!ev) return std::nullopt;
    out.push_back(*ev);
  }
  return out;
}

namespace {

// Track (tid) layout inside the single trace process:
//   1                      rejects (session-unattributable)
//   2 .. 2+lanes-1         fault-window lanes (packed by the writer)
//   then one per shard     checkpoint flushes
//   then one, if any       fabric probes answered (no session of their own)
//   then one per session   everything session-scoped
constexpr int kTidRejects = 1;
constexpr int kTidFaultBase = 2;

std::string instant_name(const TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case TraceEventKind::kFrameSent:
      os << "send " << to_cstr(static_cast<FrameKind>(ev.detail)) << ' '
         << ev.msg;
      break;
    case TraceEventKind::kFrameReceived:
      os << "recv " << to_cstr(static_cast<FrameKind>(ev.detail)) << ' '
         << ev.msg;
      break;
    case TraceEventKind::kFrameShed:
      os << "shed";
      break;
    case TraceEventKind::kItem:
      os << "item[" << ev.msg << ']';
      break;
    case TraceEventKind::kSessionState:
      os << to_cstr(static_cast<SessionState>(ev.detail));
      break;
    case TraceEventKind::kRehydrate:
      os << "rehydrate@" << ev.msg;
      break;
    case TraceEventKind::kFrameRejected:
      os << "reject " << to_cstr(static_cast<RejectReason>(ev.detail));
      break;
    case TraceEventKind::kCheckpointFlush:
      os << "flush " << ev.msg;
      break;
    case TraceEventKind::kProbeAnswered:
      os << "probe-ack " << ev.msg;
      break;
  }
  return os.str();
}

std::string instant_args(const TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case TraceEventKind::kFrameSent:
    case TraceEventKind::kFrameReceived:
      os << "\"dir\":\"" << sim::to_cstr(ev.dir) << "\",\"msg\":" << ev.msg;
      break;
    case TraceEventKind::kItem:
      os << "\"index\":" << ev.msg;
      break;
    case TraceEventKind::kRehydrate:
      os << "\"position\":" << ev.msg << ",\"state\":\""
         << to_cstr(static_cast<SessionState>(ev.detail)) << '"';
      break;
    case TraceEventKind::kCheckpointFlush:
      os << "\"records\":" << ev.msg << ",\"dur_us\":" << ev.aux;
      break;
    default:
      break;
  }
  return os.str();
}

}  // namespace

void write_wire_chrome_trace(std::ostream& out,
                             const std::vector<TraceEvent>& evs,
                             const std::vector<TraceSpan>& windows) {
  std::vector<obs::ChromeTraceWriter::Window> lanes;
  lanes.reserve(windows.size());
  for (const TraceSpan& w : windows) {
    lanes.push_back({w.begin_us, w.end_us, w.name, ""});
  }
  obs::ChromeTraceWriter doc("stpx wire", std::move(lanes), kTidFaultBase);
  doc.track(kTidRejects, "rejects");

  // Shard (flush), probe and session tracks follow the fault lanes.
  std::map<std::uint32_t, int> shard_tid;
  std::map<std::uint32_t, int> session_tid;
  bool probes = false;
  for (const TraceEvent& ev : evs) {
    if (ev.kind == TraceEventKind::kCheckpointFlush) {
      shard_tid.emplace(ev.session, 0);
    } else if (ev.kind == TraceEventKind::kProbeAnswered) {
      probes = true;
    } else if (ev.kind != TraceEventKind::kFrameRejected) {
      session_tid.emplace(ev.session, 0);
    }
  }
  int next_tid = doc.lanes_end();
  for (auto& [shard, tid] : shard_tid) {
    tid = next_tid++;
    doc.track(tid, "flush shard " + std::to_string(shard));
  }
  const int probe_tid = probes ? next_tid++ : 0;
  if (probes) doc.track(probe_tid, "fabric probes");
  for (auto& [session, tid] : session_tid) {
    tid = next_tid++;
    doc.track(tid, "session " + std::to_string(session));
  }

  for (const TraceEvent& ev : evs) {
    if (ev.kind == TraceEventKind::kCheckpointFlush) {
      // Flushes are duration slices; stamp the span at flush *start*.
      const std::uint64_t begin = ev.ts_us >= ev.aux ? ev.ts_us - ev.aux : 0;
      doc.add({begin, shard_tid.at(ev.session), instant_name(ev),
               instant_args(ev), std::max<std::uint64_t>(ev.aux, 1)});
      continue;
    }
    const int tid = ev.kind == TraceEventKind::kFrameRejected ? kTidRejects
                    : ev.kind == TraceEventKind::kProbeAnswered
                        ? probe_tid
                        : session_tid.at(ev.session);
    doc.add({ev.ts_us, tid, instant_name(ev), instant_args(ev), 0});
  }
  doc.write_to(out);
}

}  // namespace stpx::net
