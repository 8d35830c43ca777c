#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// a / b, or 0 when nothing was measured.
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

void RoundTotals::add(const RoundResult& r) {
  const double items_d = static_cast<double>(r.items);
  per_round.push_back(RoundFigures{
      ratio(items_d, r.run_s), r.item_gap_ns.quantile(0.50) / 1e3,
      r.item_gap_ns.quantile(0.99) / 1e3,
      ratio(static_cast<double>(r.frames_sent), items_d),
      ratio(static_cast<double>(r.cpu_ns) / 1e3, items_d), r.steal_frac});
  ++rounds;
  sessions += r.sessions;
  sessions_failed += r.sessions_failed;
  items += r.items;
  frames_sent += r.frames_sent;
  frames_received += r.frames_received;
  frames_shed += r.frames_shed;
  run_s += r.run_s;
  cpu_ns += r.cpu_ns;
  item_gap_ns.merge(r.item_gap_ns);
  ack_rtt_us.merge(r.ack_rtt_us);
  restore_us.merge(r.restore_us);
  if (r.restore_s > 0.0) {  // durable rounds
    restore_s.push_back(r.restore_s);
    scan_s.push_back(static_cast<double>(r.scan_ns) / 1e9);
  }
  post_restart_s += r.post_restart_s;
  post_restart_writes += r.post_restart_writes;
  recorder_recorded += r.recorder_recorded;
  recorder_dropped += r.recorder_dropped;
  wire_sent += r.wire_sent;
  wire_polled += r.wire_polled;
}

std::vector<RoundFigures> quiet_rounds(const std::vector<RoundFigures>& all) {
  if (all.size() <= 1) return all;
  std::vector<double> steal;
  for (const RoundFigures& f : all) steal.push_back(f.steal_frac);
  std::sort(steal.begin(), steal.end());
  const auto tenth = static_cast<std::size_t>(
      kQuietShare * static_cast<double>(steal.size() - 1));
  const double limit = std::max(kQuietSteal, steal[tenth]);
  std::vector<RoundFigures> out;
  for (const RoundFigures& f : all) {
    if (f.steal_frac <= limit) out.push_back(f);
  }
  return out;
}

double RoundTotals::median_of(double RoundFigures::*field) const {
  std::vector<double> v;
  for (const RoundFigures& f : quiet_rounds(per_round)) v.push_back(f.*field);
  return median(std::move(v));
}

std::vector<Metric> end_to_end_metrics(const RunReport& r) {
  // Medians over the quiet rounds: a round during which the host took
  // CPU time from the VM measures the host as much as the program.
  const auto over_rounds = [&](double RoundFigures::*field) {
    return r.untraced.median_of(field);
  };
  return {
      {"items_per_s", "1/s", over_rounds(&RoundFigures::items_per_s)},
      {"item_latency_p50_us", "us", over_rounds(&RoundFigures::latency_p50_us)},
      {"item_latency_p99_us", "us", over_rounds(&RoundFigures::latency_p99_us)},
      {"frames_per_item", "frames/item",
       over_rounds(&RoundFigures::frames_per_item)},
      {"cpu_us_per_item", "us", over_rounds(&RoundFigures::cpu_us_per_item)},
      {"rss_bytes_per_session", "B",
       ratio(static_cast<double>(r.rss_growth_bytes),
             static_cast<double>(r.sessions_per_round))},
      {"setup_s", "s", median(r.setup_s)},
  };
}

std::vector<Metric> per_layer_metrics(const RunReport& r) {
  const RoundTotals& u = r.untraced;
  const RoundTotals& t = r.traced;
  const LayerTotals& l = r.layers;
  const double titems = static_cast<double>(t.items);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      // net.codec: replay of the traced run's captured frames.
      {"net.codec.encode_ns", "ns", r.codec.encode_ns},
      {"net.codec.decode_ns", "ns", r.codec.decode_ns},
      {"net.codec.allocs_per_frame", "count", r.codec.allocs_per_frame},
      // net.transport
      {"net.transport.send_ns_p50", "ns", l.send_ns.quantile(0.50)},
      {"net.transport.send_ns_p99", "ns", l.send_ns.quantile(0.99)},
      {"net.transport.poll_ns_p50", "ns", l.poll_ns.quantile(0.50)},
      {"net.transport.poll_empty_frac", "ratio",
       ratio(d(l.polls_empty), d(l.polls))},
      {"net.transport.allocs_per_frame", "count",
       ratio(d(l.transport_allocs), d(l.sends))},
      {"net.transport.wire_loss_frac", "ratio",
       ratio(d(t.wire_sent) - d(t.wire_polled), d(t.wire_sent))},
      // net.mux: pump, inbox and sweep
      {"net.mux.sweep_period_us_p50", "us",
       l.sweep_period_ns.quantile(0.50) / 1e3},
      {"net.mux.inbound_wait_us_p50", "us",
       l.inbound_wait_ns.quantile(0.50) / 1e3},
      {"net.mux.inbound_wait_us_p99", "us",
       l.inbound_wait_ns.quantile(0.99) / 1e3},
      {"net.mux.retx_frac", "ratio",
       ratio(d(l.retx_frames), d(l.data_frames_sent))},
      {"net.mux.pump_cpu_frac", "ratio",
       ratio(d(l.pump_cpu_ns), d(l.pump_wall_ns))},
      {"net.mux.worker_cpu_frac", "ratio",
       ratio(d(l.worker_cpu_ns), d(l.worker_wall_ns))},
      {"net.mux.nonvoluntary_switches_per_s", "1/s",
       ratio(d(l.mux_nivcsw), t.run_s)},
      {"net.mux.shed_frac", "ratio",
       ratio(d(t.frames_shed), d(t.frames_received) + d(t.frames_shed))},
      {"net.mux.allocs_per_item", "count", ratio(d(l.mux_allocs), titems)},
      {"net.mux.ack_rtt_us_p50", "us", u.ack_rtt_us.quantile(0.50)},
      {"net.mux.ack_rtt_us_p99", "us", u.ack_rtt_us.quantile(0.99)},
      // proto
      {"proto.step_ns_p50", "ns", l.step_ns.quantile(0.50)},
      {"proto.deliver_ns_p50", "ns", l.deliver_ns.quantile(0.50)},
      {"proto.steps_per_item", "count", ratio(d(l.steps), titems)},
      {"proto.idle_step_frac", "ratio", ratio(d(l.idle_steps), d(l.steps))},
      {"proto.save_state_ns_p50", "ns", l.save_state_ns.quantile(0.50)},
      // store
      {"store.ack_hold_us_p50", "us", l.ack_hold_ns.quantile(0.50) / 1e3},
      {"store.ack_hold_us_p99", "us", l.ack_hold_ns.quantile(0.99) / 1e3},
      {"store.append_batch_us_p50", "us",
       l.append_batch_ns.quantile(0.50) / 1e3},
      {"store.append_batch_us_p99", "us",
       l.append_batch_ns.quantile(0.99) / 1e3},
      {"store.records_per_batch", "count",
       ratio(d(l.batch_records), d(l.batches))},
      {"store.bytes_per_record", "B",
       ratio(d(l.batch_bytes), d(l.batch_records))},
      {"store.scan_s", "s", median(t.scan_s)},
      {"store.restore_us_p99", "us", t.restore_us.quantile(0.99)},
      // net.recorder
      {"net.recorder.emit_ns_p50", "ns", l.emit_ns.quantile(0.50)},
      {"net.recorder.emit_ns_p99", "ns", l.emit_ns.quantile(0.99)},
      {"net.recorder.dropped_frac", "ratio",
       ratio(d(t.recorder_dropped),
             d(t.recorder_recorded) + d(t.recorder_dropped))},
      // Tracing cost, and the untraced rounds of this run.
      {"trace.overhead_frac", "ratio",
       1.0 - ratio(t.median_of(&RoundFigures::items_per_s),
                   u.median_of(&RoundFigures::items_per_s))},
      {"restore_s", "s", median(u.restore_s)},
      {"post_restart_items_per_s", "1/s",
       ratio(d(u.post_restart_writes), u.post_restart_s)},
      {"item_latency_samples", "count", d(u.item_gap_ns.count())},
  };
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
