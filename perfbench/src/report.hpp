// Turns the rounds of one benchmark run into named metrics and the one
// JSON line the benchmark prints last.  README.md defines every metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The end-to-end figures of one round, and the host steal during it.
struct RoundFigures {
  double items_per_s = 0.0, latency_p50_us = 0.0, latency_p99_us = 0.0,
         frames_per_item = 0.0, cpu_us_per_item = 0.0;
  double steal_frac = 0.0;
};

/// A round is quiet when the host took at most this share of the VM's
/// CPU time while it ran...
inline constexpr double kQuietSteal = 0.01;
/// ...or, when fewer rounds than this share of a run are that quiet, when
/// no more was taken than in the run's quietest tenth of rounds.
inline constexpr double kQuietShare = 0.1;

/// The rounds the host disturbed least, by the rule above; every round
/// when there is one or none.
std::vector<RoundFigures> quiet_rounds(const std::vector<RoundFigures>& all);

/// Sums over the rounds of one kind (untraced or traced) of a run, and
/// each round's own end-to-end figures.
struct RoundTotals {
  std::vector<RoundFigures> per_round;
  std::size_t rounds = 0;
  std::uint64_t sessions = 0, sessions_failed = 0;
  std::uint64_t items = 0, frames_sent = 0, frames_received = 0,
                frames_shed = 0;
  double run_s = 0.0;
  std::uint64_t cpu_ns = 0;
  Histogram item_gap_ns{kFineBits}, ack_rtt_us, restore_us;
  std::vector<double> restore_s, scan_s;
  double post_restart_s = 0.0;
  std::uint64_t post_restart_writes = 0;
  std::uint64_t recorder_recorded = 0, recorder_dropped = 0;
  std::uint64_t wire_sent = 0, wire_polled = 0;

  void add(const RoundResult& r);
  /// Median of one per-round figure over the quiet rounds; 0 with no
  /// rounds.
  double median_of(double RoundFigures::*field) const;
};

/// Everything one run measured.
struct RunReport {
  std::size_t sessions_per_round = 0;
  RoundTotals untraced, traced;
  std::vector<double> setup_s;  // one sample per construction
  /// RSS growth over the first round, read once every session is done.
  std::uint64_t rss_growth_bytes = 0;
  LayerTotals layers;  // traced rounds only
  CodecReplay codec;   // over the traced rounds' captured frames
};

/// The metrics printed with tracing off (BENCHMARK.json "end_to_end").
std::vector<Metric> end_to_end_metrics(const RunReport& r);
/// The metrics printed by the traced run (BENCHMARK.json "per_layer").
std::vector<Metric> per_layer_metrics(const RunReport& r);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Median of the samples; 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench
