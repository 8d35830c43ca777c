// Experiment runner: wire a protocol pair, channel, and scheduler into the
// engine and sweep whole sequence families, aggregating safety/liveness
// verdicts and cost statistics.
//
// Everything is factory-based so a sweep can build a fresh, independently
// seeded system per (input, trial) without shared mutable state.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "proto/suite.hpp"
#include "seq/family.hpp"
#include "sim/engine.hpp"

namespace stpx::stp {

/// Builders for the four components of a system.  Scheduler and channel
/// builders receive a trial seed so randomized components are reproducible.
struct SystemSpec {
  std::function<proto::ProtocolPair()> protocols;
  std::function<std::unique_ptr<sim::IChannel>(std::uint64_t seed)> channel;
  std::function<std::unique_ptr<sim::IScheduler>(std::uint64_t seed)>
      scheduler;
  sim::EngineConfig engine;
};

/// Build an engine for one trial.
sim::Engine make_engine(const SystemSpec& spec, std::uint64_t seed);

/// Run one (input, seed) trial.
sim::RunResult run_one(const SystemSpec& spec, const seq::Sequence& x,
                       std::uint64_t seed);

/// One failed trial, kept for diagnosis.
struct TrialFailure {
  seq::Sequence input;
  std::uint64_t seed = 0;
  bool safety = false;  // true: safety violation; false: incomplete (liveness)
  std::string detail;
  /// Structured verdict (distinguishes stalled from budget-exhausted, which
  /// `safety == false` alone conflates).
  sim::RunVerdict verdict = sim::RunVerdict::kBudgetExhausted;
};

/// Aggregate verdict over a family sweep.
struct SweepResult {
  std::size_t trials = 0;
  std::size_t safety_failures = 0;
  /// Safety violations whose first bad write came at or after the first
  /// crash-restart — i.e. the recovery path, not the protocol, is at fault.
  std::size_t recovery_failures = 0;
  /// Runs struck by an injected transient corruption that failed the
  /// suffix-safety convergence criterion (see docs/STABILIZATION.md).
  std::size_t stabilization_failures = 0;
  std::size_t incomplete = 0;  // liveness failures = stalled + exhausted
  /// Per-verdict breakdown of `incomplete` (watchdog stall vs step budget).
  std::size_t stalled = 0;
  std::size_t exhausted = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t total_msgs_sent = 0;
  std::uint64_t total_msgs_delivered = 0;
  std::vector<TrialFailure> failures;
  /// Raw observability samples (one per write / per trial) for reports.
  std::vector<std::uint64_t> write_latencies;
  std::vector<std::uint64_t> trial_steps;

  /// Trials that ended kCompleted.
  std::size_t completed() const {
    return trials - safety_failures - recovery_failures -
           stabilization_failures - stalled - exhausted;
  }
  bool all_ok() const {
    return safety_failures == 0 && recovery_failures == 0 &&
           stabilization_failures == 0 && incomplete == 0;
  }
  double avg_steps() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(total_steps) /
                             static_cast<double>(trials);
  }
  double msgs_per_trial() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(total_msgs_sent) /
                             static_cast<double>(trials);
  }

  /// Count one trial: its verdict and its step cost.  The one place a
  /// verdict maps to a counter.
  void tally(sim::RunVerdict verdict, std::uint64_t steps);
  /// Fold one run of `r.input` under `seed`: tally() plus message counts,
  /// write latencies and, for a failed run, a TrialFailure.
  void add(const sim::RunResult& r, std::uint64_t seed);
  /// Fold another sweep into this one (bench binaries aggregate the sweeps
  /// of all their parameter points into one report).
  void merge(const SweepResult& other);
};

/// Run every member of `family` once per seed in `seeds`.
SweepResult sweep_family(const SystemSpec& spec, const seq::Family& family,
                         const std::vector<std::uint64_t>& seeds);

/// Run a single input once per seed (convenience for cost experiments).
SweepResult sweep_input(const SystemSpec& spec, const seq::Sequence& x,
                        const std::vector<std::uint64_t>& seeds);

/// Condense a sweep into the machine-readable report schema (verdict
/// breakdown, exact latency percentiles).  `ok` is set from all_ok().
obs::SweepReport report_of(const std::string& name, const SweepResult& r);

}  // namespace stpx::stp
