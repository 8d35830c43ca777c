// Soak harness: randomized fault-plan sweeps with counterexample
// minimization.
//
// The harness samples declarative FaultPlans (fault/plan.hpp), superimposes
// each on a system via a ChaosChannel decorator, and classifies every run
// with the engine's structured verdict (safety violation / watchdog stall /
// budget exhaustion / completed).  Failing (protocol, input, seed, plan)
// triples are recorded as replayable artifacts: because the chaos layer is
// RNG-free and the scheduler is seeded, re-running the same triple
// reproduces the same run action for action.
//
// delta-debugging: minimize_plan() shrinks a failing plan to a *1-minimal*
// schedule — the failure persists, but removing any single remaining action
// (or further shrinking any burst/window/trigger field) makes it pass.
// This is the fault-plan analogue of sim/replay's action-script
// minimization, and is what turns "a 6-action random storm broke ABP" into
// "one drop-burst at step 40 breaks ABP".
#pragma once

#include "fault/chaos_channel.hpp"
#include "stp/runner.hpp"

namespace stpx::stp {

struct SoakConfig {
  /// One trial per (input, seed); the seed feeds both the plan sampler and
  /// the system's scheduler/channel factories.
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  fault::SamplerConfig sampler;
};

/// A failing trial, self-contained enough to replay or minimize later.
struct SoakFailure {
  std::string protocol;
  seq::Sequence input;
  std::uint64_t seed = 0;
  fault::FaultPlan plan;
  sim::RunVerdict verdict = sim::RunVerdict::kBudgetExhausted;
  std::string detail;
};

struct SoakReport {
  std::string protocol;
  /// Verdict tally and cost samples, folded per trial like any sweep
  /// (report_of(protocol, sweep) condenses it for a bench report).
  SweepResult sweep;
  std::vector<SoakFailure> failures;

  /// Safety never violated AND the watchdog never fired AND no budget ran
  /// out: the protocol rode out every sampled schedule.
  bool clean() const { return failures.empty(); }
};

/// `spec` with its channel factory wrapped in a ChaosChannel running `plan`.
/// The spec's EngineConfig::probe (if any) is forwarded to the decorator,
/// so chaos fault firings land in the same probe stream as engine events.
SystemSpec with_chaos(const SystemSpec& spec, const fault::FaultPlan& plan);

/// The plan a soak trial with this seed uses (deterministic).
fault::FaultPlan plan_for_trial(std::uint64_t seed,
                                const fault::SamplerConfig& sampler);

/// Sweep inputs x seeds, one sampled fault plan per trial.  The engine
/// config inside `spec` supplies max_steps and the watchdog stall_window.
SoakReport soak_sweep(const std::string& protocol, const SystemSpec& spec,
                      const std::vector<seq::Sequence>& inputs,
                      const SoakConfig& cfg);

/// Re-run a recorded failure exactly; deterministic, so the verdict must
/// match the recorded one (asserted by tests, not here).
sim::RunResult replay_failure(const SystemSpec& spec, const SoakFailure& f);

struct MinimizedPlan {
  fault::FaultPlan plan;
  sim::RunVerdict verdict = sim::RunVerdict::kCompleted;  // of the final plan
  std::size_t probe_runs = 0;  // delta-debug probes spent
};

/// Shrink f.plan to a 1-minimal failing schedule (see file comment).  The
/// result can be the empty plan when the bare channel already defeats the
/// protocol (e.g. ABP under reordering needs no injected fault at all).
MinimizedPlan minimize_plan(const SystemSpec& spec, const SoakFailure& f);

/// One minimized counterexample plus every recorded failure it explains.
struct DedupedFailure {
  SoakFailure witness;       // the first failure with this signature
  fault::FaultPlan minimized;
  sim::RunVerdict verdict = sim::RunVerdict::kCompleted;  // of `minimized`
  std::size_t occurrences = 0;  // recorded failures sharing the signature
};

/// Deduplicate soak failures by minimized-plan signature: each failure is
/// minimized and keyed by (verdict, minimized plan text), so a crash-storm
/// sweep that trips over the same 1-minimal counterexample dozens of times
/// reports it once (with its multiplicity) instead of dozens of times.
/// Order follows first appearance; every witness replays deterministically.
std::vector<DedupedFailure> dedup_failures(
    const SystemSpec& spec, const std::vector<SoakFailure>& failures);

}  // namespace stpx::stp
