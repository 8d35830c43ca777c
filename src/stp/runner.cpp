#include "stp/runner.hpp"

#include <sstream>

#include "util/expect.hpp"

namespace stpx::stp {

sim::Engine make_engine(const SystemSpec& spec, std::uint64_t seed) {
  STPX_EXPECT(spec.protocols && spec.channel && spec.scheduler,
              "SystemSpec: missing component factory");
  proto::ProtocolPair pair = spec.protocols();
  return sim::Engine(std::move(pair.sender), std::move(pair.receiver),
                     spec.channel(seed), spec.scheduler(seed), spec.engine);
}

sim::RunResult run_one(const SystemSpec& spec, const seq::Sequence& x,
                       std::uint64_t seed) {
  return make_engine(spec, seed).run(x);
}

void SweepResult::tally(sim::RunVerdict verdict, std::uint64_t steps) {
  ++trials;
  total_steps += steps;
  trial_steps.push_back(steps);
  switch (verdict) {
    case sim::RunVerdict::kCompleted: break;
    case sim::RunVerdict::kSafetyViolation: ++safety_failures; break;
    case sim::RunVerdict::kRecoveryViolation: ++recovery_failures; break;
    case sim::RunVerdict::kStabilizationViolation:
      ++stabilization_failures;
      break;
    case sim::RunVerdict::kStalled:
      ++incomplete;
      ++stalled;
      break;
    case sim::RunVerdict::kBudgetExhausted:
      ++incomplete;
      ++exhausted;
      break;
  }
}

void SweepResult::add(const sim::RunResult& r, std::uint64_t seed) {
  tally(r.verdict, r.stats.steps);
  total_msgs_sent += r.stats.sent[0] + r.stats.sent[1];
  total_msgs_delivered += r.stats.delivered[0] + r.stats.delivered[1];
  const auto gaps = obs::write_latencies_of(r.stats);
  write_latencies.insert(write_latencies.end(), gaps.begin(), gaps.end());
  // Classify on the structured verdict: a corrupted run can end kCompleted
  // with safety_ok false (post-corruption garbage followed by suffix-safe
  // convergence), so safety_ok alone no longer separates pass from fail.
  if (r.verdict == sim::RunVerdict::kCompleted) return;
  std::ostringstream os;
  const bool safety = r.verdict != sim::RunVerdict::kStalled &&
                      r.verdict != sim::RunVerdict::kBudgetExhausted;
  if (safety) {
    os << (r.verdict == sim::RunVerdict::kRecoveryViolation
               ? "recovery violated safety"
           : r.verdict == sim::RunVerdict::kStabilizationViolation
               ? "corrupted run failed to re-converge"
               : "safety violated")
       << " at step " << r.first_violation_step << ": wrote "
       << seq::to_string(r.output) << " for input "
       << seq::to_string(r.input);
  } else {
    os << to_cstr(r.verdict) << " after " << r.stats.steps << " steps: wrote "
       << seq::to_string(r.output) << " of " << seq::to_string(r.input);
  }
  failures.push_back({r.input, seed, safety, os.str(), r.verdict});
}

void SweepResult::merge(const SweepResult& other) {
  trials += other.trials;
  safety_failures += other.safety_failures;
  recovery_failures += other.recovery_failures;
  stabilization_failures += other.stabilization_failures;
  incomplete += other.incomplete;
  stalled += other.stalled;
  exhausted += other.exhausted;
  total_steps += other.total_steps;
  total_msgs_sent += other.total_msgs_sent;
  total_msgs_delivered += other.total_msgs_delivered;
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
  write_latencies.insert(write_latencies.end(), other.write_latencies.begin(),
                         other.write_latencies.end());
  trial_steps.insert(trial_steps.end(), other.trial_steps.begin(),
                     other.trial_steps.end());
}

SweepResult sweep_family(const SystemSpec& spec, const seq::Family& family,
                         const std::vector<std::uint64_t>& seeds) {
  SweepResult agg;
  for (const seq::Sequence& x : family.members) {
    for (std::uint64_t seed : seeds) {
      agg.add(run_one(spec, x, seed), seed);
    }
  }
  return agg;
}

SweepResult sweep_input(const SystemSpec& spec, const seq::Sequence& x,
                        const std::vector<std::uint64_t>& seeds) {
  SweepResult agg;
  for (std::uint64_t seed : seeds) {
    agg.add(run_one(spec, x, seed), seed);
  }
  return agg;
}

obs::SweepReport report_of(const std::string& name, const SweepResult& r) {
  obs::SweepReport rep;
  rep.name = name;
  rep.trials = r.trials;
  rep.ok = r.all_ok();
  rep.verdicts.completed = r.completed();
  rep.verdicts.safety_violation = r.safety_failures;
  rep.verdicts.recovery_violation = r.recovery_failures;
  rep.verdicts.stabilization_violation = r.stabilization_failures;
  rep.verdicts.stalled = r.stalled;
  rep.verdicts.budget_exhausted = r.exhausted;
  rep.total_steps = r.total_steps;
  rep.total_msgs_sent = r.total_msgs_sent;
  rep.write_latency_samples = r.write_latencies;
  rep.trial_step_samples = r.trial_steps;
  return rep;
}

}  // namespace stpx::stp
