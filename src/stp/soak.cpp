#include "stp/soak.hpp"

#include <sstream>

#include "stp/ddmin.hpp"
#include "util/expect.hpp"

namespace stpx::stp {

namespace {

bool failing(sim::RunVerdict v) { return v != sim::RunVerdict::kCompleted; }

std::string describe(const sim::RunResult& r) {
  std::ostringstream os;
  os << to_cstr(r.verdict) << " after " << r.stats.steps << " steps: wrote "
     << seq::to_string(r.output) << " of " << seq::to_string(r.input);
  if (!r.safety_ok) os << " (violation at step " << r.first_violation_step
                       << ")";
  return os.str();
}

}  // namespace

SystemSpec with_chaos(const SystemSpec& spec, const fault::FaultPlan& plan) {
  STPX_EXPECT(static_cast<bool>(spec.channel),
              "with_chaos: spec has no channel factory");
  SystemSpec out = spec;
  auto inner = spec.channel;
  obs::IProbe* probe = spec.engine.probe;
  out.channel = [inner, plan, probe](std::uint64_t seed) {
    auto chaos = std::make_unique<fault::ChaosChannel>(inner(seed), plan);
    chaos->set_probe(probe);
    return chaos;
  };
  return out;
}

fault::FaultPlan plan_for_trial(std::uint64_t seed,
                                const fault::SamplerConfig& sampler) {
  // Decorrelate from the scheduler, which consumes the raw seed.
  std::uint64_t mix = seed ^ 0xC7A05C7A05C7A05AULL;
  Rng rng(splitmix64(mix));
  return fault::sample_plan(rng, sampler);
}

SoakReport soak_sweep(const std::string& protocol, const SystemSpec& spec,
                      const std::vector<seq::Sequence>& inputs,
                      const SoakConfig& cfg) {
  SoakReport report;
  report.protocol = protocol;
  for (const seq::Sequence& x : inputs) {
    for (std::uint64_t seed : cfg.seeds) {
      const fault::FaultPlan plan = plan_for_trial(seed, cfg.sampler);
      const sim::RunResult r = run_one(with_chaos(spec, plan), x, seed);
      report.sweep.add(r, seed);
      if (failing(r.verdict)) {
        report.failures.push_back(
            {protocol, x, seed, plan, r.verdict, describe(r)});
      }
    }
  }
  return report;
}

sim::RunResult replay_failure(const SystemSpec& spec, const SoakFailure& f) {
  return run_one(with_chaos(spec, f.plan), f.input, f.seed);
}

MinimizedPlan minimize_plan(const SystemSpec& spec, const SoakFailure& f) {
  MinimizedPlan out;
  out.plan = f.plan;

  auto run = [&](const fault::FaultPlan& candidate) {
    ++out.probe_runs;
    return run_one(with_chaos(spec, candidate), f.input, f.seed).verdict;
  };
  const sim::RunVerdict v0 = run(out.plan);
  STPX_EXPECT(failing(v0), "minimize_plan: recorded failure does not reproduce");
  // Safety-class failures must stay the SAME kind while shrinking: a
  // post-crash (recovery) violation that degenerates into a stall — or into
  // a plain pre-crash violation — is a different bug, and the minimal
  // schedule would no longer witness the recorded one.
  const bool safety_class =
      v0 == sim::RunVerdict::kSafetyViolation ||
      v0 == sim::RunVerdict::kRecoveryViolation ||
      v0 == sim::RunVerdict::kStabilizationViolation;
  auto probe = [&](const fault::FaultPlan& candidate) {
    const sim::RunVerdict v = run(candidate);
    return safety_class ? v == v0 : failing(v);
  };

  // Greedy ddmin to a fixpoint: delete whole actions until none can go,
  // then halve the first numeric field whose halving still fails, and
  // repeat.  Runs are deterministic, so the fixpoint is 1-minimal: removing
  // any remaining action (or halving any remaining field) yields a passing
  // schedule.
  auto halve = [&](std::size_t i, auto field) {
    fault::FaultPlan candidate = out.plan;
    std::uint64_t& v = field(candidate.actions[i]);
    if (v <= 1) return false;
    v /= 2;
    if (!probe(candidate)) return false;
    out.plan = std::move(candidate);
    return true;
  };
  auto halve_one_field = [&] {
    for (std::size_t i = 0; i < out.plan.actions.size(); ++i) {
      if (halve(i, [](fault::FaultAction& a) -> auto& { return a.count; }) ||
          halve(i, [](fault::FaultAction& a) -> auto& { return a.duration; }) ||
          halve(i,
                [](fault::FaultAction& a) -> auto& { return a.trigger.at; })) {
        return true;
      }
    }
    return false;
  };
  do {
    remove_actions_to_fixpoint(out.plan, probe);
  } while (halve_one_field());
  out.verdict = run(out.plan);
  return out;
}

std::vector<DedupedFailure> dedup_failures(
    const SystemSpec& spec, const std::vector<SoakFailure>& failures) {
  std::vector<DedupedFailure> out;
  for (const SoakFailure& f : failures) {
    const MinimizedPlan min = minimize_plan(spec, f);
    const std::string signature =
        std::string(to_cstr(min.verdict)) + "\n" + fault::to_text(min.plan);
    bool found = false;
    for (DedupedFailure& d : out) {
      if (std::string(to_cstr(d.verdict)) + "\n" + fault::to_text(d.minimized)
          == signature) {
        ++d.occurrences;
        found = true;
        break;
      }
    }
    if (!found) {
      out.push_back({f, min.plan, min.verdict, 1});
    }
  }
  return out;
}

}  // namespace stpx::stp
