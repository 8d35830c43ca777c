// Chaos lab: script faults against a running protocol and watch it cope —
// or fail, and then shrink the failure to its essence.
//
//   $ ./chaos_lab
//
// Three scenes:
//   1. repfree-del rides out a scripted storm (drop bursts, a blackout, a
//      deliver-freeze) on the reorder+delete channel — bounded protocols
//      recover from any finite insult.
//   2. A crash-restart wipes the receiver's volatile state mid-run while
//      duplicate copies of an already-written item are still in flight; the
//      amnesiac receiver re-writes one and safety breaks.  The engine
//      verdict pinpoints the violation step.
//   3. The soak harness finds a failing sampled plan for ABP (a FIFO
//      protocol) on a reordering channel and delta-debugs it to a minimal
//      schedule that replays deterministically.
//
// See docs/FAULTS.md for the fault-plan text format used throughout.
#include <iostream>

#include "channel/del_channel.hpp"
#include "channel/schedulers.hpp"
#include "proto/suite.hpp"
#include "stp/soak.hpp"

using namespace stpx;

namespace {

stp::SystemSpec del_spec(std::function<proto::ProtocolPair()> protocols) {
  stp::SystemSpec spec;
  spec.protocols = std::move(protocols);
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 60000;
  spec.engine.stall_window = 6000;
  return spec;
}

void report(const char* title, const sim::RunResult& r) {
  std::cout << title << "\n  verdict  = " << sim::to_cstr(r.verdict)
            << "\n  steps    = " << r.stats.steps
            << "\n  output Y = " << seq::to_string(r.output) << "\n";
  if (!r.safety_ok) {
    std::cout << "  first violation at step " << r.first_violation_step
              << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  const seq::Sequence x{3, 0, 4, 1, 7, 2};
  std::cout << "Chaos lab: scripted faults, crash-restart, soak + shrink\n"
            << "input X = " << seq::to_string(x) << "\n\n";

  // Scene 1: a storm the bounded protocol shrugs off.
  const auto storm = fault::plan_from_text(
      "drop @step 40 dir SR count 0 match *\n"
      "drop @step 60 dir RS count 0 match *\n"
      "blackout @writes 2 dir SR len 300 match *\n"
      "freeze @writes 4 dir RS len 200\n"
      "dup @step 100 dir SR count 8 match *\n");
  std::cout << "scene 1: repfree-del vs a 5-action storm:\n" << storm.size()
            << " scripted actions\n";
  const auto spec1 = del_spec([] { return proto::make_repfree_del(12); });
  report("", stp::run_one(stp::with_chaos(spec1, storm), x, 7));

  // Scene 2: amnesia.  Duplicates of a written item + receiver crash.
  const auto amnesia = fault::plan_from_text(
      "dup @step 1 dir SR count 6 match *\n"
      "crash-receiver @writes 2\n");
  stp::SystemSpec spec2 = spec1;
  spec2.scheduler = [](std::uint64_t) {
    return std::make_unique<channel::RoundRobinScheduler>();
  };
  report("scene 2: repfree-del receiver crash-restart with stale copies:",
         stp::run_one(stp::with_chaos(spec2, amnesia), x, 1));

  // Scene 3: soak ABP, shrink the first failure, replay it.
  const auto spec3 = del_spec([] { return proto::make_abp(12); });
  const auto rep = stp::soak_sweep("abp", spec3, {x}, stp::SoakConfig{});
  std::cout << "scene 3: abp soak: " << rep.sweep.trials << " trials, "
            << rep.failures.size() << " failures\n";
  if (!rep.clean()) {
    const auto min = stp::minimize_plan(spec3, rep.failures.front());
    std::cout << "  minimized first failing plan to " << min.plan.size()
              << " action(s) (" << min.probe_runs << " probes):\n";
    if (min.plan.empty()) {
      std::cout << "    (empty: reordering alone defeats ABP)\n";
    } else {
      std::cout << fault::to_text(min.plan);
    }
    stp::SoakFailure shrunk = rep.failures.front();
    shrunk.plan = min.plan;
    const auto replay = stp::replay_failure(spec3, shrunk);
    std::cout << "  replayed: " << sim::to_cstr(replay.verdict) << " at step "
              << replay.stats.steps << "\n";
  }
  return 0;
}
