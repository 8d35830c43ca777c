// R3 (robustness) — the self-stabilization layer, measured.
//
// Three exhibits:
//
//   1. Hardened vs un-hardened under the same lie.  One corrupted payload
//      aimed at Stenning's receiver makes the transfer diverge (a wrong
//      item is written and never repaired past the convergence window); the
//      identical schedule against the hardened protocol is a non-event —
//      the checksum sheds the mangled id and retransmission replaces it.
//
//   2. The stabilization conformance matrix.  Every protocol in the suite
//      runs against all three corruption kinds (corrupt-payload,
//      forge-message, scramble-state) x both target processes, on its
//      design channel, and each cell's verdict must match its documented
//      pin (docs/STABILIZATION.md).  The hardened row is pinned kCompleted
//      everywhere; the un-hardened divergences are pinned as expected.
//
//   3. Stabilization cost.  Metrics from an instrumented corrupted run —
//      scrambles applied/rejected and the steps from last corruption to
//      re-convergence — attached to the JSON report.
#include <iostream>

#include "analysis/table.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "stp/stabilization.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;

}  // namespace

int main(int argc, char** argv) {
  BenchRun bench("r3_stabilization", argc, argv);
  bench.param("n", 6);
  bench.param("corruption_kinds", 3);

  std::cout << analysis::heading(
      "R3 (robustness): self-stabilization — corruption, convergence, "
      "conformance");

  bool shape = true;

  // --- 1. hardened vs un-hardened under the same lie -----------------------
  {
    const seq::Sequence x{0, 1, 2, 3, 4, 5};
    // A forged in-alphabet id toward the receiver: repfree-dup believes it
    // (content IS the protocol's only header) and writes it out of order.
    const fault::FaultPlan plan = stp::stabilization_plan(
        fault::FaultKind::kForgeMessage, sim::Proc::kReceiver);
    auto spec_of = [](std::function<proto::ProtocolPair()> make) {
      stp::SystemSpec spec;
      spec.protocols = std::move(make);
      spec.channel = [](std::uint64_t) {
        return std::make_unique<channel::DupChannel>();
      };
      spec.scheduler = [](std::uint64_t seed) {
        return std::make_unique<channel::FairRandomScheduler>(seed);
      };
      spec.engine.max_steps = 60000;
      spec.engine.stall_window = 6000;
      spec.engine.convergence_window = 2;
      return spec;
    };
    analysis::Table duel({"protocol", "schedule", "verdict", "converged",
                          "output"});
    const auto naive = stp::run_one(
        stp::with_chaos(spec_of([] { return proto::make_repfree_dup(6); }),
                        plan),
        x, 2026);
    const auto tough = stp::run_one(
        stp::with_chaos(spec_of([] { return proto::make_hardened(6); }), plan),
        x, 2026);
    duel.add_row({"repfree-dup", fault::to_text(plan),
                  sim::to_cstr(naive.verdict), naive.converged ? "yes" : "no",
                  seq::to_string(naive.output)});
    duel.add_row({"hardened", fault::to_text(plan),
                  sim::to_cstr(tough.verdict), tough.converged ? "yes" : "no",
                  seq::to_string(tough.output)});
    std::cout << "\n" << duel.to_ascii();
    bench.record_trial(naive.stats.steps,
                       naive.stats.sent[0] + naive.stats.sent[1],
                       naive.verdict == sim::RunVerdict::kCompleted);
    bench.record_trial(tough.stats.steps,
                       tough.stats.sent[0] + tough.stats.sent[1],
                       tough.verdict == sim::RunVerdict::kCompleted);
    // The exhibit's shape: the same single lie is fatal to the trusting
    // protocol and invisible to the hardened one.
    shape = shape && naive.verdict != sim::RunVerdict::kCompleted &&
            tough.verdict == sim::RunVerdict::kCompleted;
  }

  // --- 2. the conformance matrix -------------------------------------------
  const auto cases = stp::default_stabilization_cases();
  const stp::MatrixReport report = stp::stabilization_sweep(cases, 2026);
  analysis::Table matrix({"protocol", "trials", "as pinned", "completed",
                          "corruptions", "scrambles ok/rej"});
  for (const auto& c : cases) {
    std::uint64_t trials = 0, pinned = 0, completed = 0, corruptions = 0;
    std::uint64_t sok = 0, srej = 0;
    for (const auto& t : report.trials) {
      if (t.protocol != c.name) continue;
      ++trials;
      if (t.detail.empty()) ++pinned;
      if (t.verdict == sim::RunVerdict::kCompleted) ++completed;
      corruptions += t.stats.corruptions;
      sok += t.stats.scrambles_applied;
      srej += t.stats.scrambles_rejected;
    }
    matrix.add_row({c.name, std::to_string(trials), std::to_string(pinned),
                    std::to_string(completed), std::to_string(corruptions),
                    std::to_string(sok) + "/" + std::to_string(srej)});
  }
  std::cout << "\n" << matrix.to_ascii();
  // Fold the matrix as a sweep so the JSON verdict breakdown carries the
  // stabilization-violation count (record_trial only knows completed/not).
  stp::SweepResult fold;
  for (const auto& t : report.trials) {
    fold.tally(t.verdict, t.stats.steps);
    if (!t.detail.empty()) std::cout << "OFF-PIN: " << t.detail << "\n";
  }
  bench.record(fold);
  shape = shape && report.clean();
  // The hardened protocol must complete every cell, not merely match a pin.
  for (const auto& t : report.trials) {
    if (t.protocol == "hardened")
      shape = shape && t.verdict == sim::RunVerdict::kCompleted;
  }

  // --- 3. stabilization cost metrics ---------------------------------------
  {
    stp::SystemSpec spec;
    spec.protocols = [] { return proto::make_hardened(6); };
    spec.channel = [](std::uint64_t seed) {
      return std::make_unique<channel::DelChannel>(0.1, seed);
    };
    spec.scheduler = [](std::uint64_t seed) {
      return std::make_unique<channel::FairRandomScheduler>(seed);
    };
    spec.engine.max_steps = 60000;
    spec.engine.stall_window = 6000;
    spec.engine.convergence_window = 2;
    obs::MetricsRegistry reg;
    obs::MetricsProbe probe(&reg);
    spec.engine.probe = &probe;
    // A corruption storm: mangle both directions, forge into both, scramble
    // both processes.  The hardened protocol must still complete.
    fault::FaultPlan storm;
    for (fault::FaultKind kind : stp::kCorruptionKinds) {
      for (sim::Proc proc : {sim::Proc::kSender, sim::Proc::kReceiver}) {
        fault::FaultPlan one = stp::stabilization_plan(kind, proc);
        for (auto& a : one.actions) {
          storm.actions.push_back(a);
        }
      }
    }
    const seq::Sequence x{0, 1, 2, 3, 4, 5};
    const auto r = stp::run_one(stp::with_chaos(spec, storm), x, 7);
    shape = shape && r.verdict == sim::RunVerdict::kCompleted;
    std::cout << "\ncorruption-storm run (hardened): "
              << sim::to_cstr(r.verdict) << " with " << r.stats.corruptions
              << " corruptions, scrambles " << r.stats.scrambles_applied
              << " applied / " << r.stats.scrambles_rejected << " rejected, "
              << reg.counter_value("stabilization.converged")
              << " convergence events\n";
    bench.metrics_json(reg.to_json());
    bench.record_trial(r.stats.steps, r.stats.sent[0] + r.stats.sent[1],
                       r.verdict == sim::RunVerdict::kCompleted);
  }

  std::cout << "\nexpected: one forged message defeats the trusting "
               "baseline but not the hardened protocol; the full protocol x "
               "corruption x process matrix lands exactly on its pins with "
               "the hardened row all-green; a corruption storm against the "
               "hardened protocol still completes.\n"
            << "measured: " << (shape ? "CONFIRMED" : "NOT CONFIRMED")
            << "\n";
  return bench.finish(shape);
}
