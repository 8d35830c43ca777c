// R1 (robustness) — chaos soak across the protocol suite.
//
// Every protocol is soaked under the same sampled channel-level fault plans
// (drop / duplicate / blackout / freeze bursts) on the reorder+delete
// channel, with the engine watchdog converting livelock into a structured
// verdict.  Protocols run inside their design envelope (repfree-del,
// Stenning) must ride out every schedule; ABP assumes FIFO and mod-K
// Stenning assumes bounded reordering, so the soak finds failures for them.
// The first ABP failure is then delta-debugged to a 1-minimal schedule and
// replayed twice to show the whole pipeline is deterministic.
//
// A second table injects crash-restart faults: Stenning's sender survives
// amnesia (cumulative acks fast-forward it), while repfree — whose entire
// defence against replay lives in volatile state — stalls or violates, the
// robustness cost of the paper's minimal-state design.
#include <iostream>

#include "analysis/table.hpp"
#include "common.hpp"
#include "stp/soak.hpp"
#include "util/strings.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;

}  // namespace

int main(int argc, char** argv) {
  BenchRun bench("r1_soak", argc, argv);
  bench.param("n", 8);
  bench.param("channel", "del+chaos");
  bench.param("protocols", 6);

  std::cout << analysis::heading(
      "R1 (robustness): chaos soak, minimization, crash-restart");

  const seq::Sequence x = iota_sequence(8);
  const stp::SoakConfig cfg;  // channel-level faults, seeds {1..5}

  struct Entry {
    std::string name;
    std::function<proto::ProtocolPair()> make;
  };
  const std::vector<Entry> suite = {
      {"repfree-del", [] { return proto::make_repfree_del(12); }},
      {"stenning", [] { return proto::make_stenning(12); }},
      {"go-back-n(4)", [] { return proto::make_go_back_n(12, 4); }},
      {"sel-repeat(4)", [] { return proto::make_selective_repeat(12, 4); }},
      {"abp", [] { return proto::make_abp(12); }},
      {"modk-stenning(4)", [] { return proto::make_modk_stenning(12, 4); }},
  };

  bool shape = true;
  analysis::Table table({"protocol", "trials", "completed", "safety-viol",
                         "stalled", "exhausted", "clean"});
  stp::SoakReport abp_report;
  for (const Entry& e : suite) {
    const auto spec = del_chaos_spec(e.make);
    const auto rep = stp::soak_sweep(e.name, spec, {x}, cfg);
    bench.record(rep.sweep);
    table.add_row({e.name, std::to_string(rep.sweep.trials),
                   std::to_string(rep.sweep.completed()),
                   std::to_string(rep.sweep.safety_failures),
                   std::to_string(rep.sweep.stalled),
                   std::to_string(rep.sweep.exhausted),
                   rep.clean() ? "yes" : "NO"});
    if (e.name == "abp") abp_report = rep;
    if (e.name == "repfree-del" || e.name == "stenning") {
      shape = shape && rep.clean();  // in-envelope: rode out every schedule
    }
  }
  std::cout << table.to_ascii();

  // --- minimize the first ABP failure and replay it ----------------------
  shape = shape && !abp_report.clean();
  if (!abp_report.clean()) {
    const stp::SoakFailure& f = abp_report.failures.front();
    std::cout << "\nfirst abp failure: seed " << f.seed << ", "
              << f.plan.size() << "-action plan -> " << f.detail << "\n";
    const auto min = stp::minimize_plan(del_chaos_spec(suite[4].make), f);
    std::cout << "minimized to " << min.plan.size() << " action(s) in "
              << min.probe_runs << " probe runs, verdict "
              << sim::to_cstr(min.verdict) << ":\n"
              << (min.plan.empty() ? "  (empty plan: bare reordering already "
                                     "defeats ABP)\n"
                                   : fault::to_text(min.plan));
    stp::SoakFailure shrunk = f;
    shrunk.plan = min.plan;
    const auto spec = del_chaos_spec(suite[4].make);
    const auto r1 = stp::replay_failure(spec, shrunk);
    const auto r2 = stp::replay_failure(spec, shrunk);
    const bool deterministic = r1.verdict == min.verdict &&
                               r2.verdict == r1.verdict &&
                               r2.stats.steps == r1.stats.steps &&
                               r2.output == r1.output;
    shape = shape && min.verdict != sim::RunVerdict::kCompleted &&
            deterministic;
    std::cout << "replayed twice: " << sim::to_cstr(r1.verdict) << " at step "
              << r1.stats.steps << " both times -> deterministic: "
              << (deterministic ? "yes" : "NO") << "\n";
  }

  // --- crash-restart: amnesia as a fault mode ----------------------------
  analysis::Table crash({"protocol", "crash-sender @writes 2",
                         "crash-receiver @writes 2"});
  const auto sender_crash = fault::plan_from_text("crash-sender @writes 2\n");
  const auto receiver_crash =
      fault::plan_from_text("crash-receiver @writes 2\n");
  for (std::size_t i = 0; i < 2; ++i) {
    const Entry& e = suite[i];  // repfree-del and stenning
    const auto spec = del_chaos_spec(e.make);
    const auto rs =
        stp::run_one(stp::with_chaos(spec, sender_crash), x, 11);
    const auto rr =
        stp::run_one(stp::with_chaos(spec, receiver_crash), x, 11);
    crash.add_row({e.name, sim::to_cstr(rs.verdict),
                   sim::to_cstr(rr.verdict)});
    if (e.name == "stenning") {
      // The sender survives amnesia; the receiver stalls but stays safe.
      shape = shape && rs.verdict == sim::RunVerdict::kCompleted &&
              rr.verdict == sim::RunVerdict::kStalled;
    }
    if (e.name == "repfree-del") {
      // The receiver's replay defence lives in volatile state: a restart
      // with stale data copies in flight re-writes an item.  The bad write
      // comes after the crash, so the verdict blames the (absent) recovery
      // layer — see bench/r2_recovery for the durable counterpart.  (A
      // *sender* restart can go either way — stale acks sometimes
      // fast-forward it.)
      shape = shape && rr.verdict == sim::RunVerdict::kRecoveryViolation;
    }
  }
  std::cout << "\n" << crash.to_ascii();

  std::cout << "\nexpected: in-envelope protocols soak clean; ABP fails under "
               "reordering chaos and its failing plan shrinks to a minimal, "
               "deterministically replayable schedule; Stenning's sender "
               "survives amnesia while repfree's receiver violates safety "
               "(a post-crash, recovery-classified violation).\n"
            << "measured: " << (shape ? "CONFIRMED" : "NOT CONFIRMED")
            << "\n";
  return bench.finish(shape);
}
