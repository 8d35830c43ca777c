// R2 (robustness) — the durable recovery layer, measured.
//
// Three exhibits:
//
//   1. Amnesia vs durability.  The crash schedules that stall Stenning's
//      receiver and make repfree's receiver violate safety (r1_soak's
//      second table) are re-run with stable stores attached: both become
//      non-events.  The delta between the columns is exactly what the
//      checkpoint/WAL layer buys.
//
//   2. The recovery conformance matrix.  Every protocol in the suite runs
//      against all four storage-fault kinds (torn-write, lose-tail,
//      corrupt-record, stale-snapshot) x a crash of either process, on its
//      design channel.  The sweep must come back clean: prefix-safety holds
//      through every recovery and every transfer still completes.
//
//   3. Recovery cost.  Metrics from an instrumented durable run — how many
//      records a recovery replays and how long until the first post-restart
//      write — attached to the JSON report.
#include <iostream>

#include "analysis/table.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "stp/recovery.hpp"
#include "stp/soak.hpp"
#include "store/stable_store.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;

}  // namespace

int main(int argc, char** argv) {
  BenchRun bench("r2_recovery", argc, argv);
  bench.param("n", 8);
  bench.param("storage_faults", 4);

  std::cout << analysis::heading(
      "R2 (robustness): durable recovery — stores, rehydration, conformance");

  bool shape = true;
  const seq::Sequence x = iota_sequence(8);

  // --- 1. amnesia vs durability ------------------------------------------
  struct Entry {
    std::string name;
    std::function<proto::ProtocolPair()> make;
    fault::FaultPlan plan;
  };
  const std::vector<Entry> exhibits = {
      {"stenning", [] { return proto::make_stenning(12); },
       fault::plan_from_text("crash-receiver @writes 2\n")},
      {"repfree-del", [] { return proto::make_repfree_del(12); },
       fault::plan_from_text("dup @step 1 dir SR count 8 match *\n"
                             "crash-receiver @writes 2\n")},
  };
  analysis::Table amnesia({"protocol", "crash schedule", "amnesiac verdict",
                           "durable verdict", "records replayed"});
  for (const Entry& e : exhibits) {
    auto spec = del_chaos_spec(e.make);
    if (e.name == "repfree-del") {
      // The violating schedule needs the deterministic round-robin
      // interleaving (same as the r1 exhibit and the regression test).
      spec.scheduler = [](std::uint64_t) {
        return std::make_unique<channel::RoundRobinScheduler>();
      };
    }
    const auto cold = stp::run_one(stp::with_chaos(spec, e.plan), x, 11);
    store::MemStore sstore, rstore;
    spec.engine.sender_store = &sstore;
    spec.engine.receiver_store = &rstore;
    const auto warm = stp::run_one(stp::with_chaos(spec, e.plan), x, 11);
    amnesia.add_row({e.name, fault::to_text(e.plan), sim::to_cstr(cold.verdict),
                     sim::to_cstr(warm.verdict),
                     std::to_string(warm.stats.records_replayed)});
    bench.record_trial(cold.stats.steps, cold.stats.sent[0] + cold.stats.sent[1],
                       cold.verdict == sim::RunVerdict::kCompleted);
    bench.record_trial(warm.stats.steps, warm.stats.sent[0] + warm.stats.sent[1],
                       warm.verdict == sim::RunVerdict::kCompleted);
    // Durability turns both failure modes into completions; without it the
    // same schedules stall (stenning) or violate safety post-crash.
    shape = shape && warm.verdict == sim::RunVerdict::kCompleted &&
            cold.verdict != sim::RunVerdict::kCompleted;
  }
  std::cout << "\n" << amnesia.to_ascii();

  // --- 2. the conformance matrix -----------------------------------------
  const auto cases = stp::default_recovery_cases();
  const stp::MatrixReport report = stp::recovery_sweep(cases, 2026);
  analysis::Table matrix({"protocol", "trials", "completed", "recoveries",
                          "records replayed"});
  // Re-aggregate per protocol (8 trials each: 4 fault kinds x 2 procs).
  for (const auto& c : cases) {
    std::uint64_t trials = 0, completed = 0, recoveries = 0, replayed = 0;
    for (const auto& t : report.trials) {
      if (t.protocol != c.name) continue;
      ++trials;
      if (t.detail.empty()) ++completed;
      recoveries += t.stats.recoveries;
      replayed += t.stats.records_replayed;
    }
    matrix.add_row({c.name, std::to_string(trials), std::to_string(completed),
                    std::to_string(recoveries), std::to_string(replayed)});
  }
  std::cout << "\n" << matrix.to_ascii();
  for (const auto& t : report.trials) {
    bench.record_trial(t.stats.steps, 0, t.detail.empty());
    if (!t.detail.empty()) std::cout << "FAILED: " << t.detail << "\n";
  }
  shape = shape && report.clean();

  // --- 3. recovery cost metrics ------------------------------------------
  {
    auto spec = del_chaos_spec([] { return proto::make_stenning(12); });
    store::MemStore sstore, rstore;
    spec.engine.sender_store = &sstore;
    spec.engine.receiver_store = &rstore;
    obs::MetricsRegistry reg;
    obs::MetricsProbe probe(&reg);
    spec.engine.probe = &probe;
    const auto plan = fault::plan_from_text(
        "crash-receiver @writes 2\n"
        "crash-sender @writes 4\n"
        "crash-receiver @writes 6\n");
    const auto r = stp::run_one(stp::with_chaos(spec, plan), x, 7);
    shape = shape && r.verdict == sim::RunVerdict::kCompleted &&
            reg.counter_value("recoveries") == 3;
    std::cout << "\ncrash-storm run: " << sim::to_cstr(r.verdict) << " with "
              << reg.counter_value("recoveries") << " recoveries, "
              << reg.counter_value("records_replayed")
              << " records replayed, p50 recovery latency "
              << reg.histograms().at("recovery.latency").quantile(0.5)
              << " steps\n";
    bench.metrics_json(reg.to_json());
    bench.record_trial(r.stats.steps, r.stats.sent[0] + r.stats.sent[1],
                       r.verdict == sim::RunVerdict::kCompleted);
  }

  std::cout << "\nexpected: the amnesia failure modes vanish once stable "
               "stores are attached; the full protocol x storage-fault x "
               "crash matrix recovers clean; a crash-storm run completes "
               "with every restart rehydrated.\n"
            << "measured: " << (shape ? "CONFIRMED" : "NOT CONFIRMED")
            << "\n";
  return bench.finish(shape);
}
