// Conformance harness shared by the engine-level fault suites
// (stp/recovery.hpp, stp/stabilization.hpp).
//
// A suite is a matrix: protocol case x fault kind x target process.  Each
// cell scripts one fault plan (fault/plan.hpp), runs the case's system
// through the chaos layer and judges the run.  Suites differ only in what
// they plug in — plan placement, how a cell is run (recovery attaches fresh
// stable stores) and the judge — so the protocol roster and the loop over
// cells live here once.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "stp/soak.hpp"
#include "util/expect.hpp"

namespace stpx::stp {

/// One protocol pair on its design channel, plus the input a trial sends.
struct ProtocolCase {
  std::string name;
  SystemSpec spec;
  seq::Sequence input;
};

/// The suite roster: every protocol family in proto/suite.hpp plus the
/// encoded sender/knowledge-receiver pair, each on its design channel under
/// a fair random scheduler, all running with `engine`.  Suites derive their
/// cases from it and attach their per-protocol notes by name.
std::vector<ProtocolCase> suite_roster(const sim::EngineConfig& engine);

/// The case called `name` (ContractError if there is none).
template <class Case>
Case& case_named(std::vector<Case>& cases, std::string_view name) {
  for (Case& c : cases) {
    if (c.name == name) return c;
  }
  STPX_EXPECT(false, "case_named: no case '" + std::string(name) + "'");
  return cases.front();  // unreachable
}

/// One judged cell.  `proc` is the target: the crash or scramble victim,
/// the owner of the damaged store, or the receiver of corrupted traffic.
struct MatrixTrial {
  std::string protocol;
  fault::FaultKind fault = fault::FaultKind::kDropBurst;
  sim::Proc proc = sim::Proc::kSender;
  sim::RunVerdict verdict = sim::RunVerdict::kBudgetExhausted;
  sim::RunStats stats;
  std::string detail;  // non-empty iff the judge failed the trial
};

struct MatrixReport {
  std::vector<MatrixTrial> trials;
  std::size_t passed = 0;
  std::size_t failed = 0;

  bool clean() const { return failed == 0 && !trials.empty(); }
};

/// What a suite plugs into run_matrix.
template <class Case>
struct Matrix {
  /// The fault kinds, in matrix order; each one targets both processes.
  std::span<const fault::FaultKind> kinds;
  std::function<fault::FaultPlan(const Case&, fault::FaultKind, sim::Proc)>
      plan;
  /// Runs one cell's system (its channel already carries the plan).
  std::function<sim::RunResult(const SystemSpec&, const seq::Sequence&,
                               std::uint64_t seed)>
      run = run_one;
  /// Empty when the cell passes, else a one-line account of the failure.
  std::function<std::string(const Case&, fault::FaultKind, sim::Proc,
                            const sim::RunResult&)>
      judge;
};

/// Every case x every kind x sender then receiver, in that nesting order.
/// `seed` feeds each trial's scheduler/channel factories, so the report is
/// deterministic per (cases, matrix, seed).
template <class Case>
MatrixReport run_matrix(const std::vector<Case>& cases, const Matrix<Case>& m,
                        std::uint64_t seed) {
  MatrixReport report;
  for (const Case& c : cases) {
    for (fault::FaultKind kind : m.kinds) {
      for (sim::Proc proc : {sim::Proc::kSender, sim::Proc::kReceiver}) {
        const sim::RunResult r =
            m.run(with_chaos(c.spec, m.plan(c, kind, proc)), c.input, seed);
        MatrixTrial t{c.name, kind, proc, r.verdict, r.stats,
                      m.judge(c, kind, proc, r)};
        ++(t.detail.empty() ? report.passed : report.failed);
        report.trials.push_back(std::move(t));
      }
    }
  }
  return report;
}

}  // namespace stpx::stp
