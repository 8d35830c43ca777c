// perfbench — the service-stack benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Runs closed-loop rounds of one workload in this process until the
// rounds have measured --seconds of run time, checks every session's
// output, and prints a human summary on stderr and one JSON result line
// last on stdout.  --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics
// (README.md defines both sets).  The durable workload's session logs and
// the traced run's span export go under --work-dir.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Set-up-only constructions before the measured rounds, so that setup_s
/// is a median of enough samples even when a run has few rounds: at least
/// kSetupOnlyMin, and more while they have taken less than
/// kSetupOnlyBudget (cheap set-ups are noisy), up to kSetupOnlyMax.
constexpr int kSetupOnlyMin = 8;
constexpr int kSetupOnlyMax = 1000;
constexpr double kSetupOnlyBudget = 0.5;  // seconds
constexpr std::chrono::seconds kRoundTimeout{60};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir = ".bench_build/perfbench-work";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\nworkloads:";
  for (const Spec& s : specs()) std::cerr << " " << s.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "start_ns\tdur_ns\tside\tsession\titem\top\n";
  std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  for (const Span& s : spans) {
    out << (s.start_ns - t0) << '\t' << s.dur_ns << '\t'
        << (s.side == 0 ? "client" : "server") << '\t' << s.session << '\t'
        << s.item << '\t' << to_cstr(static_cast<SpanOp>(s.op)) << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Spec* spec = find_spec(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);

  const std::string scratch =
      args.work_dir + "/" + spec->name + "-" + std::to_string(getpid());
  std::filesystem::create_directories(scratch);
  // Round r of seed s always gets the same inputs and loss seed.
  const auto round_seed = [&](std::uint64_t r) {
    std::uint64_t state = args.seed ^ (r * 0xD1B54A32D192ED03ULL);
    return stpx::splitmix64(state);
  };
  Tracer::get().set_sweep_gap_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          spec->sweep_interval)
          .count() / 2));

  RunReport rep;
  rep.sessions_per_round = spec->sessions;
  std::vector<std::string> errors;

  const auto round_once = [&](std::uint64_t r, bool measure_rss) {
    const bool traced = args.trace == 1 && r % 2 == 1;
    const auto inputs = make_inputs(*spec, round_seed(r));
    Round round(*spec, round_seed(r), inputs, traced, scratch);
    rep.setup_s.push_back(round.setup_s());
    RoundResult res = round.run(kRoundTimeout, measure_rss);
    for (const std::string& e : res.errors) {
      errors.push_back("round " + std::to_string(r) + ": " + e);
    }
    (traced ? rep.traced : rep.untraced).add(res);
    if (traced) Tracer::get().flush_this_thread();
    return res;
  };
  const auto keep_going = [&] {
    const double measured = rep.untraced.run_s + rep.traced.run_s;
    const bool both = args.trace == 0 || rep.traced.rounds > 0;
    return errors.empty() && !(measured >= args.seconds && both);
  };

  const CpuTicks ticks0 = cpu_ticks();
  // Memory is read around the first round, on a heap with no free pages
  // cached from earlier rounds, so the growth is that round's footprint.
  // The recorder's rings are a fixed size the benchmark chose, not
  // per-session memory, so they are left out.
  const std::uint64_t rss0 = rss_bytes();
  const RoundResult first = round_once(0, /*measure_rss=*/true);
  const std::uint64_t fixed = rss0 + first.recorder_bytes;
  rep.rss_growth_bytes = first.rss_bytes > fixed ? first.rss_bytes - fixed : 0;

  double setup_only_s = 0.0;
  for (int k = 0; k < kSetupOnlyMax &&
                  (k < kSetupOnlyMin || setup_only_s < kSetupOnlyBudget);
       ++k) {
    const auto inputs = make_inputs(*spec, round_seed(1000000 + k));
    const Round round(*spec, round_seed(1000000 + k), inputs, false, scratch);
    rep.setup_s.push_back(round.setup_s());
    setup_only_s += rep.setup_s.back();
  }

  for (std::uint64_t r = 1; keep_going(); ++r) round_once(r, false);
  const CpuTicks ticks1 = cpu_ticks();
  std::filesystem::remove_all(scratch);

  std::vector<Metric> metrics;
  if (args.trace == 1) {
    Tracer::get().flush_this_thread();
    rep.layers = Tracer::get().totals();
    rep.codec = replay_codec(Tracer::get().frames());
    if (rep.traced.recorder_dropped != 0) {
      errors.push_back("flight recorder dropped " +
                       std::to_string(rep.traced.recorder_dropped) +
                       " events in the traced run");
    }
    write_spans(args.work_dir + "/" + spec->name + ".spans.tsv",
                Tracer::get().spans());
    metrics = per_layer_metrics(rep);
  } else {
    metrics = end_to_end_metrics(rep);
  }

  const std::uint64_t attempted = rep.untraced.sessions + rep.traced.sessions;
  const std::uint64_t failed =
      rep.untraced.sessions_failed + rep.traced.sessions_failed;
  const bool correct = errors.empty() && failed == 0 && attempted > 0;

  std::cerr << "perfbench " << spec->name << " seed " << args.seed
            << ": " << rep.untraced.rounds << " untraced + "
            << rep.traced.rounds << " traced rounds, "
            << rep.setup_s.size() << " set-ups, "
            << rep.untraced.item_gap_ns.count() << " item-latency samples\n";
  // Time the hypervisor took from this VM slows every figure; it is
  // printed so a slow run can be told apart from a slow program.
  const double run_steal = steal_frac(ticks0, ticks1);
  std::fprintf(stderr, "  host steal during the run: %.2f%% of CPU time\n",
               100.0 * run_steal);
  if (!rep.untraced.per_round.empty()) {
    const auto& all = rep.untraced.per_round;
    const auto quiet = quiet_rounds(all);
    double limit = 0.0;
    for (const RoundFigures& f : quiet) limit = std::max(limit, f.steal_frac);
    std::fprintf(stderr,
                 "  quiet rounds (host steal <= %.2f%%): %zu of %zu\n",
                 100.0 * limit, quiet.size(), all.size());
    std::vector<double> ips;
    for (const RoundFigures& f : all) ips.push_back(f.items_per_s);
    std::sort(ips.begin(), ips.end());
    std::fprintf(stderr,
                 "  per-round items/s, every round: min %.0f  q1 %.0f  "
                 "median %.0f  q3 %.0f  max %.0f\n",
                 ips.front(), ips[ips.size() / 4], ips[ips.size() / 2],
                 ips[ips.size() * 3 / 4], ips.back());
  }
  for (const std::string& e : errors) std::cerr << "FAILED: " << e << "\n";
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  // The steal goes on stdout too, on its own line just before the result
  // (whose keys are fixed), so a run that fell into a retransmit storm on
  // a starved host can be recognised from its output alone.
  std::printf("{\"host_steal_frac\": %.17g}\n", run_steal);
  std::cout << result_json(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}
