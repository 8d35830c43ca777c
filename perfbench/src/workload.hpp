// The benchmark's workloads: closed-loop StpClient/StpServer pairs, one
// "round" at a time.  A round builds a client and a server mux over a
// transport pair, registers every session, runs until every session on
// both ends is terminal, shuts down gracefully and checks the result.
// README.md says why each workload exists.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "seq/types.hpp"
#include "trace.hpp"

namespace perfbench {

namespace seq = stpx::seq;

/// Every workload runs Stenning over this data domain.
inline constexpr int kDomain = 8;

/// Every workload runs over lossy, reordering loopback.
struct Spec {
  const char* name;
  std::size_t sessions;
  std::size_t items;  // per session
  /// Server checkpoints into two FileStore session logs, carries a
  /// FlightRecorder, and is killed and rehydrated once per round.
  bool durable;
  std::chrono::microseconds sweep_interval;
  /// Protocol steps per session per sweep, and the sender's in-flight
  /// credit (MuxConfig::steps_per_sweep and max_inflight).
  std::size_t steps_per_sweep;
  std::size_t max_inflight;
};

const std::vector<Spec>& specs();
/// nullptr when no workload has this name.
const Spec* find_spec(const std::string& name);

/// Resident set size of this process now, after returning free heap
/// pages to the system.
std::uint64_t rss_bytes();

/// CPU time of the whole VM so far, in ticks, from /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;  // taken from this VM by the host (hypervisor)
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();
/// The share of the VM's CPU time between `a` and `b` that the host took.
double steal_frac(const CpuTicks& a, const CpuTicks& b);

/// Per-session input sequences; the same seed gives the same inputs.
std::vector<seq::Sequence> make_inputs(const Spec& spec, std::uint64_t seed);

struct RoundResult {
  std::vector<std::string> errors;  // failed checks; empty when correct
  std::size_t sessions = 0;
  std::size_t sessions_failed = 0;  // not completed with an exact copy
  std::uint64_t items = 0;          // delivered: completed sessions x items
  std::uint64_t frames_sent = 0;    // both ends, every server generation
  std::uint64_t frames_received = 0;
  std::uint64_t frames_shed = 0;
  double run_s = 0.0;               // start() until every session terminal
  double steal_frac = 0.0;          // host steal over the same interval
  std::uint64_t cpu_ns = 0;         // process CPU over the same interval
  std::uint64_t rss_bytes = 0;      // RSS once every session is done, if asked
  std::uint64_t recorder_bytes = 0;  // the recorder's preallocated rings
  Histogram item_gap_ns{kFineBits};  // consecutive writes of a session
  Histogram ack_rtt_us;              // the client mux's own samples
  // Durable rounds only.
  double restore_s = 0.0;          // rehydrate() wall time
  double post_restart_s = 0.0;     // generation 2 start until terminal
  std::uint64_t post_restart_writes = 0;
  Histogram restore_us;  // per-session, from rehydrate()
  std::uint64_t scan_ns = 0;              // inside store replay() scans
  std::uint64_t recorder_recorded = 0, recorder_dropped = 0;
  // Traced rounds only: frames through the decorated transports.
  std::uint64_t wire_sent = 0, wire_polled = 0;
};

/// One set-up client/server pair.  Constructing it is the set-up the
/// benchmark times (setup_s()); run() may be called once.
class Round {
 public:
  /// `inputs` must outlive the round; `scratch_dir` holds the durable
  /// workload's session logs.
  Round(const Spec& spec, std::uint64_t seed,
        const std::vector<seq::Sequence>& inputs, bool traced,
        const std::string& scratch_dir);
  ~Round();
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  /// Construction and registration time: transports, stores, recorder,
  /// both muxes and every add_session (not the benchmark's own probe).
  double setup_s() const;

  /// `measure_rss` reads rss_bytes() once every session is done (it trims
  /// the heap, so only the round that measures memory asks for it).
  RoundResult run(std::chrono::seconds timeout, bool measure_rss = false);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
