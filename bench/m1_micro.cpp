// M1 — microbenchmarks of the substrate itself (google-benchmark).
//
// Not a paper result; these keep the simulator honest as an artifact: step
// rate of the kernel, channel op costs, protocol step costs, ranking, the
// throughput of the two analysis engines (exploration, mirror attack), and
// the per-record serialization cost of a durable mux checkpoint flush.
#include <benchmark/benchmark.h>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/schedulers.hpp"
#include "common.hpp"
#include "knowledge/explorer.hpp"
#include "proto/session_adapter.hpp"
#include "proto/suite.hpp"
#include "seq/repetition_free.hpp"
#include "sim/engine.hpp"
#include "spec/temporal.hpp"
#include "stp/attack.hpp"
#include "store/session_log.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;

void BM_EngineStepRoundRobin(benchmark::State& state) {
  const int m = 16;
  proto::ProtocolPair pair = proto::make_repfree_del(m);
  sim::EngineConfig cfg;
  cfg.max_steps = ~std::uint64_t{0};
  cfg.stop_when_complete = false;
  sim::Engine engine(std::move(pair.sender), std::move(pair.receiver),
                     std::make_unique<channel::DelChannel>(),
                     std::make_unique<channel::RoundRobinScheduler>(), cfg);
  engine.begin(iota_sequence(m));
  for (auto _ : state) {
    engine.step_once();
    if (engine.completed()) {
      state.PauseTiming();
      engine.begin(iota_sequence(m));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineStepRoundRobin);

void BM_FullRunRepFreeDel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const seq::Sequence x = iota_sequence(m);
  const auto spec = repfree_del_spec(m, 0.2);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = stp::run_one(spec, x, seed++);
    benchmark::DoNotOptimize(r.stats.steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_FullRunRepFreeDel)->Arg(8)->Arg(32)->Arg(128);

void BM_DupChannelSendDeliver(benchmark::State& state) {
  channel::DupChannel ch;
  sim::MsgId next = 0;
  for (auto _ : state) {
    ch.send(sim::Dir::kSenderToReceiver, next % 64);
    ch.deliver(sim::Dir::kSenderToReceiver, next % 64);
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DupChannelSendDeliver);

void BM_DelChannelSendDeliver(benchmark::State& state) {
  channel::DelChannel ch;
  sim::MsgId next = 0;
  for (auto _ : state) {
    ch.send(sim::Dir::kSenderToReceiver, next % 64);
    ch.deliver(sim::Dir::kSenderToReceiver, next % 64);
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DelChannelSendDeliver);

void BM_RankUnrankRoundTrip(benchmark::State& state) {
  const int m = 12;
  std::uint64_t rank = 0;
  const std::uint64_t total = *seq::alpha_u64(m);
  for (auto _ : state) {
    const seq::Sequence x = seq::unrank_repetition_free(rank % total, m);
    benchmark::DoNotOptimize(seq::rank_repetition_free(x, m));
    rank += 997;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RankUnrankRoundTrip);

void BM_KnowledgeExploration(benchmark::State& state) {
  const int m = 2;
  const auto spec = repfree_dup_spec(m);
  const auto family = seq::canonical_repetition_free(m);
  for (auto _ : state) {
    const auto ex = knowledge::explore(
        spec, family,
        {.max_depth = static_cast<std::uint64_t>(state.range(0)),
         .max_points = 1000000});
    benchmark::DoNotOptimize(ex.points.size());
    state.counters["points"] = static_cast<double>(ex.points.size());
  }
}
BENCHMARK(BM_KnowledgeExploration)->Arg(4)->Arg(6)->Arg(8);

void BM_TargetedLearnTimes(benchmark::State& state) {
  const int m = 2;
  auto spec = repfree_dup_spec(m);
  spec.engine.record_trace = true;
  spec.engine.record_histories = true;
  const seq::Sequence x{1, 0};
  const sim::RunResult run = stp::run_one(spec, x, 3);
  const auto family = seq::canonical_repetition_free(m);
  for (auto _ : state) {
    const auto times = knowledge::learn_times_targeted(
        spec, family, run, run.stats.steps * 3 + 50, 50000);
    benchmark::DoNotOptimize(times.size());
  }
}
BENCHMARK(BM_TargetedLearnTimes);

void BM_BlockProtocolRun(benchmark::State& state) {
  stp::SystemSpec spec;
  spec.protocols = [] { return proto::make_block(4, 4, 64); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::FifoChannel>(0.1, 0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 200000;
  seq::Sequence x(64);
  for (int i = 0; i < 64; ++i) x[static_cast<std::size_t>(i)] = i % 4;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = stp::run_one(spec, x, seed++);
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BlockProtocolRun);

void BM_TemporalSafetyCheck(benchmark::State& state) {
  auto spec = repfree_del_spec(8, 0.2);
  spec.engine.record_trace = true;
  const sim::RunResult run = stp::run_one(spec, iota_sequence(8), 5);
  const auto snaps = spec::snapshots_of(run);
  const auto formula = spec::prefix_safety();
  for (auto _ : state) {
    benchmark::DoNotOptimize(formula.check(snaps).holds);
  }
  state.counters["snapshots"] = static_cast<double>(snaps.size());
}
BENCHMARK(BM_TemporalSafetyCheck);

void BM_ExhaustiveDeadlockScan(benchmark::State& state) {
  const auto spec = repfree_dup_spec(2);
  const auto family = seq::canonical_repetition_free(2);
  for (auto _ : state) {
    const auto verdict = knowledge::exhaustive_deadlock(
        spec, family, {.max_depth = 5, .max_points = 50000});
    benchmark::DoNotOptimize(verdict.points_checked);
  }
}
BENCHMARK(BM_ExhaustiveDeadlockScan);

void BM_MirrorAttack(benchmark::State& state) {
  const int m = 2;
  const auto table = overfull_table(m);
  const auto spec = encoded_spec(table, /*knowledge=*/true, /*del=*/false);
  const seq::Family family{seq::Domain{m}, table->inputs};
  for (auto _ : state) {
    const auto r = stp::find_attack(spec, family,
                                    {.skeleton_steps = 50000,
                                     .mirror_rounds = 500,
                                     .stall_rounds = 16});
    benchmark::DoNotOptimize(r.kind);
  }
}
BENCHMARK(BM_MirrorAttack);

/// A Stenning receiver adapter three items into a six-item input (domain
/// 8): the state a durable-10k server session checkpoints mid-run.
std::unique_ptr<proto::ReceiverSessionEndpoint> mid_sequence_receiver() {
  constexpr int kDomain = 8;
  seq::Sequence x;
  for (int i = 0; i < 6; ++i) x.push_back(i % kDomain);
  auto pair = proto::make_stenning(kDomain);
  auto ep = std::make_unique<proto::ReceiverSessionEndpoint>(
      std::move(pair.receiver), x);
  for (int i = 0; i < 3; ++i) {
    ep->on_deliver(static_cast<sim::MsgId>(i) * kDomain + x[i]);
    (void)ep->step();
  }
  return ep;
}

// SessionMux::flush_shard per manifest record = one save_state() of the
// session's endpoint + one SessionManifest::to_payload().
void BM_AdapterSaveState(benchmark::State& state) {
  const auto ep = mid_sequence_receiver();
  for (auto _ : state) {
    const std::string blob = ep->save_state();
    benchmark::DoNotOptimize(blob.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AdapterSaveState);

void BM_ManifestToPayload(benchmark::State& state) {
  const auto ep = mid_sequence_receiver();
  store::SessionManifest m;
  m.session = 4242;
  m.epoch = 2;
  m.seq = 123456;
  m.proto_tag = store::proto_tag_of(ep->name());
  m.position = ep->items_done();
  m.owner = 1;
  m.endpoint_state = ep->save_state();
  for (auto _ : state) {
    const std::string payload = m.to_payload();
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ManifestToPayload);

}  // namespace
