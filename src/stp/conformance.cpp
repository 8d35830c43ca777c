#include "stp/conformance.hpp"

#include <memory>
#include <utility>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/fifo_channel.hpp"
#include "channel/schedulers.hpp"
#include "channel/sync_channel.hpp"
#include "proto/encoded.hpp"
#include "proto/suite.hpp"
#include "seq/encoding.hpp"
#include "seq/family.hpp"

namespace stpx::stp {

namespace {

using ChannelFactory =
    std::function<std::unique_ptr<sim::IChannel>(std::uint64_t seed)>;

ChannelFactory del(double loss) {
  return [loss](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(loss, seed);
  };
}

ChannelFactory fifo(double loss, double dup) {
  return [loss, dup](std::uint64_t seed) {
    return std::make_unique<channel::FifoChannel>(loss, dup, seed);
  };
}

ChannelFactory dup() {
  return [](std::uint64_t) { return std::make_unique<channel::DupChannel>(); };
}

}  // namespace

std::vector<ProtocolCase> suite_roster(const sim::EngineConfig& engine) {
  std::vector<ProtocolCase> roster;
  const seq::Sequence six{0, 1, 2, 3, 4, 5};
  auto add = [&](std::string name,
                 std::function<proto::ProtocolPair()> protocols,
                 ChannelFactory channel, seq::Sequence input) {
    ProtocolCase c{std::move(name), {}, std::move(input)};
    c.spec.protocols = std::move(protocols);
    c.spec.channel = std::move(channel);
    c.spec.scheduler = [](std::uint64_t seed) {
      return std::make_unique<channel::FairRandomScheduler>(seed);
    };
    c.spec.engine = engine;
    roster.push_back(std::move(c));
  };

  add("stenning", [] { return proto::make_stenning(6); }, del(0.3), six);
  add("abp", [] { return proto::make_abp(6); }, fifo(0.2, 0.1), six);
  add("modk-stenning", [] { return proto::make_modk_stenning(6, 3); },
      fifo(0.2, 0.1), six);
  add("repfree-dup", [] { return proto::make_repfree_dup(6); }, dup(), six);
  add("repfree-del", [] { return proto::make_repfree_del(6); }, del(0.3),
      six);
  add("go-back-n", [] { return proto::make_go_back_n(6, 3); }, del(0.3), six);
  add("selective-repeat", [] { return proto::make_selective_repeat(6, 3); },
      del(0.3), six);
  add("block", [] { return proto::make_block(4, 2, 12); }, fifo(0.2, 0.0),
      seq::Sequence{0, 1, 2, 3, 1, 2});
  add("hybrid", [] { return proto::make_hybrid(6, 8); }, fifo(0.1, 0.0), six);
  // Encoded pair over a chain family: words exist trivially (the encoding
  // embeds the prefix trie of <0..5> into the repetition-free word tree).
  seq::Family chain;
  chain.domain = seq::Domain{6};
  for (std::size_t len = 0; len <= six.size(); ++len) {
    chain.members.emplace_back(six.begin(),
                               six.begin() + static_cast<std::ptrdiff_t>(len));
  }
  auto enc = seq::try_build_encoding(chain, 6);
  STPX_EXPECT(enc.has_value(), "chain-family encoding must exist");
  auto table = std::make_shared<const seq::Encoding>(std::move(*enc));
  add("encoded-knowledge",
      [table] {
        return proto::ProtocolPair{
            std::make_unique<proto::EncodedSender>(table,
                                                   /*retransmit=*/false),
            std::make_unique<proto::KnowledgeReceiver>(table,
                                                       /*reack=*/false)};
      },
      dup(), six);
  add("sync-stop-wait", [] { return proto::make_sync_stop_wait(6); },
      [](std::uint64_t seed) {
        return std::make_unique<channel::SyncLossChannel>(0.2, seed);
      },
      six);
  return roster;
}

}  // namespace stpx::stp
