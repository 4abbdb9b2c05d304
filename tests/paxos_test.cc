// Tests for the single-decree Paxos engine (fixed groups): agreement and
// validity under delays, drops, proposer duels, and acceptor crashes;
// a late proposer learning the decision, and per-instance proposer and
// acceptor records ending at decide.  Then the total-order broadcast on
// top of it, driven directly: dedup by the per-origin frontier (injected
// decisions, a snapshot's advance_to), the FIFO assertion, and
// agreement under loss and duplication.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "atbcast/total_order.h"
#include "dyntoken/paxos.h"

namespace tokensync {
namespace {

struct Val {
  std::uint64_t x = 0;
  friend bool operator==(const Val&, const Val&) = default;
};

struct Cluster {
  using Engine = PaxosEngine<Val>;
  Engine::Net net;
  std::vector<std::unique_ptr<Engine>> nodes;
  std::vector<std::map<InstanceId, Val>> decided;

  Cluster(std::size_t n, NetConfig cfg,
          std::optional<std::vector<ProcessId>> group = std::nullopt)
      : net(n, cfg), decided(n) {
    std::vector<ProcessId> g;
    if (group) {
      g = *group;
    } else {
      for (ProcessId p = 0; p < n; ++p) g.push_back(p);
    }
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<Engine>(
          net, p, [g](InstanceId) { return g; },
          [this, p](InstanceId id, const Val& v) { decided[p][id] = v; }));
    }
  }

  /// All nodes that decided `id` agree; returns the value if anyone did.
  std::optional<Val> agreed(InstanceId id) const {
    std::optional<Val> v;
    for (const auto& d : decided) {
      auto it = d.find(id);
      if (it == d.end()) continue;
      if (!v) v = it->second;
      EXPECT_EQ(v->x, it->second.x);
    }
    return v;
  }
};

TEST(Paxos, SingleProposerDecides) {
  Cluster c(3, NetConfig{.seed = 1});
  c.nodes[0]->propose(7, Val{42});
  c.net.run(100000);
  const auto v = c.agreed(7);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->x, 42u);
  // Everyone learned (kDecide dissemination).
  for (const auto& d : c.decided) EXPECT_TRUE(d.contains(7));
}

TEST(Paxos, DuelingProposersAgreeOnOneValue) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Cluster c(5, NetConfig{.seed = seed, .min_delay = 1, .max_delay = 40});
    c.nodes[0]->propose(1, Val{100});
    c.nodes[1]->propose(1, Val{200});
    c.nodes[2]->propose(1, Val{300});
    c.net.run(800000);
    const auto v = c.agreed(1);
    ASSERT_TRUE(v.has_value()) << "seed " << seed;
    EXPECT_TRUE(v->x == 100 || v->x == 200 || v->x == 300);
  }
}

TEST(Paxos, SurvivesMessageLoss) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Cluster c(3, NetConfig{.seed = seed, .min_delay = 1, .max_delay = 10,
                           .drop_num = 25, .drop_den = 100});
    c.nodes[0]->propose(9, Val{5});
    c.net.run(600000);
    const auto v = c.agreed(9);
    ASSERT_TRUE(v.has_value()) << "seed " << seed;
    EXPECT_EQ(v->x, 5u);
  }
}

TEST(Paxos, MinorityAcceptorCrashTolerated) {
  Cluster c(5, NetConfig{.seed = 3});
  c.net.crash(3);
  c.net.crash(4);
  c.nodes[1]->propose(2, Val{11});
  c.net.run(400000);
  const auto v = c.agreed(2);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->x, 11u);
}

TEST(Paxos, MajorityCrashBlocksButStaysSafe) {
  Cluster c(3, NetConfig{.seed = 4});
  c.net.crash(1);
  c.net.crash(2);
  c.nodes[0]->propose(5, Val{9});
  c.net.run(50000);  // bounded: retries never reach quorum
  EXPECT_FALSE(c.agreed(5).has_value());
}

TEST(Paxos, ManyInstancesIndependentDecisions) {
  Cluster c(4, NetConfig{.seed = 6, .min_delay = 1, .max_delay = 15});
  for (InstanceId id = 0; id < 30; ++id) {
    c.nodes[id % 4]->propose(id, Val{1000 + id});
  }
  c.net.run(3000000);
  for (InstanceId id = 0; id < 30; ++id) {
    const auto v = c.agreed(id);
    ASSERT_TRUE(v.has_value()) << "instance " << id;
    EXPECT_EQ(v->x, 1000 + id);
  }
}

// Replica 3 is cut off while 0-2 decide; after the heal it proposes a
// different value and learns the decided one from the catch-up replies.
// Afterwards no engine holds a proposer or acceptor record.  Run with a
// dense instance id and a dyntoken-style (account << 32) | slot one.
TEST(Paxos, LateProposerLearnsDecisionAndRecordsEndAtDecide) {
  for (const InstanceId id : {InstanceId{5}, (InstanceId{3} << 32) | 7}) {
    Cluster c(4, NetConfig{.seed = 2, .min_delay = 1, .max_delay = 10});
    c.net.partition({{0, 1, 2}, {3}});
    c.nodes[0]->propose(id, Val{42});
    c.net.run(200000);
    ASSERT_TRUE(c.agreed(id).has_value()) << "id " << id;
    EXPECT_FALSE(c.decided[3].contains(id));

    c.net.heal();
    c.nodes[3]->propose(id, Val{77});
    EXPECT_EQ(c.nodes[3]->live_records(), 1u);  // its proposer
    c.net.run(200000);
    for (ProcessId p = 0; p < 4; ++p) {
      ASSERT_TRUE(c.decided[p].contains(id)) << "replica " << p;
      EXPECT_EQ(c.decided[p].at(id).x, 42u) << "replica " << p;
      EXPECT_EQ(c.nodes[p]->decision(id).x, 42u) << "replica " << p;
      EXPECT_EQ(c.nodes[p]->live_records(), 0u) << "replica " << p;
    }
  }
}

TEST(Paxos, SubgroupQuorumsExcludeOutsiders) {
  // Acceptor group = {0, 1, 2} within a 5-node net: a 2-of-3 quorum
  // decides even if nodes 3 and 4 never participate.
  Cluster c(5, NetConfig{.seed = 8},
            std::vector<ProcessId>{0, 1, 2});
  c.net.crash(3);
  c.net.crash(4);
  c.nodes[0]->propose(77, Val{123});
  c.net.run(200000);
  const auto v = c.agreed(77);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->x, 123u);
}

// ---------------------------------------------------------------------------
// TotalOrderBcast on its own.
// ---------------------------------------------------------------------------

using Delivery = std::tuple<std::uint64_t, ProcessId, std::uint64_t>;

struct TobCluster {
  using Tob = TotalOrderBcast<Val>;
  using Msg = PaxosMsg<TobCmd<Val>>;
  Tob::Net net;
  std::vector<std::unique_ptr<Tob>> nodes;
  /// delivered[p] = (slot, origin, nonce) in node p's delivery order.
  std::vector<std::vector<Delivery>> delivered;

  TobCluster(std::size_t n, NetConfig cfg) : net(n, cfg), delivered(n) {
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<Tob>(
          net, p,
          [this, p](std::uint64_t slot, ProcessId origin,
                    std::uint64_t nonce, const Val&) {
            delivered[p].emplace_back(slot, origin, nonce);
          }));
    }
  }

  /// Hands node 0 node 1's kDecide for `slot` carrying (origin, nonce),
  /// and runs the net dry.
  void decide(std::uint64_t slot, ProcessId origin, std::uint64_t nonce) {
    Msg m;
    m.type = Msg::Type::kDecide;
    m.instance = slot;
    m.value = TobCmd<Val>{origin, nonce, Val{nonce}};
    net.send(1, 0, m);
    net.run();
  }
};

// Paxos value adoption can decide one (origin, nonce) in two slots: the
// later one is not delivered, and the slot still counts as delivered.
TEST(TotalOrderBcast, RepeatedOriginNonceAtALaterSlotIsNotDelivered) {
  TobCluster c(4, NetConfig{.seed = 1});
  c.decide(0, 2, 1);
  c.decide(1, 2, 1);  // the adoption-race duplicate
  c.decide(2, 2, 2);
  EXPECT_EQ(c.delivered[0], (std::vector<Delivery>{{0, 2, 1}, {2, 2, 2}}));
  EXPECT_EQ(c.nodes[0]->delivered_count(), 3u);
  EXPECT_EQ(c.nodes[0]->origin_frontiers(),
            (std::vector<std::uint64_t>{0, 0, 2, 0}));
}

// A snapshot install raises the frontiers: a nonce at or below
// F[origin] is covered, wherever it lands, and F[origin] + 1 is next.
TEST(TotalOrderBcast, AdvanceToSuppressesNoncesTheFrontierCovers) {
  TobCluster c(4, NetConfig{.seed = 1});
  const std::vector<std::uint64_t> f{0, 3, 0, 5};
  c.nodes[0]->advance_to(5, f);
  EXPECT_EQ(c.nodes[0]->origin_frontiers(), f);
  c.decide(5, 2, 1);  // an uncovered origin delivers as usual
  c.decide(6, 1, 3);  // == F[1]
  c.decide(7, 1, 2);  // <  F[1]
  c.decide(8, 3, 5);  // == F[3]
  EXPECT_EQ(c.delivered[0], (std::vector<Delivery>{{5, 2, 1}}));
  EXPECT_EQ(c.nodes[0]->origin_frontiers(),
            (std::vector<std::uint64_t>{0, 3, 1, 5}));
  c.decide(9, 1, 4);  // F[1] + 1
  EXPECT_EQ(c.delivered[0], (std::vector<Delivery>{{5, 2, 1}, {9, 1, 4}}));
  EXPECT_EQ(c.nodes[0]->origin_frontiers(),
            (std::vector<std::uint64_t>{0, 4, 1, 5}));
  EXPECT_EQ(c.nodes[0]->delivered_count(), 10u);
}

// Per-origin nonces deliver contiguously; a gap in them means the
// frontier no longer describes the delivered prefix, so delivery stops.
TEST(TotalOrderBcastDeathTest, NonceTwoAboveTheFrontierTripsTheFifoAssert) {
  EXPECT_DEATH(
      {
        TobCluster c(4, NetConfig{.seed = 1});
        c.decide(0, 2, 2);
      },
      "invariant failed: cmd.nonce == frontier");
}

// Four origins broadcast 20 payloads each through lossy, duplicating
// links: every replica delivers the same (slot, origin, nonce)
// sequence, each origin's nonces 1..20 in order, and ends with every
// frontier at 20.
TEST(TotalOrderBcast, AgreementAndPerOriginFifoUnderLossAndDuplication) {
  constexpr std::uint64_t kPerOrigin = 20;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TobCluster c(4, NetConfig{.seed = seed, .drop_num = 10, .dup_num = 20});
    for (ProcessId p = 0; p < 4; ++p) {
      for (std::uint64_t i = 1; i <= kPerOrigin; ++i) {
        c.nodes[p]->broadcast(Val{100 * p + i});
      }
    }
    const auto settled = [&c] {
      for (ProcessId p = 0; p < 4; ++p) {
        if (c.delivered[p].size() < 4 * kPerOrigin) return false;
      }
      return true;
    };
    c.net.run();
    // Replicas that missed the last decisions have no gap evidence to
    // react to; the drivers' end-of-run anti-entropy probe reaches them.
    for (int round = 0; round < 100 && !settled(); ++round) {
      for (const auto& n : c.nodes) n->sync();
      c.net.run();
    }
    ASSERT_TRUE(settled()) << "seed " << seed;
    for (ProcessId p = 0; p < 4; ++p) {
      EXPECT_EQ(c.delivered[p], c.delivered[0]) << "seed " << seed;
      EXPECT_TRUE(c.nodes[p]->all_settled()) << "seed " << seed;
      EXPECT_EQ(c.nodes[p]->origin_frontiers(),
                std::vector<std::uint64_t>(4, kPerOrigin))
          << "seed " << seed;
    }
    std::vector<std::uint64_t> last(4, 0);
    for (const auto& [slot, origin, nonce] : c.delivered[0]) {
      EXPECT_EQ(nonce, ++last[origin]) << "seed " << seed << " slot " << slot;
    }
  }
}

}  // namespace
}  // namespace tokensync
