// Tests for the single-decree Paxos engine (fixed groups): agreement and
// validity under delays, drops, proposer duels, and acceptor crashes;
// a late proposer learning the decision, and per-instance proposer and
// acceptor records ending at decide.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

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

}  // namespace
}  // namespace tokensync
