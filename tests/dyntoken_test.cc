// Experiment E10 — dyntoken: the paper's Sec. 7 future-work system.
// Per-account consensus among enabled spenders, consensus-free fast path
// for single-owner accounts, owner-driven epoch changes (eq. 12), and
// replica convergence under concurrency, delays and losses.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "dyntoken/dyntoken.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

struct Cluster {
  DynTokenNode::Net net;
  std::vector<std::unique_ptr<DynTokenNode>> nodes;

  Cluster(std::size_t n, std::vector<Amount> initial, NetConfig cfg)
      : net(n, cfg) {
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<DynTokenNode>(net, p, initial));
    }
  }

  // Runs to quiescence, then forces convergence with the harness's
  // bounded anti-entropy rounds: a replica that missed kDecide
  // disseminations (drops) queries its next unprocessed slots and pulls
  // the chain in.
  void settle(std::size_t budget = 4000000) {
    EXPECT_TRUE(drain_to_convergence(net, [this] {
      for (const auto& n : nodes) n->sync();
    }, budget));
  }

  bool all_settled() const {
    for (const auto& n : nodes) {
      if (!n->all_settled()) return false;
    }
    return true;
  }
};

TEST(DynToken, SingleOwnerFastPathTransfers) {
  Cluster c(3, {30, 0, 0}, NetConfig{.seed = 1});
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::transfer(1, 10)));
  c.settle();
  EXPECT_TRUE(c.all_settled());
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->balance(0), 20u);
    EXPECT_EQ(n->balance(1), 10u);
  }
}

TEST(DynToken, SingleOwnerGroupIsJustTheOwner) {
  Cluster c(3, {30, 0, 0}, NetConfig{});
  EXPECT_EQ(c.nodes[0]->current_group(0), (std::vector<ProcessId>{0}));
  EXPECT_EQ(c.nodes[1]->current_group(2), (std::vector<ProcessId>{2}));
}

TEST(DynToken, ApproveGrowsTheGroupEverywhere) {
  Cluster c(3, {30, 0, 0}, NetConfig{.seed = 2});
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::approve(2, 12)));
  c.settle();
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->allowance(0, 2), 12u);
    EXPECT_EQ(n->current_group(0), (std::vector<ProcessId>{0, 2}));
  }
}

TEST(DynToken, ApprovedSpenderMovesFundsViaGroupConsensus) {
  Cluster c(3, {30, 0, 0}, NetConfig{.seed = 3});
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::approve(2, 12)));
  c.settle();
  EXPECT_TRUE(c.nodes[2]->submit(DynOp::transfer_from(0, 2, 12)));
  c.settle();
  EXPECT_TRUE(c.all_settled());
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->balance(0), 18u);
    EXPECT_EQ(n->balance(2), 12u);
    EXPECT_EQ(n->allowance(0, 2), 0u);
    // Allowance spent: group shrinks back to the owner.
    EXPECT_EQ(n->current_group(0), (std::vector<ProcessId>{0}));
  }
}

TEST(DynToken, RacingSpendersExactlyOneWins) {
  // The network-level replay of the paper's Algorithm-1 race: balance 10,
  // two spenders approved 8 each (U holds: 8 + 8 > 10); only one
  // transferFrom can apply, the other aborts deterministically.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Cluster c(4, {10, 0, 0, 0},
              NetConfig{.seed = seed, .min_delay = 1, .max_delay = 30});
    EXPECT_TRUE(c.nodes[0]->submit(DynOp::approve(1, 8)));
    EXPECT_TRUE(c.nodes[0]->submit(DynOp::approve(2, 8)));
    c.settle();
    EXPECT_TRUE(c.nodes[1]->submit(DynOp::transfer_from(0, 1, 8)));
    EXPECT_TRUE(c.nodes[2]->submit(DynOp::transfer_from(0, 2, 8)));
    c.settle(8000000);
    EXPECT_TRUE(c.all_settled()) << "seed " << seed;

    // Exactly one of the two spends applied, on every replica alike.
    const Amount b1 = c.nodes[0]->balance(1);
    const Amount b2 = c.nodes[0]->balance(2);
    EXPECT_TRUE((b1 == 8 && b2 == 0) || (b1 == 0 && b2 == 8))
        << "seed " << seed << " b1=" << b1 << " b2=" << b2;
    EXPECT_EQ(c.nodes[0]->balance(0), 2u);
    for (const auto& n : c.nodes) {
      EXPECT_EQ(n->balance(1), b1);
      EXPECT_EQ(n->balance(2), b2);
      EXPECT_EQ(n->total_supply(), 10u);
    }
  }
}

TEST(DynToken, ConservationAndConvergenceUnderRandomLoad) {
  Rng rng(99);
  const std::size_t n = 4;
  Cluster c(n, std::vector<Amount>(n, 50),
            NetConfig{.seed = 17, .min_delay = 1, .max_delay = 20});
  for (int round = 0; round < 60; ++round) {
    const ProcessId who = static_cast<ProcessId>(rng.below(n));
    switch (rng.below(3)) {
      case 0:
        c.nodes[who]->submit(DynOp::transfer(
            static_cast<AccountId>(rng.below(n)), rng.below(20)));
        break;
      case 1:
        c.nodes[who]->submit(DynOp::approve(
            static_cast<ProcessId>(rng.below(n)), rng.below(15)));
        break;
      default:
        c.nodes[who]->submit(DynOp::transfer_from(
            static_cast<AccountId>(rng.below(n)),
            static_cast<AccountId>(rng.below(n)), rng.below(20)));
        break;
    }
    for (int s = 0; s < 40; ++s) c.net.step();
  }
  c.settle(12000000);
  EXPECT_TRUE(c.all_settled());
  for (const auto& node : c.nodes) {
    EXPECT_EQ(node->total_supply(), 50u * n);
    for (AccountId a = 0; a < n; ++a) {
      EXPECT_EQ(node->balance(a), c.nodes[0]->balance(a));
      for (ProcessId p = 0; p < n; ++p) {
        EXPECT_EQ(node->allowance(a, p), c.nodes[0]->allowance(a, p));
      }
    }
  }
}

TEST(DynToken, EpochChangeMidStream) {
  // Owner approves p1, p1 spends; owner then approves p2 (new epoch) and
  // p2 spends — groups change across slots, replicas stay convergent.
  Cluster c(3, {40, 0, 0}, NetConfig{.seed = 23});
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::approve(1, 10)));
  c.settle();
  EXPECT_TRUE(c.nodes[1]->submit(DynOp::transfer_from(0, 1, 10)));
  c.settle();
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::approve(2, 5)));
  c.settle();
  EXPECT_TRUE(c.nodes[2]->submit(DynOp::transfer_from(0, 2, 5)));
  c.settle();
  EXPECT_TRUE(c.all_settled());
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->balance(0), 25u);
    EXPECT_EQ(n->balance(1), 10u);
    EXPECT_EQ(n->balance(2), 5u);
  }
}

TEST(DynToken, LossySpendStillSettles) {
  Cluster c(3, {20, 0, 0},
            NetConfig{.seed = 29, .min_delay = 1, .max_delay = 10,
                      .drop_num = 15, .drop_den = 100});
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::approve(1, 15)));
  c.settle(6000000);
  EXPECT_TRUE(c.nodes[1]->submit(DynOp::transfer_from(0, 1, 15)));
  c.settle(6000000);
  EXPECT_TRUE(c.all_settled());
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->balance(1), 15u);
  }
}

// The cluster harness's agreement audit: a crashed replica must hold, per
// account, a prefix of the reference's log.
TEST(DynTokenAudit, StoppedReplicaHoldsAPrefixOfEveryAccountLog) {
  Cluster c(3, {30, 30, 30}, NetConfig{.seed = 5});
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::transfer(1, 5)));
  EXPECT_TRUE(c.nodes[1]->submit(DynOp::transfer(2, 5)));
  c.settle();
  c.net.crash(2);
  EXPECT_TRUE(c.nodes[0]->submit(DynOp::transfer(2, 1)));
  EXPECT_TRUE(c.nodes[1]->submit(DynOp::transfer(0, 1)));
  c.settle();
  const DynTokenNode& ref = *c.nodes[0];
  const DynTokenNode& stopped = *c.nodes[2];
  EXPECT_TRUE(c.nodes[1]->same_history(ref));
  EXPECT_FALSE(stopped.same_history(ref));
  EXPECT_TRUE(stopped.history_prefix_of(ref));
  EXPECT_FALSE(ref.history_prefix_of(stopped));
  // The account-major rendering is no string prefix: the reference's
  // a0[1] comes before the a1[0] both hold.
  EXPECT_FALSE(ref.history().starts_with(stopped.history()));
}

TEST(DynTokenAudit, OneDivergingAccountLogFailsThePrefix) {
  // Two runs that agree on account 1's log and differ in account 0's.
  Cluster a(3, {30, 30, 30}, NetConfig{.seed = 7});
  Cluster b(3, {30, 30, 30}, NetConfig{.seed = 7});
  EXPECT_TRUE(a.nodes[0]->submit(DynOp::transfer(1, 5)));
  EXPECT_TRUE(b.nodes[0]->submit(DynOp::transfer(1, 6)));
  for (Cluster* c : {&a, &b}) {
    EXPECT_TRUE(c->nodes[1]->submit(DynOp::transfer(2, 5)));
    c->settle();
  }
  ASSERT_EQ(a.nodes[0]->account_logs()[1], b.nodes[0]->account_logs()[1]);
  EXPECT_FALSE(a.nodes[0]->history_prefix_of(*b.nodes[0]));
  EXPECT_FALSE(b.nodes[0]->history_prefix_of(*a.nodes[0]));
  EXPECT_FALSE(a.nodes[0]->same_history(*b.nodes[0]));
}

}  // namespace
}  // namespace tokensync
