// Tests for the consensus-free asset transfer over reliable broadcast
// (the CN(AT) = 1 system, experiment E10's baseline-free fast path).
#include <gtest/gtest.h>

#include <memory>

#include "atbcast/at_bcast.h"
#include "common/rng.h"

namespace tokensync {
namespace {

struct Cluster {
  AtBcastNode::Net net;
  std::vector<std::unique_ptr<AtBcastNode>> nodes;

  Cluster(std::size_t n, std::vector<Amount> initial, NetConfig cfg)
      : net(n, cfg) {
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<AtBcastNode>(net, p, initial));
    }
  }

  void settle(std::size_t budget = 3000000) { net.run(budget); }

  bool converged() const {
    for (std::size_t p = 1; p < nodes.size(); ++p) {
      if (nodes[p]->balances() != nodes[0]->balances()) return false;
    }
    return true;
  }
};

TEST(AtBcast, SimpleTransferReachesAllReplicas) {
  Cluster c(3, {10, 0, 0}, NetConfig{.seed = 1});
  EXPECT_TRUE(c.nodes[0]->submit_transfer(1, 4));
  c.settle();
  EXPECT_TRUE(c.converged());
  EXPECT_EQ(c.nodes[2]->balance(0), 6u);
  EXPECT_EQ(c.nodes[2]->balance(1), 4u);
}

TEST(AtBcast, HonestIssuerRefusesOverdraft) {
  Cluster c(3, {10, 0, 0}, NetConfig{});
  EXPECT_FALSE(c.nodes[0]->submit_transfer(1, 11));
  EXPECT_TRUE(c.nodes[0]->submit_transfer(1, 10));
  EXPECT_FALSE(c.nodes[0]->submit_transfer(2, 1));  // now empty locally
}

TEST(AtBcast, ChainedPaymentsParkUntilFunded) {
  // p1 can only pay p2 after p0's credit lands; replicas receiving the
  // second transfer first park it.
  Cluster c(3, {10, 0, 0}, NetConfig{.seed = 77, .min_delay = 1,
                                     .max_delay = 50});
  EXPECT_TRUE(c.nodes[0]->submit_transfer(1, 5));
  // Let node 1 apply its credit, then spend it.
  c.settle();
  EXPECT_TRUE(c.nodes[1]->submit_transfer(2, 5));
  c.settle();
  EXPECT_TRUE(c.converged());
  EXPECT_EQ(c.nodes[0]->balance(2), 5u);
  EXPECT_EQ(c.nodes[0]->balance(1), 0u);
}

TEST(AtBcast, NoNegativeBalancesAndConservationUnderRandomLoad) {
  Rng rng(13);
  const std::size_t n = 5;
  Cluster c(n, std::vector<Amount>(n, 100),
            NetConfig{.seed = 5, .min_delay = 1, .max_delay = 25});
  // Random interleaving of submissions and network steps.
  for (int round = 0; round < 300; ++round) {
    const ProcessId issuer = static_cast<ProcessId>(rng.below(n));
    const AccountId dst = static_cast<AccountId>(rng.below(n));
    c.nodes[issuer]->submit_transfer(dst, rng.below(40));
    for (int s = 0; s < 20; ++s) c.net.step();
  }
  c.settle();
  EXPECT_TRUE(c.converged());
  Amount total = 0;
  for (AccountId a = 0; a < n; ++a) {
    total += c.nodes[0]->balance(a);
  }
  EXPECT_EQ(total, 100u * n);
  EXPECT_EQ(c.nodes[0]->parked_count(), 0u);
}

TEST(AtBcast, LossyLinksStillConverge) {
  Cluster c(4, {50, 50, 50, 50},
            NetConfig{.seed = 21, .min_delay = 1, .max_delay = 10,
                      .drop_num = 30, .drop_den = 100});
  for (ProcessId p = 0; p < 4; ++p) {
    c.nodes[p]->submit_transfer((p + 1) % 4, 20);
  }
  c.settle(6000000);
  EXPECT_TRUE(c.converged());
  for (AccountId a = 0; a < 4; ++a) {
    EXPECT_EQ(c.nodes[0]->balance(a), 50u);  // ring of equal transfers
  }
}

TEST(AtBcast, ReplicaCrashDoesNotBlockOthers) {
  Cluster c(4, {40, 0, 0, 0}, NetConfig{.seed = 31});
  c.net.crash(3);
  EXPECT_TRUE(c.nodes[0]->submit_transfer(1, 15));
  // Retransmission to the dead replica keeps the queue alive; a bounded
  // budget stands in for failure detection.
  c.settle(150000);
  // Correct replicas agree; the crashed one is simply behind.
  EXPECT_EQ(c.nodes[1]->balance(1), 15u);
  EXPECT_EQ(c.nodes[2]->balance(1), 15u);
}

TEST(AtBcast, ForgedIssuerIsIgnored) {
  // A transfer broadcast whose origin does not own the source account
  // must be discarded by every replica.
  Cluster c(3, {10, 10, 10}, NetConfig{.seed = 41});
  using Wire = ErbMsg<AtTransfer>;
  // Node 1 forges a debit of account 0.
  Wire forged{Wire::Type::kData, /*origin=*/1, /*seq=*/0,
              AtTransfer{0, 1, 10}};
  c.net.send_all(1, forged);
  c.settle();
  EXPECT_EQ(c.nodes[0]->balance(0), 10u);
  EXPECT_EQ(c.nodes[2]->balance(0), 10u);
}

// The cluster harness's agreement audit compares the applied count and
// the balances: a pair that applied as many transfers, but different
// ones, diverges.
TEST(AtBcastAudit, DifferentTransfersAreNotTheSameHistory) {
  Cluster a(3, {10, 0, 0}, NetConfig{.seed = 1});
  Cluster b(3, {10, 0, 0}, NetConfig{.seed = 1});
  EXPECT_TRUE(a.nodes[0]->submit_transfer(1, 4));
  EXPECT_TRUE(b.nodes[0]->submit_transfer(2, 4));
  a.settle();
  b.settle();
  ASSERT_EQ(a.nodes[0]->applied_count(), b.nodes[0]->applied_count());
  EXPECT_TRUE(a.nodes[2]->same_history(*a.nodes[0]));
  EXPECT_FALSE(b.nodes[0]->same_history(*a.nodes[0]));
  EXPECT_FALSE(a.nodes[0]->same_history(*b.nodes[0]));
  EXPECT_NE(a.nodes[0]->history(), b.nodes[0]->history());
}

}  // namespace
}  // namespace tokensync
