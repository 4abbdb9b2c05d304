// Dedicated ERB edge-case suite (ISSUE 5 satellite) — the fast lane's
// dissemination layer under the stresses the hybrid runtime leans on:
//
//   * per-sender FIFO under simultaneous loss AND duplication (the
//     lossy_dup profile): contiguous sequence delivery per origin, no
//     gap, no reorder, no double-delivery;
//   * retransmission quiescence: once every peer acked, the timer
//     disarms and the network drains — a finite run, not an eternal
//     retransmit loop (the property that lets scenario runs terminate);
//   * duplicate-delivery suppression: network-duplicated kData and
//     redundant eager re-broadcasts deliver each (origin, seq) exactly
//     once;
//   * crashed peers are written off: a dead receiver must not keep the
//     retransmission timer armed forever (the simulator's crash oracle
//     stands in for the crash-stop model's failure detector);
//   * only in-flight state is kept: a quiescent node retains nothing per
//     message, and a late duplicate of a pruned message is recognised by
//     the delivered frontier alone;
//   * the frontier accessor the hybrid merge barrier snapshots.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "bcast/erb.h"

namespace tokensync {
namespace {

struct Note {
  std::uint64_t v = 0;
  friend bool operator==(const Note&, const Note&) = default;
};

struct Cluster {
  using Net = SimNet<ErbMsg<Note>>;
  Net net;
  std::vector<std::unique_ptr<ErbNode<Note>>> nodes;
  // delivered[p] = (origin, seq, value) in delivery order at node p.
  std::vector<std::vector<std::tuple<ProcessId, std::uint64_t,
                                     std::uint64_t>>> delivered;

  Cluster(std::size_t n, NetConfig cfg) : net(n, cfg), delivered(n) {
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<ErbNode<Note>>(
          net, p,
          [this, p](ProcessId origin, std::uint64_t seq, const Note& m) {
            delivered[p].emplace_back(origin, seq, m.v);
          }));
    }
  }
};

TEST(ErbEdge, FifoPerSenderUnderLossAndDuplication) {
  // The lossy_dup stress: 10% loss + 20% duplication, three concurrent
  // senders interleaving 8 messages each.
  Cluster c(4, NetConfig{.seed = 21, .min_delay = 1, .max_delay = 14,
                         .drop_num = 10, .drop_den = 100,
                         .dup_num = 20, .dup_den = 100});
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (ProcessId o = 0; o < 3; ++o) {
      c.nodes[o]->broadcast(Note{100 * o + i});
    }
  }
  c.net.run(4'000'000);
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(c.delivered[p].size(), 24u) << "node " << p;
    // Per-origin: sequence numbers contiguous and in order, payloads
    // matching their sequence.
    std::map<ProcessId, std::uint64_t> next;
    for (const auto& [origin, seq, v] : c.delivered[p]) {
      EXPECT_EQ(seq, next[origin]++) << "node " << p << " origin " << origin;
      EXPECT_EQ(v, 100 * origin + seq);
    }
  }
}

TEST(ErbEdge, RetransmissionQuiescesAfterAllAcked) {
  Cluster c(4, NetConfig{.seed = 5, .min_delay = 1, .max_delay = 8});
  for (std::uint64_t i = 0; i < 5; ++i) c.nodes[i % 4]->broadcast(Note{i});
  // The run must TERMINATE well under the budget: after every peer
  // acked, timers disarm and the event queue drains.
  const std::size_t budget = 1'000'000;
  const std::size_t processed = c.net.run(budget);
  EXPECT_LT(processed, budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.nodes[p]->unacked(), 0u) << "node " << p;
  }
  // A quiescent cluster accepts new broadcasts (timers re-arm cleanly).
  c.nodes[0]->broadcast(Note{99});
  c.net.run(budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 6u) << "node " << p;
  }
}

TEST(ErbEdge, QuiescesUnderHeavyLossToo) {
  // Loss forces retransmission rounds, but fair-lossy links + acks must
  // still reach a silent network in bounded (simulated) time.
  Cluster c(3, NetConfig{.seed = 17, .min_delay = 1, .max_delay = 10,
                         .drop_num = 30, .drop_den = 100});
  for (std::uint64_t i = 0; i < 4; ++i) c.nodes[i % 3]->broadcast(Note{i});
  const std::size_t budget = 4'000'000;
  const std::size_t processed = c.net.run(budget);
  EXPECT_LT(processed, budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 4u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->unacked(), 0u);
  }
}

TEST(ErbEdge, DuplicateDeliverySuppression) {
  // 50% duplication: every surviving send likely doubled, PLUS each
  // receiver eagerly re-broadcasts — (origin, seq) must still deliver
  // exactly once everywhere.
  Cluster c(4, NetConfig{.seed = 9, .min_delay = 1, .max_delay = 6,
                         .dup_num = 50, .dup_den = 100});
  c.nodes[1]->broadcast(Note{41});
  c.nodes[1]->broadcast(Note{42});
  c.nodes[2]->broadcast(Note{43});
  c.net.run(2'000'000);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 3u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->delivered_count(), 3u);
  }
  EXPECT_GT(c.net.stats().duplicated, 0u);
}

TEST(ErbEdge, CrashedReceiverIsWrittenOff) {
  // A peer that will never ack must not keep the sender's timer armed:
  // the retransmission loop consults the crash oracle and quiesces.
  Cluster c(4, NetConfig{.seed = 13, .min_delay = 1, .max_delay = 5});
  c.net.crash(3);
  c.nodes[0]->broadcast(Note{7});
  const std::size_t budget = 1'000'000;
  const std::size_t processed = c.net.run(budget);
  EXPECT_LT(processed, budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(c.delivered[p].size(), 1u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->unacked(), 0u);
    EXPECT_EQ(c.nodes[p]->retained(), 0u);
  }
  EXPECT_TRUE(c.delivered[3].empty());
}

TEST(ErbEdge, PeerCrashingMidStreamIsWrittenOffAndLaneQuiesces) {
  // The crash lands while messages are in flight under loss, so some
  // retransmit copies are missing only the dead peer: the timer's
  // write-off must erase them, not keep walking them.
  Cluster c(4, NetConfig{.seed = 31, .min_delay = 1, .max_delay = 9,
                         .drop_num = 20, .drop_den = 100});
  for (std::uint64_t i = 0; i < 12; ++i) c.nodes[i % 3]->broadcast(Note{i});
  c.net.schedule(4, [&c] { c.net.crash(3); });
  const std::size_t budget = 1'000'000;
  EXPECT_LT(c.net.run(budget), budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 12u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->unacked(), 0u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->retained(), 0u) << "node " << p;
  }
}

TEST(ErbEdge, QuiescentNodesRetainNoPerMessageState) {
  // Delivered, fully acked messages leave nothing behind: after 60
  // broadcasts under loss and duplication reach quiescence, every node
  // holds neither buffered nor retransmit copies.
  Cluster c(4, NetConfig{.seed = 44, .min_delay = 1, .max_delay = 12,
                         .drop_num = 10, .drop_den = 100,
                         .dup_num = 20, .dup_den = 100});
  for (std::uint64_t i = 0; i < 60; ++i) c.nodes[i % 4]->broadcast(Note{i});
  // Mid-run, something is in flight somewhere.
  c.net.run(200);
  std::size_t live = 0;
  for (const auto& n : c.nodes) live += n->retained();
  EXPECT_GT(live, 0u);
  c.net.run(4'000'000);
  ASSERT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.nodes[p]->delivered_count(), 60u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->unacked(), 0u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->retained(), 0u) << "node " << p;
  }
}

TEST(ErbEdge, LateDuplicateOfPrunedMessageIsIgnored) {
  // Node 2 delivered (0, 0) and pruned it long ago.  A stale copy — even
  // one whose payload differs — is acked, but neither re-delivered nor
  // re-forwarded: the delivered frontier alone recognises it.
  Cluster c(4, NetConfig{.seed = 8, .min_delay = 1, .max_delay = 6});
  c.nodes[0]->broadcast(Note{5});
  c.nodes[0]->broadcast(Note{6});
  c.net.run(1'000'000);
  ASSERT_TRUE(c.net.idle());
  ASSERT_EQ(c.nodes[2]->retained(), 0u);
  const std::uint64_t sent = c.net.stats().sent;
  const auto delivered = c.delivered[2];

  using M = ErbMsg<Note>;
  c.net.send(1, 2, M{M::Type::kData, 0, 0, Note{5}});
  c.net.send(3, 2, M{M::Type::kData, 0, 1, Note{99}});
  c.net.run(1'000'000);
  EXPECT_TRUE(c.net.idle());
  // Two injected copies plus node 2's two acks — no forwarding.
  EXPECT_EQ(c.net.stats().sent, sent + 4);
  EXPECT_EQ(c.delivered[2], delivered);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.nodes[p]->delivered_count(), 2u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->retained(), 0u) << "node " << p;
  }
}

TEST(ErbEdge, FrontierTracksPerOriginDelivery) {
  Cluster c(3, NetConfig{.seed = 2});
  c.nodes[0]->broadcast(Note{1});
  c.nodes[0]->broadcast(Note{2});
  c.nodes[2]->broadcast(Note{3});
  c.net.run(1'000'000);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.nodes[p]->frontier(0), 2u);
    EXPECT_EQ(c.nodes[p]->frontier(1), 0u);
    EXPECT_EQ(c.nodes[p]->frontier(2), 1u);
  }
}

}  // namespace
}  // namespace tokensync
