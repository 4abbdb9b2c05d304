// The multi-proposer pipeline acceptance suite (ISSUE 10):
//   * determinism — for every num_proposers in {1, 2, 4}, every fault
//     profile and every replay thread count in {1, 2, 8}, the committed
//     history is byte-identical (a pure function of the committed
//     reference sequence), and a repeated run reproduces the whole
//     report bit for bit, network counters and sim time included;
//   * recover-on-miss — with publishing force-disabled, every committed
//     reference's sub-block must be fetched through the kGet
//     round-trip, and the cluster still converges to one history;
//   * racing-proposer dedup — two proposers referencing the SAME
//     sub-block in adjacent slots apply it exactly once, every replica
//     counts the same dropped duplicate, and conservation holds;
//   * slot scaling — the same fixed-size storm commits in fewer slots
//     at P = 4 than at P = 1 (the E26 claim; the bench suite measures
//     the full grid).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_specs.h"
#include "net/multi_proposer.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

ScenarioConfig mp_cfg(FaultProfile f, std::size_t proposers,
                      std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20MultiproposerStorm;
  cfg.fault = f;
  cfg.seed = seed;
  cfg.num_replicas = 4;
  cfg.intensity = 4;
  cfg.num_proposers = proposers;
  return cfg;
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance criterion.  The committed history is a
// pure function of (seed, fault, knobs) — independent of the replay
// thread count — for every point of the P × fault matrix.
// ---------------------------------------------------------------------------

TEST(MultiProposerMatrix, HistoryInvariantAcrossThreadsFaultsAndP) {
  for (const std::size_t proposers : {1u, 2u, 4u}) {
    for (const FaultProfile f : all_fault_profiles()) {
      ScenarioConfig cfg = mp_cfg(f, proposers);
      cfg.replay_threads = 1;
      const ScenarioReport base = run_scenario(cfg);
      ASSERT_TRUE(base.ok())
          << "P=" << proposers << " " << to_string(f) << ": "
          << base.summary();
      EXPECT_GT(base.committed, 0u);
      for (const std::size_t threads : {2u, 8u}) {
        cfg.replay_threads = threads;
        const ScenarioReport rep = run_scenario(cfg);
        ASSERT_TRUE(rep.ok())
            << "P=" << proposers << " " << to_string(f)
            << " threads=" << threads << ": " << rep.summary();
        EXPECT_EQ(base.history, rep.history)
            << "P=" << proposers << " " << to_string(f)
            << " threads=" << threads;
        EXPECT_EQ(base.slots, rep.slots);
        EXPECT_EQ(base.dup_refs_dropped, rep.dup_refs_dropped);
      }
    }
  }
}

TEST(MultiProposerMatrix, RepeatedRunIsByteIdentical) {
  const ScenarioConfig cfg = mp_cfg(FaultProfile::kLossyDup, 4, 21);
  const ScenarioReport a = run_scenario(cfg);
  const ScenarioReport b = run_scenario(cfg);
  ASSERT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.history_digest, b.history_digest);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.bytes_sent, b.net.bytes_sent);
  EXPECT_EQ(a.subblocks_per_slot, b.subblocks_per_slot);
  EXPECT_EQ(a.dup_refs_dropped, b.dup_refs_dropped);
  EXPECT_EQ(a.miss_recoveries, b.miss_recoveries);
}

// ---------------------------------------------------------------------------
// Recover-on-miss: publishing force-disabled, so NO replica ever holds
// a peer's sub-block when its reference commits — every apply must go
// through the kGet fetch round-trip back to the origin.
// ---------------------------------------------------------------------------

TEST(MultiProposerRecovery, ForcedMissFetchesEverySubBlock) {
  using Node = MultiProposerNode<Erc20LedgerSpec>;
  constexpr std::size_t kAccts = 8;
  const Erc20State initial(std::vector<Amount>(kAccts, 100),
                           std::vector<std::vector<Amount>>(
                               kAccts, std::vector<Amount>(kAccts, 2)));

  typename Node::Net net(4, make_net_config(FaultProfile::kNone, 11));
  MultiProposerConfig mcfg;
  mcfg.num_proposers = 2;
  mcfg.subblock_max_ops = 4;
  std::vector<std::unique_ptr<Node>> nodes;
  for (ProcessId p = 0; p < 4; ++p) {
    nodes.push_back(std::make_unique<Node>(net, p, initial, mcfg,
                                           ExecOptions{.threads = 1}));
    nodes.back()->set_publish_enabled(false);
  }
  for (ProcessId p = 0; p < 2; ++p) {
    Node* node = nodes[p].get();
    for (std::uint64_t j = 0; j < 8; ++j) {
      net.call_at(p, 5 + 4 * j, [node, p, j] {
        node->submit(p, Erc20Op::transfer(
                            static_cast<AccountId>((p + 1 + j) % kAccts),
                            1));
      });
    }
    for (std::uint64_t t = 25; t <= 100; t += 25) {
      net.call_at(p, t, [node] { node->on_deadline(); });
    }
  }
  const std::vector<bool> correct(4, true);
  EXPECT_TRUE(drain_cluster(net, nodes, correct));

  std::uint64_t recoveries = 0;
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(nodes[p]->all_settled()) << "replica " << p;
    EXPECT_EQ(nodes[p]->history(), nodes[0]->history()) << "replica " << p;
    EXPECT_EQ(nodes[p]->engine().ledger().snapshot().total_supply(),
              static_cast<Amount>(kAccts * 100));
    // A peer's payload arrives here only AFTER its reference committed
    // (fetched, never published), so it must not become a proposal
    // candidate again: no reference commits twice, and the 16 ops take
    // exactly 3 slots.
    EXPECT_EQ(nodes[p]->dup_refs_dropped(), 0u) << "replica " << p;
    EXPECT_EQ(nodes[p]->slots_committed(), 3u) << "replica " << p;
    recoveries += nodes[p]->exchange().miss_recoveries();
  }
  EXPECT_EQ(nodes[0]->ops_committed(), 16u);
  // Each of the three non-origin replicas misses every committed slot's
  // payloads at least once (the origins themselves never miss).
  EXPECT_GT(recoveries, 0u);
  EXPECT_FALSE(nodes[0]->history().empty());
}

// ---------------------------------------------------------------------------
// Racing-proposer dedup: the satellite-1 criterion.  Pacing is disabled
// (a huge base delay) and two proposers broadcast covering proposals at
// the SAME tick, both referencing the same published sub-block; the
// duel loser's re-proposal REFRESH is frozen, modeling the real race —
// a proposal launched before the covering commit's decision arrives
// keeps its stale references.  One slot applies the sub-block; the
// other's reference is dropped — on every replica, with the same count
// — and each op applies exactly once.
// ---------------------------------------------------------------------------

TEST(MultiProposerDedup, RacingProposersApplyExactlyOnce) {
  using Node = MultiProposerNode<Erc20LedgerSpec>;
  constexpr std::size_t kAccts = 8;
  const Erc20State initial(std::vector<Amount>(kAccts, 100),
                           std::vector<std::vector<Amount>>(
                               kAccts, std::vector<Amount>(kAccts, 2)));

  typename Node::Net net(4, make_net_config(FaultProfile::kNone, 13));
  MultiProposerConfig mcfg;
  mcfg.num_proposers = 2;
  mcfg.subblock_max_ops = 4;
  mcfg.propose_base = 1'000'000;  // pacing out of the way: manual proposals
  std::vector<std::unique_ptr<Node>> nodes;
  for (ProcessId p = 0; p < 4; ++p) {
    nodes.push_back(std::make_unique<Node>(net, p, initial, mcfg,
                                           ExecOptions{.threads = 1}));
    nodes.back()->set_refresh_enabled(false);
  }
  // Four ops at replica 0 fill one sub-block (size cut at t = 8), whose
  // publish reaches every peer by t = 20 (max delay 12).
  Node* origin = nodes[0].get();
  for (std::uint64_t j = 0; j < 4; ++j) {
    net.call_at(0, 5 + j, [origin, j] {
      origin->submit(0, Erc20Op::transfer(
                            static_cast<AccountId>(1 + j), 2));
    });
  }
  // Both proposers cover the same (sole) sub-block at the same tick.
  Node* other = nodes[1].get();
  net.call_at(0, 30, [origin] { origin->propose_now(); });
  net.call_at(1, 30, [other] { other->propose_now(); });

  const std::vector<bool> correct(4, true);
  EXPECT_TRUE(drain_cluster(net, nodes, correct));

  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(nodes[p]->all_settled()) << "replica " << p;
    EXPECT_EQ(nodes[p]->history(), nodes[0]->history()) << "replica " << p;
    EXPECT_EQ(nodes[p]->slots_committed(), 2u) << "replica " << p;
    EXPECT_EQ(nodes[p]->dup_refs_dropped(), 1u) << "replica " << p;
    EXPECT_EQ(nodes[p]->ops_committed(), 4u) << "replica " << p;
    EXPECT_EQ(nodes[p]->engine().ledger().snapshot().total_supply(),
              static_cast<Amount>(kAccts * 100));
  }
}

// ---------------------------------------------------------------------------
// Slot scaling: the perf claim's shape.  The same fixed-size storm at
// P = 4 splits intake across four concurrent lanes, shrinking the span
// — and with it the covering-proposal slot count — versus P = 1.
// ---------------------------------------------------------------------------

TEST(MultiProposerScaling, FourProposersCommitInFewerSlots) {
  ScenarioConfig one = mp_cfg(FaultProfile::kNone, 1, 3);
  one.intensity = 6;
  ScenarioConfig four = mp_cfg(FaultProfile::kNone, 4, 3);
  four.intensity = 6;
  const ScenarioReport p1 = run_scenario(one);
  const ScenarioReport p4 = run_scenario(four);
  ASSERT_TRUE(p1.ok()) << p1.summary();
  ASSERT_TRUE(p4.ok()) << p4.summary();
  EXPECT_EQ(p1.committed, p4.committed);  // same total storm
  EXPECT_LT(p4.slots, p1.slots);
  EXPECT_GT(p4.subblocks_per_slot, p1.subblocks_per_slot);
}

}  // namespace
}  // namespace tokensync
