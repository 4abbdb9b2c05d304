// The synchronization-tiered replication acceptance suite (ISSUE 5):
//
//   * the pure-transfer workload commits with ZERO consensus slots —
//     every operation classifies CN = 1 and rides the ERB fast lane;
//   * its committed history is byte-identical across replicas, across
//     ALL fault profiles, and across replay thread counts {1, 2, 8}
//     (the canonical terminal epoch is a pure function of the submitted
//     operations);
//   * the mixed workload runs both lanes at once over the full fault
//     matrix with the usual agreement / conservation / settlement
//     audits, its history a deterministic per-profile function of the
//     seed and independent of replay parallelism;
//   * the force-consensus baseline (every op through Paxos) reproduces
//     the one-slot-per-op behavior the lane split is measured against;
//   * SyncTraits classify the token family the way the paper's CN
//     results dictate.
#include <gtest/gtest.h>

#include "exec/exec_specs.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

ScenarioConfig cfg(Workload w, FaultProfile f, std::uint64_t seed = 7,
                   std::size_t threads = 1) {
  ScenarioConfig c;
  c.workload = w;
  c.fault = f;
  c.seed = seed;
  c.num_replicas = 4;
  c.intensity = 5;
  c.replay_threads = threads;
  return c;
}

void expect_ok(const ScenarioReport& rep) {
  EXPECT_TRUE(rep.agreement) << rep.summary();
  EXPECT_TRUE(rep.conservation) << rep.summary();
  EXPECT_TRUE(rep.settled) << rep.summary();
  for (const std::string& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_GT(rep.committed, 0u);
}

// --- SyncTraits: the classifier itself -----------------------------------

TEST(SyncTraits, Erc20OwnerSignedTransferIsFast) {
  EXPECT_EQ(SyncTraits<Erc20LedgerSpec>::classify(0, Erc20Op::transfer(1, 5)),
            SyncClass::kFast);
  EXPECT_EQ(SyncTraits<Erc20LedgerSpec>::classify(0, Erc20Op::approve(1, 5)),
            SyncClass::kConsensus);
  EXPECT_EQ(SyncTraits<Erc20LedgerSpec>::classify(
                2, Erc20Op::transfer_from(0, 1, 5)),
            SyncClass::kConsensus);
  EXPECT_EQ(SyncTraits<Erc20LedgerSpec>::classify(0, Erc20Op::total_supply()),
            SyncClass::kConsensus);
}

TEST(SyncTraits, Erc777SendIsFastOperatorPathIsNot) {
  EXPECT_EQ(SyncTraits<Erc777LedgerSpec>::classify(0, Erc777Op::send(1, 5)),
            SyncClass::kFast);
  EXPECT_EQ(SyncTraits<Erc777LedgerSpec>::classify(
                1, Erc777Op::operator_send(0, 2, 5)),
            SyncClass::kConsensus);
  EXPECT_EQ(SyncTraits<Erc777LedgerSpec>::classify(
                0, Erc777Op::authorize_operator(1)),
            SyncClass::kConsensus);
}

TEST(SyncTraits, Erc721DefaultsToConsensusEverywhere) {
  // Ownership is the raced-over object: the conservative primary
  // template applies (no specialization on purpose).
  EXPECT_EQ(SyncTraits<Erc721LedgerSpec>::classify(
                0, Erc721Op::transfer_from(0, 1, 3)),
            SyncClass::kConsensus);
  EXPECT_EQ(SyncTraits<Erc721LedgerSpec>::classify(0, Erc721Op::approve(1, 3)),
            SyncClass::kConsensus);
}

// --- THE criterion: zero consensus slots + cross-everything identity -----

TEST(HybridFastlane, ZeroConsensusSlotsEveryProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    const auto rep = run_scenario(cfg(Workload::kErc20FastlaneStorm, f));
    expect_ok(rep);
    EXPECT_EQ(rep.slots, 0u) << rep.summary();
    EXPECT_EQ(rep.fast_lane_ops, rep.committed) << rep.summary();
  }
}

TEST(HybridFastlane, HistoryIdenticalAcrossProfilesAndReplayThreads) {
  const auto ref =
      run_scenario(cfg(Workload::kErc20FastlaneStorm, FaultProfile::kNone));
  expect_ok(ref);
  ASSERT_FALSE(ref.history.empty());
  for (FaultProfile f : all_fault_profiles()) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      const auto rep = run_scenario(
          cfg(Workload::kErc20FastlaneStorm, f, /*seed=*/7, threads));
      expect_ok(rep);
      EXPECT_EQ(rep.history, ref.history)
          << to_string(f) << " threads=" << threads;
      EXPECT_EQ(rep.history_digest, ref.history_digest);
    }
  }
}

TEST(HybridFastlane, SameSeedSameBytesIncludingNetworkTrace) {
  const auto c = cfg(Workload::kErc20FastlaneStorm, FaultProfile::kLossyDup);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.dropped, b.net.dropped);
  EXPECT_EQ(a.net.duplicated, b.net.duplicated);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
}

TEST(HybridFastlane, SeedActuallyDrivesTheTrace) {
  const auto a = run_scenario(
      cfg(Workload::kErc20FastlaneStorm, FaultProfile::kLossyLinks, 7));
  const auto b = run_scenario(
      cfg(Workload::kErc20FastlaneStorm, FaultProfile::kLossyLinks, 8));
  EXPECT_NE(a.net.dropped, b.net.dropped);
  // ...but the committed history is seed-independent: the canonical
  // terminal epoch depends only on the submitted operations.
  EXPECT_EQ(a.history, b.history);
}

// --- Mixed tiers: both lanes at once over the full fault matrix ----------

TEST(HybridMixed, BothLanesCommitEveryProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    const auto rep = run_scenario(cfg(Workload::kMixedSyncTiers, f));
    expect_ok(rep);
    EXPECT_GT(rep.slots, 0u) << rep.summary();
    EXPECT_GT(rep.fast_lane_ops, 0u) << rep.summary();
    // Every committed op went through exactly one lane.
    EXPECT_EQ(rep.committed, rep.fast_lane_ops + rep.slots) << rep.summary();
    // The split is real: far fewer consensus slots than committed ops.
    EXPECT_LT(rep.slots, rep.committed / 2) << rep.summary();
  }
}

TEST(HybridMixed, HistoryIndependentOfReplayThreadsPerProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    const auto ref = run_scenario(cfg(Workload::kMixedSyncTiers, f, 7, 1));
    expect_ok(ref);
    for (std::size_t threads : {2u, 8u}) {
      const auto rep =
          run_scenario(cfg(Workload::kMixedSyncTiers, f, 7, threads));
      expect_ok(rep);
      EXPECT_EQ(rep.history, ref.history)
          << to_string(f) << " threads=" << threads;
    }
  }
}

TEST(HybridMixed, SameSeedSameBytes) {
  const auto c = cfg(Workload::kMixedSyncTiers, FaultProfile::kPartitionHeal);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.sim_time, b.sim_time);
}

// --- The all-Paxos baseline: what the fast lane saves --------------------

TEST(HybridBaseline, ForceConsensusPaysOneSlotPerOp) {
  auto c = cfg(Workload::kErc20FastlaneStorm, FaultProfile::kNone);
  c.hybrid_force_consensus = true;
  const auto rep = run_scenario(c);
  expect_ok(rep);
  EXPECT_EQ(rep.fast_lane_ops, 0u) << rep.summary();
  EXPECT_EQ(rep.slots, rep.committed) << rep.summary();
}

TEST(HybridBaseline, FastLaneCutsMessagesAndSlots) {
  const auto fast =
      run_scenario(cfg(Workload::kErc20FastlaneStorm, FaultProfile::kNone));
  auto c = cfg(Workload::kErc20FastlaneStorm, FaultProfile::kNone);
  c.hybrid_force_consensus = true;
  const auto base = run_scenario(c);
  expect_ok(fast);
  expect_ok(base);
  EXPECT_EQ(fast.committed, base.committed);
  EXPECT_LT(fast.slots, base.slots);          // 0 vs one per op
  EXPECT_LT(fast.net.sent, base.net.sent);    // ERB ≪ Paxos traffic
}

}  // namespace
}  // namespace tokensync
