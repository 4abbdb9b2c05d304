// The distributed-runtime acceptance suite (ISSUE 2):
//   * determinism — two runs of the same (workload, fault, seed) produce
//     byte-identical committed histories AND identical network traces;
//   * agreement + conservation — every scenario × fault profile the
//     runtime claims to survive actually converges with identical
//     histories and conserved supply;
//   * the replicated token race — any TokenRaceSpec, end-to-end over the
//     faulty network, still satisfies agreement and validity.
#include "sched/scenario.h"

#include <gtest/gtest.h>

#include "core/erc721_consensus.h"
#include "core/erc777_consensus.h"
#include "core/kat_consensus.h"

namespace tokensync {
namespace {

ScenarioConfig cfg(Workload w, FaultProfile f, std::uint64_t seed = 7) {
  ScenarioConfig c;
  c.workload = w;
  c.fault = f;
  c.seed = seed;
  c.num_replicas = 4;
  c.intensity = 5;
  return c;
}

void expect_ok(const ScenarioReport& rep) {
  EXPECT_TRUE(rep.agreement) << rep.summary();
  EXPECT_TRUE(rep.conservation) << rep.summary();
  EXPECT_TRUE(rep.settled) << rep.summary();
  for (const std::string& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_GT(rep.committed, 0u);
}

void expect_identical(const ScenarioReport& a, const ScenarioReport& b) {
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.history_digest, b.history_digest);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.dropped, b.net.dropped);
  EXPECT_EQ(a.net.duplicated, b.net.duplicated);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
}

// --- Determinism: same seed ⇒ byte-identical run, across ≥3 fault
// --- scenarios (the ISSUE 2 acceptance criterion).

TEST(ScenarioDeterminism, LossyLinksSameSeedSameBytes) {
  const auto c = cfg(Workload::kErc20TransferStorm, FaultProfile::kLossyLinks);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  expect_identical(a, b);
}

TEST(ScenarioDeterminism, PartitionHealSameSeedSameBytes) {
  const auto c =
      cfg(Workload::kErc20TransferStorm, FaultProfile::kPartitionHeal);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  expect_identical(a, b);
}

TEST(ScenarioDeterminism, MinorityCrashSameSeedSameBytes) {
  const auto c =
      cfg(Workload::kErc20TransferStorm, FaultProfile::kMinorityCrash);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  expect_identical(a, b);
}

TEST(ScenarioDeterminism, LossyDupDynTokenSameSeedSameBytes) {
  const auto c = cfg(Workload::kDynTokenReconfig, FaultProfile::kLossyDup);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  expect_identical(a, b);
}

TEST(ScenarioDeterminism, SeedActuallyDrivesTheTrace) {
  const auto a =
      run_scenario(cfg(Workload::kErc20TransferStorm,
                       FaultProfile::kLossyLinks, /*seed=*/7));
  const auto b =
      run_scenario(cfg(Workload::kErc20TransferStorm,
                       FaultProfile::kLossyLinks, /*seed=*/8));
  // Different seeds shuffle delays and drops; the committed content is
  // the same workload but the network trace must differ.
  EXPECT_NE(a.net.dropped, b.net.dropped);
}

// --- Every workload under every fault profile it claims to survive.

TEST(ScenarioMatrix, AllWorkloadsFaultFree) {
  for (Workload w : all_workloads()) {
    expect_ok(run_scenario(cfg(w, FaultProfile::kNone)));
  }
}

TEST(ScenarioMatrix, Erc20StormAllFaults) {
  for (FaultProfile f : all_fault_profiles()) {
    expect_ok(run_scenario(cfg(Workload::kErc20TransferStorm, f)));
  }
}

TEST(ScenarioMatrix, Erc721MintTradeRaceUnderFaults) {
  expect_ok(run_scenario(
      cfg(Workload::kErc721MintTradeRace, FaultProfile::kLossyDup)));
  expect_ok(run_scenario(
      cfg(Workload::kErc721MintTradeRace, FaultProfile::kPartitionHeal)));
  expect_ok(run_scenario(
      cfg(Workload::kErc721MintTradeRace, FaultProfile::kMinorityCrash)));
}

TEST(ScenarioMatrix, Erc777ApproveBurnUnderFaults) {
  expect_ok(run_scenario(
      cfg(Workload::kErc777ApproveBurn, FaultProfile::kLossyLinks)));
  expect_ok(run_scenario(
      cfg(Workload::kErc777ApproveBurn, FaultProfile::kPartitionHeal)));
  expect_ok(run_scenario(
      cfg(Workload::kErc777ApproveBurn, FaultProfile::kMinorityCrash)));
}

TEST(ScenarioMatrix, DynTokenReconfigUnderFaults) {
  for (FaultProfile f : all_fault_profiles()) {
    expect_ok(run_scenario(cfg(Workload::kDynTokenReconfig, f)));
  }
}

TEST(ScenarioMatrix, AtBcastPaymentsLossy) {
  expect_ok(run_scenario(
      cfg(Workload::kAtBcastPayments, FaultProfile::kLossyLinks)));
}

// --- The hardware executor workloads (ISSUE 3): parallel-vs-sequential
// --- equivalence audits across thread counts 1/2/8, and an inert fault
// --- axis (no network exists, so every profile runs identically).

TEST(ScenarioDeterminism, Erc20ParallelStormSameSeedSameBytes) {
  const auto c = cfg(Workload::kErc20ParallelStorm, FaultProfile::kNone);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  expect_identical(a, b);
}

TEST(ScenarioDeterminism, MixedCommuteEscalateSameSeedSameBytes) {
  const auto c = cfg(Workload::kMixedCommuteEscalate, FaultProfile::kNone);
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  expect_identical(a, b);
}

TEST(ScenarioMatrix, ExecutorWorkloadsFaultAxisIsInert) {
  for (Workload w :
       {Workload::kErc20ParallelStorm, Workload::kMixedCommuteEscalate}) {
    const auto ref = run_scenario(cfg(w, FaultProfile::kNone));
    expect_ok(ref);
    EXPECT_NE(ref.history.find("waves"), std::string::npos);
    for (FaultProfile f : all_fault_profiles()) {
      const auto rep = run_scenario(cfg(w, f));
      expect_ok(rep);
      EXPECT_EQ(rep.history, ref.history);  // same batch, same schedule
    }
  }
}

// --- The sharded workload (ISSUE 8): erc20_zipfian_shards counters and
// --- determinism.  (The AllWorkloadsFaultFree matrix above already runs
// --- it at the num_groups = 1 degenerate; the deep fault × thread
// --- matrix lives in tests/cross_shard_test.cc.)

TEST(ScenarioShards, ZipfianCountersAtTwoGroups) {
  auto c = cfg(Workload::kErc20ZipfianShards, FaultProfile::kNone);
  c.num_groups = 2;
  const auto rep = run_scenario(c);
  expect_ok(rep);
  EXPECT_EQ(rep.groups, 2u);
  // The script forces a cross-shard slice and hot-account migrations;
  // every 2PC transfer either committed or aborted (terminal), and at
  // least one of each protocol actually exercised.
  EXPECT_GT(rep.cross_shard_ops, 0u);
  EXPECT_GE(rep.migrations, 1u);
  EXPECT_GT(rep.slots, 0u);
  EXPECT_GE(rep.slots, rep.group_slots_max);
  EXPECT_NE(rep.history.find("== group 1 =="), std::string::npos);
}

TEST(ScenarioShards, OneGroupDegeneratesToPlainPipeline) {
  auto c = cfg(Workload::kErc20ZipfianShards, FaultProfile::kNone);
  c.num_groups = 1;
  const auto rep = run_scenario(c);
  expect_ok(rep);
  EXPECT_EQ(rep.groups, 1u);
  EXPECT_EQ(rep.cross_shard_ops, 0u);
  EXPECT_EQ(rep.cross_shard_aborts, 0u);
  EXPECT_EQ(rep.migrations, 0u);
  EXPECT_EQ(rep.slots, rep.group_slots_max);
}

TEST(ScenarioShards, FourGroupsSameSeedSameBytes) {
  auto c = cfg(Workload::kErc20ZipfianShards, FaultProfile::kLossyDup);
  c.num_groups = 4;
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  expect_identical(a, b);
  EXPECT_EQ(a.cross_shard_ops, b.cross_shard_ops);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.group_slots_max, b.group_slots_max);
}

// A compact-relay sharded run reports the recover-on-miss round trips of
// every group of every correct replica; full relay never misses.
TEST(ScenarioShards, CompactRelayReportsMissRecoveries) {
  for (const RelayMode mode : {RelayMode::kCompact, RelayMode::kFull}) {
    auto c = cfg(Workload::kErc20ZipfianShards, FaultProfile::kLossyLinks,
                 /*seed=*/1);
    c.intensity = 6;
    c.num_groups = 2;
    c.relay_mode = mode;
    const auto rep = run_scenario(c);
    expect_ok(rep);
    if (mode == RelayMode::kCompact) {
      EXPECT_GT(rep.miss_recoveries, 0u);
    } else {
      EXPECT_EQ(rep.miss_recoveries, 0u);
    }
  }
}

// --- The replicated token race: any TokenRaceSpec end-to-end over the
// --- network, agreement + validity under faults.

template <typename Spec>
void race_roundtrip(const std::string& name, FaultProfile f) {
  const auto a = run_token_race_scenario<Spec>(4, f, 13, name);
  const auto b = run_token_race_scenario<Spec>(4, f, 13, name);
  EXPECT_TRUE(a.agreement) << a.summary();
  EXPECT_TRUE(a.settled) << a.summary();
  for (const std::string& v : a.violations) ADD_FAILURE() << name << ": " << v;
  expect_identical(a, b);
}

TEST(ReplicatedRace, KatUnderLoss) {
  race_roundtrip<KatRaceSpec>("race_kat", FaultProfile::kLossyLinks);
}

TEST(ReplicatedRace, KatUnderPartitionHeal) {
  race_roundtrip<KatRaceSpec>("race_kat", FaultProfile::kPartitionHeal);
}

TEST(ReplicatedRace, Erc721UnderDuplication) {
  race_roundtrip<Erc721RaceSpec>("race_erc721", FaultProfile::kLossyDup);
}

TEST(ReplicatedRace, Erc777UnderMinorityCrash) {
  race_roundtrip<Erc777RaceSpec>("race_erc777", FaultProfile::kMinorityCrash);
}

TEST(ReplicatedRace, ExactlyOneWinnerEveryProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    const auto rep = run_token_race_scenario<KatRaceSpec>(4, f, 3, "race_kat");
    EXPECT_TRUE(rep.agreement) << rep.summary();
    for (const std::string& v : rep.violations) ADD_FAILURE() << v;
  }
}

TEST(ScenarioDrain, ExhaustedBudgetIsReportedAsNonQuiescent) {
  // A timer that re-arms forever never lets the queue empty; the drain
  // must say so, and the report must carry it as a violation.
  SimNet<int> net(1, NetConfig{});
  net.set_timer_handler(0, [&net](std::uint64_t) { net.set_timer(0, 1, 0); });
  net.set_timer(0, 1, 0);
  ScenarioReport rep;
  note_quiescence(rep, drain_to_convergence(net, nullptr, 100, 2));
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.violations,
            std::vector<std::string>{"non-quiescent: event budget exhausted"});

  SimNet<int> quiet(1, NetConfig{});
  quiet.set_timer(0, 5, 0);
  ScenarioReport clean;
  note_quiescence(clean, drain_to_convergence(quiet, nullptr, 100, 2));
  EXPECT_TRUE(clean.violations.empty());
}

}  // namespace
}  // namespace tokensync
