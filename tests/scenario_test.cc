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

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "core/erc721_consensus.h"
#include "core/erc777_consensus.h"
#include "core/kat_consensus.h"
#include "exec/exec_specs.h"
#include "net/block_replica.h"
#include "net/replica_core.h"

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

// --- The harness's script rides SimNet's sorted cursor, not its heap:
// --- the event slab holds only what is in flight, however long the run.

struct StormRun {
  std::size_t script = 0;  ///< entries registered: submits + deadline ticks
  std::size_t slots = 0;   ///< net().event_slots() after finish()
};

/// A block_storm-shaped run: tsbench's block knobs (64-op blocks, a
/// deadline every 200 ticks), and each replica submitting three ERC20
/// transfers every 17 ticks for `beats` beats.
StormRun block_storm_script(std::size_t beats) {
  constexpr std::size_t kAccts = 16;
  constexpr std::uint64_t kPeriod = 200;
  ScenarioConfig c = cfg(Workload::kErc20BlockStorm, FaultProfile::kNone, 16);
  c.intensity = beats;
  c.block_max_ops = 64;
  c.block_deadline = kPeriod;
  const Erc20State initial(
      std::vector<Amount>(kAccts, 100),
      std::vector<std::vector<Amount>>(kAccts,
                                       std::vector<Amount>(kAccts, 2)));
  ClusterHarness<BlockReplicaNode<Erc20LedgerSpec>> h(
      c, initial, BlockConfig{.max_ops = 64},
      ExecOptions{.threads = 1});
  Rng rng(c.seed);
  StormRun r;
  std::uint64_t last = 0;
  for (std::size_t j = 0; j < beats; ++j) {
    for (ProcessId p = 0; p < c.num_replicas; ++p) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        const auto caller = static_cast<ProcessId>(rng.below(kAccts));
        const auto dst = static_cast<AccountId>(rng.below(kAccts));
        last = 10 + 17 * j + 4 * p + k;
        h.submit_at(p, last, caller,
                    Erc20Op::transfer(dst, 1 + rng.below(3)));
        ++r.script;
      }
    }
  }
  // finish()'s ticks: every replica, every period, through two periods
  // past the last submit.
  r.script += c.num_replicas * ((last + 2 * kPeriod) / kPeriod);
  const ScenarioReport rep = h.finish(nullptr);
  expect_ok(rep);
  EXPECT_EQ(rep.committed, 12 * beats);
  r.slots = h.net().event_slots();
  return r;
}

TEST(ClusterHarnessScript, EventSlotsDoNotGrowWithTheScript) {
  const StormRun one = block_storm_script(1000);
  const StormRun four = block_storm_script(4000);
  EXPECT_GT(one.slots, 0u);
  // In flight at once: at most 1.25x more at four times the length, and
  // under 1% of the script at either length.
  EXPECT_LE(4 * four.slots, 5 * one.slots)
      << one.slots << " -> " << four.slots;
  EXPECT_LT(100 * one.slots, one.script) << one.slots << " / " << one.script;
  EXPECT_LT(100 * four.slots, four.script)
      << four.slots << " / " << four.script;
}

// --- The audit compares committed logs in place: ReplicaCore's
// --- entry-wise comparisons give the rendered strings' verdict.

using Entries = std::vector<std::tuple<std::uint64_t, ProcessId, std::string>>;

ReplicaCore log_of(const Entries& entries, std::uint64_t time = 0) {
  ReplicaCore core;
  for (const auto& [slot, origin, line] : entries) {
    core.append(slot, origin, time++, line);
  }
  return core;
}

TEST(ReplicaCoreAudit, SameHistoryComparesSlotOriginAndLineOfEveryEntry) {
  const ReplicaCore ref = log_of({{0, 0, "a"}, {1, 2, "b"}, {2, 1, "c"}});
  struct Case {
    const char* what;
    ReplicaCore core;
    bool same;
  };
  const Case cases[] = {
      {"equal", log_of({{0, 0, "a"}, {1, 2, "b"}, {2, 1, "c"}}), true},
      {"other commit times",
       log_of({{0, 0, "a"}, {1, 2, "b"}, {2, 1, "c"}}, 50), true},
      {"line", log_of({{0, 0, "a"}, {1, 2, "B"}, {2, 1, "c"}}), false},
      {"origin", log_of({{0, 0, "a"}, {1, 3, "b"}, {2, 1, "c"}}), false},
      {"slot", log_of({{0, 0, "a"}, {1, 2, "b"}, {3, 1, "c"}}), false},
      {"extra", log_of({{0, 0, "a"}, {1, 2, "b"}, {2, 1, "c"}, {3, 0, "d"}}),
       false},
      {"missing", log_of({{0, 0, "a"}, {2, 1, "c"}}), false},
      {"empty", log_of({}), false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.core.same_history(ref), c.same) << c.what;
    EXPECT_EQ(c.core.same_history(ref), c.core.history() == ref.history())
        << c.what;
  }
  // From a slot on: the suffix a snapshot-installed rejoiner holds.
  const ReplicaCore suffix = log_of({{1, 2, "b"}, {2, 1, "c"}});
  for (std::uint64_t from = 0; from <= 3; ++from) {
    EXPECT_EQ(suffix.same_history(ref, from), from == 1) << from;
    EXPECT_EQ(suffix.same_history(ref, from),
              suffix.history() == ref.history_from(from))
        << from;
  }
  EXPECT_TRUE(log_of({}).same_history(ref, 3));
  // Never looser than the rendering: a line that embeds the next
  // entry's rendering renders equal but is not the same log.
  const ReplicaCore folded = log_of({{0, 0, "a"}, {1, 2, "b\n2 p1: c"}});
  EXPECT_EQ(folded.history(), ref.history());
  EXPECT_FALSE(folded.same_history(ref));
}

TEST(ReplicaCoreAudit, PrefixPassesAndDivergenceFails) {
  const ReplicaCore ref = log_of({{0, 0, "a"}, {1, 2, "b"}, {2, 1, "c"}});
  struct Case {
    const char* what;
    ReplicaCore core;
    bool prefix;
  };
  const Case cases[] = {
      {"empty", log_of({}), true},
      {"strict prefix", log_of({{0, 0, "a"}, {1, 2, "b"}}, 9), true},
      {"whole log", log_of({{0, 0, "a"}, {1, 2, "b"}, {2, 1, "c"}}), true},
      {"diverging line", log_of({{0, 0, "a"}, {1, 2, "x"}}), false},
      {"diverging origin", log_of({{0, 0, "a"}, {1, 0, "b"}}), false},
      {"diverging slot", log_of({{0, 0, "a"}, {4, 2, "b"}}), false},
      {"longer", log_of({{0, 0, "a"}, {1, 2, "b"}, {2, 1, "c"}, {3, 0, "d"}}),
       false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.core.history_prefix_of(ref), c.prefix) << c.what;
    EXPECT_EQ(c.core.history_prefix_of(ref),
              ref.history().starts_with(c.core.history()))
        << c.what;
  }
}

TEST(ScenarioDrain, ExhaustedBudgetIsReportedAsNonQuiescent) {
  // A timer that re-arms forever never lets the queue empty; the drain
  // must say so, and the report must carry it as a violation.
  SimNet<int> net(1, NetConfig{});
  std::function<void()> rearm = [&net, &rearm] { net.set_timer(0, 1, rearm); };
  net.set_timer(0, 1, rearm);
  ScenarioReport rep;
  note_quiescence(rep, drain_to_convergence(net, nullptr, 100, 2));
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.violations,
            std::vector<std::string>{"non-quiescent: event budget exhausted"});

  SimNet<int> quiet(1, NetConfig{});
  quiet.set_timer(0, 5, [] {});
  ScenarioReport clean;
  note_quiescence(clean, drain_to_convergence(quiet, nullptr, 100, 2));
  EXPECT_TRUE(clean.violations.empty());
}

}  // namespace
}  // namespace tokensync
