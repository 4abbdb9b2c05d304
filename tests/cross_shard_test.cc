// Cross-shard replica groups (ISSUE 8, net/shard_group.h): the sharded
// fault/determinism matrix.
//
//   * 2PC atomicity — a cross-shard transfer is never half-applied: at
//     every observation point, owned balances plus value locked in
//     transient records sum to the initial supply, and no account is
//     owned by two groups;
//   * abort path — a commit-rejected transfer (destination migrated
//     away under a stale route) refunds the locked debit exactly once;
//   * coordinator crash — the staggered backup timers drive an orphaned
//     prepare to commit; survivors settle and conserve;
//   * migration during partition — the majority side completes both
//     ownership barriers; the minority catches up after heal;
//   * reaction completeness — the 2PC driver reads only the txids each
//     applied block carries, so every targeted test also checks that no
//     committed stage transition went unreacted (ShardAudit::
//     reactions_complete, re-derived over every record);
//   * THE criterion — byte-identical per-group histories across replay
//     threads {1, 2, 8} × all 5 fault profiles, plus run-twice
//     reproducibility, through the erc20_zipfian_shards scenario.
#include "net/shard_group.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sched/scenario.h"

namespace tokensync {
namespace {

constexpr std::size_t kReplicas = 4;
constexpr std::size_t kAccounts = 8;
constexpr Amount kInitial = 100;

/// Minimal direct-drive cluster for the targeted protocol tests (the
/// scenario harness owns the workload-level matrix).
struct Cluster {
  using Node = ShardedReplicaNode;

  SimNet<Node::Msg> net;
  std::vector<std::unique_ptr<Node>> nodes;
  ShardGroupConfig scfg;

  explicit Cluster(std::uint32_t groups, std::uint64_t seed = 11,
                   NetConfig ncfg = NetConfig{})
      : net(kReplicas, [&] {
          ncfg.seed = seed;
          return ncfg;
        }()) {
    scfg.num_groups = groups;
    scfg.num_accounts = kAccounts;
    scfg.initial_balance = kInitial;
    for (ProcessId p = 0; p < kReplicas; ++p) {
      nodes.push_back(std::make_unique<Node>(net, p, scfg, BlockConfig{},
                                             ExecOptions{}));
    }
    // Deadline ticks for the whole run (a tick on a crashed node dies
    // with it, like every call_at).
    for (ProcessId p = 0; p < kReplicas; ++p) {
      for (std::uint64_t t = 25; t <= 3000; t += 25) {
        net.call_at(p, t, [this, p] { nodes[p]->on_deadline(); });
      }
    }
  }

  /// Runs to quiescence with sync rounds (each also a cut) on the given
  /// replicas — each round flushes the reaction-chain submissions the
  /// previous round's commits spawned.
  void drain(const std::vector<bool>& correct, int rounds = 12) {
    EXPECT_TRUE(drain_to_convergence(net, [this, &correct] {
      for (std::size_t p = 0; p < nodes.size(); ++p) {
        if (correct[p]) nodes[p]->sync();
      }
    }, 4'000'000, rounds));
  }

  /// The atomicity invariant, valid at ANY point of the run (not just
  /// quiescence): owned balances + value locked in transient records
  /// sum to the supply, and no account is owned twice.  A half-applied
  /// transfer (debit without lock, credit without debit, double refund)
  /// breaks the sum; a half-applied migration breaks the ownership cap.
  void expect_atomic(ProcessId p) {
    Amount total = 0;
    std::vector<std::uint32_t> owners(kAccounts, 0);
    for (std::uint32_t g = 0; g < scfg.num_groups; ++g) {
      const ShardState q = nodes[p]->group_state(g);
      total += q.owned_total() + q.in_flight_total();
      for (std::size_t a = 0; a < kAccounts; ++a) owners[a] += q.owned[a];
    }
    EXPECT_EQ(total, kInitial * kAccounts) << "replica " << p;
    for (std::size_t a = 0; a < kAccounts; ++a) {
      EXPECT_LE(owners[a], 1u) << "account " << a << " on replica " << p;
    }
  }

  /// Every tx record on each `correct` replica carries the stage its
  /// driver last reacted to — the touched-txid invariant the driver's
  /// per-block reaction pass relies on (net/shard_group.h).  It holds
  /// between any two events, not only at quiescence: the driver reacts
  /// synchronously after each block applies.
  void expect_reactions_complete(const std::vector<bool>& correct) {
    for (ProcessId p = 0; p < kReplicas; ++p) {
      if (correct[p]) {
        EXPECT_TRUE(nodes[p]->audit().reactions_complete) << "replica " << p;
      }
    }
  }
};

const std::vector<bool> kAllCorrect(kReplicas, true);

// --- 2PC end to end -------------------------------------------------------

TEST(CrossShard, SingleTransferEndToEnd) {
  Cluster c(2);
  // Account 0 lives in group 0, account 1 in group 1: cross-shard.
  c.net.call_at(0, 10, [&] { c.nodes[0]->submit_transfer(0, 1, 7); });
  c.drain(kAllCorrect);

  for (ProcessId p = 0; p < kReplicas; ++p) {
    EXPECT_TRUE(c.nodes[p]->all_settled()) << p;
    c.expect_atomic(p);
    const ShardState gs = c.nodes[p]->group_state(0);
    const ShardState gd = c.nodes[p]->group_state(1);
    EXPECT_EQ(gs.balances[0], kInitial - 7);
    EXPECT_EQ(gd.balances[1], kInitial + 7);
    // Source record retired, dest record committed — the terminal pair.
    ASSERT_EQ(gs.txs.size(), 1u);
    EXPECT_EQ(gs.txs.begin()->second.stage, ShardTxStage::kDone);
    ASSERT_EQ(gd.txs.size(), 1u);
    EXPECT_EQ(gd.txs.begin()->second.stage, ShardTxStage::kCommitted);
  }
  EXPECT_EQ(c.nodes[0]->audit().cross_done, 1u);
  EXPECT_EQ(c.nodes[0]->history(), c.nodes[3]->history());
}

TEST(CrossShard, AbortPathRefundsTheLockedDebit) {
  Cluster c(2);
  // Pin a STALE destination group: accounts 0 and 2 both live in group
  // 0, but the prepare claims account 2 lives in group 1.  The debit
  // locks in group 0, group 1 commit-rejects (it does not own account
  // 2), the driver aborts, and the lock refunds — exactly once.
  c.net.call_at(0, 10, [&] {
    c.nodes[0]->submit_transfer_routed(0, 2, 9, /*gs=*/0, /*gd=*/1);
  });
  c.drain(kAllCorrect);

  for (ProcessId p = 0; p < kReplicas; ++p) {
    EXPECT_TRUE(c.nodes[p]->all_settled()) << p;
    c.expect_atomic(p);
    const ShardState g0 = c.nodes[p]->group_state(0);
    EXPECT_EQ(g0.balances[0], kInitial);  // refund landed exactly once
    EXPECT_EQ(g0.balances[2], kInitial);  // credit never applied
  }
  const ShardAudit a = c.nodes[0]->audit();
  EXPECT_EQ(a.cross_done, 0u);
  EXPECT_EQ(a.cross_aborted, 1u);
  EXPECT_TRUE(a.quiescent);
  c.expect_reactions_complete(kAllCorrect);
}

TEST(CrossShard, CoordinatorCrashBackupsDriveTheCommit) {
  Cluster c(2);
  // Replica 3 coordinates a cross transfer, then crashes before (or
  // just as) its own reaction timer would fire; the surviving replicas'
  // staggered backup timers must carry the prepare to commit + ack.
  // t=55: the prepare has DECIDED (cut at 25 + one Paxos round) but the
  // coordinator's kCommit follow-up is at best sitting in its pool — it
  // can only propose on a deadline tick (t=75), which the crash
  // forecloses.  Only the survivors' backup timers can finish the job.
  c.net.call_at(3, 10, [&] { c.nodes[3]->submit_transfer(0, 1, 5); });
  c.net.schedule(55, [&] { c.net.crash(3); });
  std::vector<bool> correct(kReplicas, true);
  correct[3] = false;
  c.drain(correct);

  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(c.nodes[p]->all_settled()) << p;
    c.expect_atomic(p);
    EXPECT_EQ(c.nodes[p]->group_state(0).balances[0], kInitial - 5) << p;
    EXPECT_EQ(c.nodes[p]->group_state(1).balances[1], kInitial + 5) << p;
  }
  const ShardAudit a = c.nodes[0]->audit();
  EXPECT_EQ(a.cross_done, 1u);
  EXPECT_TRUE(a.quiescent);
  // Backups can land several phase ops for one txid in one block; the
  // driver must still see each committed stage once.
  c.expect_reactions_complete(correct);
  EXPECT_EQ(c.nodes[0]->history(), c.nodes[1]->history());
  EXPECT_EQ(c.nodes[0]->history(), c.nodes[2]->history());
}

TEST(CrossShard, MigrationDuringPartitionHealsEverywhere) {
  Cluster c(2);
  // Minority {3} is cut off while account 0 migrates 0 -> 1; the
  // majority completes both barriers, and after heal the minority
  // applies the same committed blocks and updates its route.
  c.net.schedule(15, [&] { c.net.partition({{0, 1, 2}, {3}}); });
  c.net.call_at(0, 30, [&] { c.nodes[0]->submit_migrate(0, 1); });
  c.net.schedule(500, [&] { c.net.heal(); });
  c.drain(kAllCorrect);

  for (ProcessId p = 0; p < kReplicas; ++p) {
    EXPECT_TRUE(c.nodes[p]->all_settled()) << p;
    c.expect_atomic(p);
    EXPECT_EQ(c.nodes[p]->route(0), 1u) << p;
    const ShardState g0 = c.nodes[p]->group_state(0);
    const ShardState g1 = c.nodes[p]->group_state(1);
    EXPECT_EQ(g0.owned[0], 0) << p;
    EXPECT_EQ(g1.owned[0], 1) << p;
    EXPECT_EQ(g1.balances[0], kInitial) << p;
  }
  EXPECT_EQ(c.nodes[0]->audit().migrations, 1u);
  c.expect_reactions_complete(kAllCorrect);
  EXPECT_EQ(c.nodes[0]->history(), c.nodes[3]->history());
}

TEST(CrossShard, MigrationRefusedWhileDebitLocked) {
  // A migrate-out racing a prepare on the same account must lose (the
  // abort refund has to land where the lock was taken).  Submit both in
  // the same block window so they ride the same consensus slot wave.
  Cluster c(2);
  c.net.call_at(0, 10, [&] { c.nodes[0]->submit_transfer(0, 1, 5); });
  c.net.call_at(1, 11, [&] { c.nodes[1]->submit_migrate(0, 1); });
  c.drain(kAllCorrect);

  for (ProcessId p = 0; p < kReplicas; ++p) {
    EXPECT_TRUE(c.nodes[p]->all_settled()) << p;
    c.expect_atomic(p);
  }
  const ShardAudit a = c.nodes[0]->audit();
  EXPECT_TRUE(a.quiescent);
  EXPECT_EQ(a.owned_total, kInitial * kAccounts);
  EXPECT_TRUE(a.partitioned);
  // Whichever order consensus chose, every record is terminal and the
  // supply survived: either the prepare won (transfer completes or
  // aborts; the racing migrate-out was refused by the lock guard) or
  // the migration won (the late prepare is refused — account 0 no
  // longer owned by group 0 — and locks nothing).
  EXPECT_LE(a.cross_done + a.cross_aborted, 1u);
  c.expect_reactions_complete(kAllCorrect);
  std::size_t records = 0;
  for (std::uint32_t g = 0; g < 2; ++g) {
    records += c.nodes[0]->group_state(g).txs.size();
  }
  EXPECT_GE(records, 2u);  // both the prepare and the migrate left a trace
}

TEST(CrossShard, AtomicityHoldsMidRun) {
  // Sample the invariant WHILE transfers are in flight, not just at the
  // end: run the net in bounded bursts and re-check every replica's
  // owned + in-flight sum after each burst.
  Cluster c(4);
  Rng rng(91);
  for (std::uint64_t t = 10; t < 300; t += 7) {
    const auto p = static_cast<ProcessId>(rng.below(kReplicas));
    const auto src = static_cast<AccountId>(rng.below(kAccounts));
    auto dst = static_cast<AccountId>(rng.below(kAccounts));
    if (dst == src) dst = (dst + 1) % kAccounts;
    c.net.call_at(p, t, [&c, p, src, dst] {
      c.nodes[p]->submit_transfer(src, dst, 1);
    });
  }
  for (int burst = 0; burst < 40; ++burst) {
    c.net.run(5'000);
    for (ProcessId p = 0; p < kReplicas; ++p) c.expect_atomic(p);
    c.expect_reactions_complete(kAllCorrect);
  }
  c.drain(kAllCorrect);
  for (ProcessId p = 0; p < kReplicas; ++p) {
    EXPECT_TRUE(c.nodes[p]->all_settled()) << p;
    c.expect_atomic(p);
  }
  EXPECT_TRUE(c.nodes[0]->audit().quiescent);
  EXPECT_EQ(c.nodes[0]->history(), c.nodes[1]->history());
}

// --- THE criterion: thread invariance × the full fault matrix -------------

ScenarioConfig shard_cfg(FaultProfile f, std::uint32_t groups,
                         std::size_t threads) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20ZipfianShards;
  cfg.fault = f;
  cfg.seed = 7;
  cfg.num_replicas = 4;
  cfg.intensity = 5;
  cfg.num_groups = groups;
  cfg.replay_threads = threads;
  return cfg;
}

/// The harness audit covers reaction completeness too: the sharded
/// runtime's extras record "driver missed a committed stage transition"
/// for any correct replica whose ShardAudit::reactions_complete is false,
/// so the violation loop below fails on it.
void expect_ok(const ScenarioReport& rep) {
  EXPECT_TRUE(rep.agreement) << rep.summary();
  EXPECT_TRUE(rep.conservation) << rep.summary();
  EXPECT_TRUE(rep.settled) << rep.summary();
  for (const std::string& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_GT(rep.committed, 0u);
}

TEST(CrossShardMatrix, ThreadInvarianceAllFaultProfiles) {
  for (const FaultProfile f : all_fault_profiles()) {
    const ScenarioReport base = run_scenario(shard_cfg(f, 2, 1));
    expect_ok(base);
    EXPECT_GT(base.cross_shard_ops + base.cross_shard_aborts, 0u)
        << to_string(f);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const ScenarioReport rep = run_scenario(shard_cfg(f, 2, threads));
      EXPECT_EQ(rep.history, base.history)
          << to_string(f) << " threads=" << threads;
      EXPECT_EQ(rep.history_digest, base.history_digest);
      EXPECT_EQ(rep.committed, base.committed);
      EXPECT_EQ(rep.slots, base.slots);
      EXPECT_EQ(rep.group_slots_max, base.group_slots_max);
    }
    // Run-twice: the whole report is a pure function of the config.
    const ScenarioReport again = run_scenario(shard_cfg(f, 2, 1));
    EXPECT_EQ(again.history, base.history) << to_string(f);
    EXPECT_EQ(again.net.sent, base.net.sent);
    EXPECT_EQ(again.sim_time, base.sim_time);
  }
}

TEST(CrossShardMatrix, FourGroupsFaultFree) {
  const ScenarioReport base = run_scenario(shard_cfg(FaultProfile::kNone, 4, 1));
  expect_ok(base);
  EXPECT_EQ(base.groups, 4u);
  EXPECT_GT(base.cross_shard_ops, 0u);
  const ScenarioReport rep8 = run_scenario(shard_cfg(FaultProfile::kNone, 4, 8));
  EXPECT_EQ(rep8.history, base.history);
  EXPECT_EQ(rep8.history_digest, base.history_digest);
}

}  // namespace
}  // namespace tokensync
