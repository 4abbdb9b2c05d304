// Seed-sweep determinism harness (ISSUE 7 satellite): the block
// pipeline's committed history must be a pure function of
// (workload, fault, seed, knobs) — byte-identical when replayed with 1,
// 2 or 8 worker threads and invariant to the relay mode — over a SWEEP
// of seeds, not one lucky constant.  The sweep crosses
//
//   workload  erc20_block_storm (the dense block workload)
//   fault     none | lossy_dup | partition_heal | crash_rejoin
//   threads   {1, 2, 8}
//   relay     {full, compact}
//
// with snapshotting + pruning ON for the crash_rejoin legs (the
// recovery subsystem rides the same determinism contract).  Per seed and
// fault, every (threads, relay) cell must pass the full scenario audit;
// the history must match across thread counts ALWAYS, and across relay
// modes for every profile except crash_rejoin — recovery bridges the
// aux lane into the primary schedule (an aux snapshot reply triggers
// primary log queries), so a rejoin run's interleaving legitimately
// depends on the relay mode while each mode stays internally audited
// and seed-deterministic (see tests/recovery_test.cc and DESIGN.md
// §13.4).  A repeated run of one cell must reproduce the identical
// report (digest + network trace) — the reproducibility anchor.
//
// The seed count defaults to 16 and is overridable through the
// TOKENSYNC_SEED_SWEEP_N environment variable: CI's TSan job runs a
// small sweep (the value of the suite is breadth, TSan pays per run),
// the nightly job runs N=64.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/recover_on_miss.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

std::size_t sweep_n() {
  if (const char* env = std::getenv("TOKENSYNC_SEED_SWEEP_N")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 16;
}

ScenarioConfig sweep_cfg(FaultProfile f, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20BlockStorm;
  cfg.fault = f;
  cfg.seed = seed;
  cfg.num_replicas = 4;
  cfg.intensity = 3;
  if (f == FaultProfile::kCrashRejoin) {
    cfg.snapshot_interval = 4;
    cfg.prune = true;
  }
  return cfg;
}

struct Cell {
  std::string history;
  std::uint64_t digest = 0;
  std::size_t slots = 0;
};

Cell run_cell(const ScenarioConfig& base, std::size_t threads,
              RelayMode mode, std::string* err) {
  ScenarioConfig cfg = base;
  cfg.replay_threads = threads;
  cfg.relay_mode = mode;
  const ScenarioReport rep = run_scenario(cfg);
  if (!rep.ok()) {
    *err += "seed " + std::to_string(cfg.seed) + " fault " + rep.fault +
            " threads " + std::to_string(threads) + " relay " +
            (mode == RelayMode::kCompact ? "compact" : "full") + ": " +
            rep.summary() + "\n";
  }
  return Cell{rep.history, rep.history_digest, rep.slots};
}

// The sweep.  One TEST per fault profile so a regression names its
// profile, and the matrix stays within the CI time budget per test.
void sweep_profile(FaultProfile f) {
  const std::size_t n = sweep_n();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Spread the seeds: consecutive small integers explore very similar
    // Rng streams under this generator, a stride decorrelates them.
    const std::uint64_t seed = 1 + 37 * i;
    const ScenarioConfig base = sweep_cfg(f, seed);
    std::string err;

    const Cell full1 = run_cell(base, 1, RelayMode::kFull, &err);
    const Cell compact1 = run_cell(base, 1, RelayMode::kCompact, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_FALSE(full1.history.empty()) << "seed " << seed;

    // Thread invariance per relay mode.
    for (const std::size_t threads : {2u, 8u}) {
      const Cell ft = run_cell(base, threads, RelayMode::kFull, &err);
      const Cell ct = run_cell(base, threads, RelayMode::kCompact, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_EQ(full1.history, ft.history)
          << "seed " << seed << " threads " << threads << " (full)";
      EXPECT_EQ(compact1.history, ct.history)
          << "seed " << seed << " threads " << threads << " (compact)";
    }

    // Relay-mode invariance — for every profile except crash_rejoin
    // (recovery couples the lanes; see the file comment).
    if (f != FaultProfile::kCrashRejoin) {
      EXPECT_EQ(full1.history, compact1.history) << "seed " << seed;
      EXPECT_EQ(full1.slots, compact1.slots) << "seed " << seed;
    }

    // Reproducibility anchor: the same cell run twice is bit-identical.
    const Cell again = run_cell(base, 1, RelayMode::kFull, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(full1.history, again.history) << "seed " << seed;
    EXPECT_EQ(full1.digest, again.digest) << "seed " << seed;
    ++checked;
  }
  EXPECT_EQ(checked, n);
}

TEST(SeedSweep, FaultNone) { sweep_profile(FaultProfile::kNone); }

TEST(SeedSweep, FaultLossyDup) { sweep_profile(FaultProfile::kLossyDup); }

TEST(SeedSweep, FaultPartitionHeal) {
  sweep_profile(FaultProfile::kPartitionHeal);
}

TEST(SeedSweep, FaultCrashRejoin) {
  sweep_profile(FaultProfile::kCrashRejoin);
}

// The rejoin legs above run with snapshotting + pruning on; this leg
// pins the OTHER recovery configurations across the sweep — from-empty
// catch-up (interval 0) and unpruned snapshots — so every recovery
// path, not just the default, is seed-stable.  Note what is NOT
// asserted: history equality BETWEEN snapshot intervals.  Catch-up
// queries travel the primary lane and their count depends on the
// interval (a covering snapshot needs zero, from-empty needs one per
// retained slot), so a live rejoiner couples the primary schedule to
// the recovery configuration — the same lane-bridge effect that breaks
// relay-mode invariance for this profile.  Each configuration is a
// distinct, individually deterministic, thread-invariant schedule.
TEST(SeedSweep, CrashRejoinRecoveryVariants) {
  const std::size_t n = sweep_n();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = 1 + 37 * i;
    for (const std::uint64_t interval : {0ull, 2ull}) {
      ScenarioConfig cfg = sweep_cfg(FaultProfile::kCrashRejoin, seed);
      cfg.snapshot_interval = interval;
      cfg.prune = false;
      std::string err;
      const Cell base = run_cell(cfg, 1, RelayMode::kFull, &err);
      const Cell again = run_cell(cfg, 1, RelayMode::kFull, &err);
      const Cell threaded = run_cell(cfg, 8, RelayMode::kFull, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_EQ(base.history, again.history)
          << "seed " << seed << " interval " << interval;
      EXPECT_EQ(base.digest, again.digest)
          << "seed " << seed << " interval " << interval;
      EXPECT_EQ(base.history, threaded.history)
          << "seed " << seed << " interval " << interval;
    }
  }
}

// --- The sharding axis (ISSUE 8): num_groups ∈ {1, 2, 4} ------------------
//
// The erc20_zipfian_shards workload swept over seeds × groups: thread
// invariance {1, 2, 8} and run-twice reproducibility must hold at every
// group count.  Relay-mode equality follows the E21 lane-bridge
// precedent, one step further: at G = 1 there is no cross-shard driver,
// so full == compact exactly as in the base sweep; at G > 1 it holds
// FAULT-FREE (no misses ⇒ no recovery round trips ⇒ applies land at the
// same instants) but NOT under lossy or partition profiles — a compact
// miss recovery delays a block's apply, the 2PC driver's reaction timer
// (armed AT apply time) moves with it, and its follow-up submission
// lands in a different primary slot.  Each mode remains individually
// deterministic and thread-invariant; only cross-MODE equality is
// profile-dependent, so that is exactly what is (and is not) asserted.
void sweep_group_axis(FaultProfile f) {
  const std::size_t n = sweep_n();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = 1 + 37 * i;
    for (const std::uint32_t groups : {1u, 2u, 4u}) {
      ScenarioConfig base;
      base.workload = Workload::kErc20ZipfianShards;
      base.fault = f;
      base.seed = seed;
      base.num_replicas = 4;
      base.intensity = 3;
      base.num_groups = groups;
      std::string err;

      const Cell full1 = run_cell(base, 1, RelayMode::kFull, &err);
      const Cell compact1 = run_cell(base, 1, RelayMode::kCompact, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_FALSE(full1.history.empty())
          << "seed " << seed << " groups " << groups;

      for (const std::size_t threads : {2u, 8u}) {
        const Cell ft = run_cell(base, threads, RelayMode::kFull, &err);
        const Cell ct = run_cell(base, threads, RelayMode::kCompact, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(full1.history, ft.history)
            << "seed " << seed << " groups " << groups << " threads "
            << threads << " (full)";
        EXPECT_EQ(compact1.history, ct.history)
            << "seed " << seed << " groups " << groups << " threads "
            << threads << " (compact)";
      }

      if (groups == 1 || f == FaultProfile::kNone) {
        EXPECT_EQ(full1.history, compact1.history)
            << "seed " << seed << " groups " << groups;
      }

      const Cell again = run_cell(base, 1, RelayMode::kFull, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_EQ(full1.history, again.history)
          << "seed " << seed << " groups " << groups;
      EXPECT_EQ(full1.digest, again.digest)
          << "seed " << seed << " groups " << groups;
    }
  }
}

// --- The Byzantine axis (ISSUE 9): equivocators ∈ {0, 1} ------------------
//
// The erc20_respend_storm on the Bracha fast lane, swept over seeds ×
// equivocator counts.  Three properties per seed: thread invariance
// {1, 2, 8} and run-twice reproducibility per cell (the base sweep's
// contract), conflict accounting exact (proofs == armed equivocators —
// detection never under- or over-fires, at any seed), and the respend-
// defense identity: the committed history with the equivocator armed is
// byte-identical to the honest run.  The fork only redirects payload
// bytes toward one victim (majority branch keeps the only reachable
// echo quorum) and proof gossip is auxiliary-class, so arming the
// adversary must change PROOFS, never the history — across every swept
// seed and profile.
void sweep_byzantine_axis(FaultProfile f) {
  const std::size_t n = sweep_n();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = 1 + 37 * i;
    std::string err;
    std::vector<Cell> by_eq;
    for (const std::size_t eq : {0u, 1u}) {
      ScenarioConfig base;
      base.workload = Workload::kErc20RespendStorm;
      base.fault = f;
      base.seed = seed;
      base.num_replicas = 4;
      base.intensity = 3;
      base.fast_lane = FastLane::kBracha;
      base.num_equivocators = eq;

      const Cell one = run_cell(base, 1, RelayMode::kFull, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_FALSE(one.history.empty()) << "seed " << seed << " eq " << eq;

      // Conflict accounting: exactly as many proofs (and quarantines)
      // as armed equivocators, on every swept seed.
      ScenarioConfig probe = base;
      probe.replay_threads = 1;
      const ScenarioReport rep = run_scenario(probe);
      EXPECT_EQ(rep.conflict_proofs, eq) << "seed " << seed;
      EXPECT_EQ(rep.quarantined_origins, eq) << "seed " << seed;
      EXPECT_EQ(rep.slots, 0u) << "seed " << seed << " eq " << eq;

      for (const std::size_t threads : {2u, 8u}) {
        const Cell t = run_cell(base, threads, RelayMode::kFull, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(one.history, t.history)
            << "seed " << seed << " eq " << eq << " threads " << threads;
      }

      const Cell again = run_cell(base, 1, RelayMode::kFull, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_EQ(one.history, again.history) << "seed " << seed << " eq " << eq;
      EXPECT_EQ(one.digest, again.digest) << "seed " << seed << " eq " << eq;
      by_eq.push_back(one);
    }
    // The respend-defense identity: adversary armed vs. not.
    EXPECT_EQ(by_eq[0].history, by_eq[1].history) << "seed " << seed;
    EXPECT_EQ(by_eq[0].digest, by_eq[1].digest) << "seed " << seed;
  }
}

// --- The proposer axis (ISSUE 10): num_proposers ∈ {1, 2, 4} --------------
//
// The erc20_multiproposer_storm swept over seeds × proposer counts:
// thread invariance {1, 2, 8} and run-twice reproducibility (digest +
// slot count) at every P.  No cross-P history equality exists to assert
// — each P is a different consensus content (a different partition of
// the same intake into sub-blocks and reference cuts) — but each cell
// must pass the full audit: byte-identical replica agreement, supply
// conservation, settlement, and identical dup-reference accounting on
// every correct replica (checked inside the harness).
void sweep_proposer_axis(FaultProfile f) {
  const std::size_t n = sweep_n();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = 1 + 37 * i;
    for (const std::size_t proposers : {1u, 2u, 4u}) {
      ScenarioConfig base;
      base.workload = Workload::kErc20MultiproposerStorm;
      base.fault = f;
      base.seed = seed;
      base.num_replicas = 4;
      base.intensity = 3;
      base.num_proposers = proposers;
      std::string err;

      const Cell one = run_cell(base, 1, RelayMode::kFull, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_FALSE(one.history.empty())
          << "seed " << seed << " P " << proposers;

      for (const std::size_t threads : {2u, 8u}) {
        const Cell t = run_cell(base, threads, RelayMode::kFull, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(one.history, t.history)
            << "seed " << seed << " P " << proposers << " threads "
            << threads;
      }

      const Cell again = run_cell(base, 1, RelayMode::kFull, &err);
      ASSERT_TRUE(err.empty()) << err;
      EXPECT_EQ(one.history, again.history)
          << "seed " << seed << " P " << proposers;
      EXPECT_EQ(one.digest, again.digest)
          << "seed " << seed << " P " << proposers;
      EXPECT_EQ(one.slots, again.slots)
          << "seed " << seed << " P " << proposers;
    }
  }
}

TEST(SeedSweep, ProposerAxisFaultNone) {
  sweep_proposer_axis(FaultProfile::kNone);
}

TEST(SeedSweep, ProposerAxisLossyDup) {
  sweep_proposer_axis(FaultProfile::kLossyDup);
}

TEST(SeedSweep, ProposerAxisPartitionHeal) {
  sweep_proposer_axis(FaultProfile::kPartitionHeal);
}

TEST(SeedSweep, ByzantineAxisFaultNone) {
  sweep_byzantine_axis(FaultProfile::kNone);
}

TEST(SeedSweep, ByzantineAxisLossyDup) {
  sweep_byzantine_axis(FaultProfile::kLossyDup);
}

TEST(SeedSweep, ByzantineAxisPartitionHeal) {
  sweep_byzantine_axis(FaultProfile::kPartitionHeal);
}

TEST(SeedSweep, GroupAxisFaultNone) { sweep_group_axis(FaultProfile::kNone); }

TEST(SeedSweep, GroupAxisLossyDup) {
  sweep_group_axis(FaultProfile::kLossyDup);
}

TEST(SeedSweep, GroupAxisPartitionHeal) {
  sweep_group_axis(FaultProfile::kPartitionHeal);
}

}  // namespace
}  // namespace tokensync
