// Tests for the synchronization planner (the conclusion's operational
// insight: required coordination is readable from the state) and the
// batch wave scheduler plan_batch (σ-footprints → conflict graph →
// waves; the executor's determinism rests on its ORDER/ISOLATION
// invariants — see the BatchSchedule contract in core/planner.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/rng.h"
#include "core/planner.h"

namespace tokensync {
namespace {

TEST(Planner, StandardInitialStateIsFullyConsensusFree) {
  const SyncPlan plan = plan_synchronization(Erc20State(4, 0, 100));
  EXPECT_EQ(plan.level, 1u);
  EXPECT_EQ(plan.coordinated_accounts, 0u);
  for (const auto& ap : plan.accounts) EXPECT_TRUE(ap.consensus_free);
}

TEST(Planner, ApprovalsCreateCoordinationGroups) {
  Erc20State q(4, 0, 100);
  q.set_allowance(0, 1, 60);
  q.set_allowance(0, 2, 60);
  const SyncPlan plan = plan_synchronization(q);
  EXPECT_EQ(plan.level, 3u);
  EXPECT_EQ(plan.coordinated_accounts, 1u);
  EXPECT_EQ(plan.accounts[0].group, (std::vector<ProcessId>{0, 1, 2}));
  EXPECT_TRUE(plan.accounts[1].consensus_free);
  EXPECT_TRUE(plan.realizable);  // U holds: 60 + 60 > 100
}

TEST(Planner, NonRealizableLevelIsFlagged) {
  Erc20State q(4, 0, 100);
  q.set_allowance(0, 1, 10);
  q.set_allowance(0, 2, 10);  // 10 + 10 <= 100: U fails
  const SyncPlan plan = plan_synchronization(q);
  EXPECT_EQ(plan.level, 3u);
  EXPECT_FALSE(plan.realizable);
}

TEST(Planner, ZeroBalanceAccountsNeedNoCoordination) {
  Erc20State q(3, 0, 100);
  q.set_allowance(1, 0, 50);  // allowance on an empty account
  const SyncPlan plan = plan_synchronization(q);
  EXPECT_TRUE(plan.accounts[1].consensus_free);
}

TEST(Planner, RenderMentionsGroupsAndLevel) {
  Erc20State q(3, 0, 100);
  q.set_allowance(0, 2, 80);
  const std::string s = plan_synchronization(q).to_string();
  EXPECT_NE(s.find("k = 2"), std::string::npos);
  EXPECT_NE(s.find("group {p0, p2}"), std::string::npos);
}

// --- plan_batch: σ-footprints → conflict graph → wave schedule.

Footprint fp(std::initializer_list<AccountId> accounts) {
  Footprint f;
  for (AccountId a : accounts) f.add(a);
  return f;
}

Footprint fp_all() {
  Footprint f;
  f.set_all();
  return f;
}

/// plan_batch over a fresh 16-account scratch.
BatchSchedule plan(const std::vector<Footprint>& fps,
                   const std::vector<bool>& esc = {}) {
  PlanScratch scratch(16);
  return plan_batch(fps, esc, scratch);
}

TEST(PlanBatch, DisjointFootprintsShareOneWave) {
  const auto s = plan({fp({0, 1}), fp({2, 3}), fp({4, 5})});
  EXPECT_EQ(s.num_waves, 1u);
  EXPECT_EQ(s.wave, (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(s.escalated, 0u);
  EXPECT_EQ(s.conflict_edges, 0u);
  EXPECT_DOUBLE_EQ(s.parallelism(), 3.0);
}

TEST(PlanBatch, ConflictingOpsOrderAcrossWavesInSubmissionOrder) {
  // 0 and 1 collide on account 1; 2 is independent; 3 collides with 1.
  const auto s =
      plan({fp({0, 1}), fp({1, 2}), fp({5, 6}), fp({2, 7})});
  EXPECT_EQ(s.wave[0], 0u);
  EXPECT_EQ(s.wave[1], 1u);  // after op 0 (shares account 1)
  EXPECT_EQ(s.wave[2], 0u);  // commutes with everything
  EXPECT_EQ(s.wave[3], 2u);  // after op 1 (shares account 2)
  EXPECT_EQ(s.num_waves, 3u);
}

TEST(PlanBatch, EscalatedOpIsASingletonBarrier) {
  const auto s = plan(
      {fp({0, 1}), fp({2, 3}), fp({4, 5}), fp({0, 1})},
      {false, true, false, false});
  EXPECT_EQ(s.wave[0], 0u);
  EXPECT_EQ(s.wave[1], 1u);  // the barrier, alone
  EXPECT_EQ(s.wave[2], 2u);  // disjoint from everything, still after it
  EXPECT_EQ(s.wave[3], 2u);  // conflicts only with op 0 — and the barrier
  EXPECT_EQ(s.escalated, 1u);
  ASSERT_EQ(s.num_waves, 3u);
  EXPECT_EQ(s.order, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(s.wave_begin, (std::vector<std::uint32_t>{0, 1, 2, 4}));
  ASSERT_EQ(s.wave_ops(1).size(), 1u);
  EXPECT_EQ(s.wave_ops(1)[0], 1u);
}

TEST(PlanBatch, WholeStateFootprintEscalatesWithoutATrait) {
  const auto s = plan({fp({0, 1}), fp_all(), fp({0, 1})});
  EXPECT_EQ(s.wave, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(s.escalated, 1u);
  // barrier→op0 (1) + op2→barrier (1) + op2↔op0 per shared account (2).
  EXPECT_EQ(s.conflict_edges, 4u);
}

TEST(PlanBatch, OrderInvariantHoldsOnRandomBatches) {
  // Property check: conflicting pairs are wave-ordered by submission.
  Rng rng(42);
  std::vector<Footprint> fps;
  std::vector<bool> esc;
  for (int i = 0; i < 200; ++i) {
    if (rng.chance(1, 20)) {
      fps.push_back(fp_all());
    } else {
      fps.push_back(fp({static_cast<AccountId>(rng.below(12)),
                        static_cast<AccountId>(rng.below(12))}));
    }
    esc.push_back(rng.chance(1, 25));
  }
  const auto s = plan(fps, esc);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    const bool bi = fps[i].all || esc[i];
    for (std::size_t j = i + 1; j < fps.size(); ++j) {
      const bool bj = fps[j].all || esc[j];
      if (bi || bj || fps[i].intersects(fps[j])) {
        EXPECT_LT(s.wave[i], s.wave[j])
            << "conflicting ops " << i << "," << j << " not ordered";
      }
    }
  }
  EXPECT_GT(s.escalated, 0u);
  EXPECT_GT(s.parallelism(), 1.0);
}

TEST(PlanBatch, SelfTransferCountsNoSelfEdge) {
  const auto s = plan({fp({3, 3})});
  EXPECT_EQ(s.conflict_edges, 0u);
  EXPECT_EQ(s.num_waves, 1u);
}

TEST(PlanBatch, ReusedScratchMatchesQuadraticReference) {
  // Seeded random batches planned back to back on one scratch: every
  // op's wave, the escalation count, the edge count and the flat wave
  // order against an O(n²) reading of the BatchSchedule contract.
  for (const std::size_t keyspace : {std::size_t{16}, std::size_t{4096}}) {
    PlanScratch scratch(keyspace);
    Rng rng(7 + keyspace);
    for (int batch = 0; batch < 300; ++batch) {
      const std::size_t n = rng.below(64);
      std::vector<Footprint> fps;
      std::vector<bool> esc;
      for (std::size_t i = 0; i < n; ++i) {
        Footprint f;
        if (rng.chance(1, 20)) {
          f.set_all();
        } else {
          const auto a = static_cast<AccountId>(rng.below(keyspace));
          f.add(a);
          if (rng.chance(1, 8)) {
            f.add(a);  // self-transfer
          } else if (!rng.chance(1, 6)) {
            f.add(static_cast<AccountId>(rng.below(keyspace)));
          }
        }
        fps.push_back(f);
        esc.push_back(rng.chance(1, 25));
      }
      const auto s = plan_batch(fps, esc, scratch);

      std::vector<std::uint32_t> wave(n, 0);
      std::size_t escalated = 0;
      std::size_t edges = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool bi = fps[i].all || esc[i];
        escalated += bi ? 1 : 0;
        for (std::size_t j = 0; j < i; ++j) {
          const bool bj = fps[j].all || esc[j];
          std::size_t shared = 0;  // distinct accounts both touch
          if (!bi && !bj) {
            for (std::size_t x = 0; x < fps[i].n; ++x) {
              bool seen = false;
              for (std::size_t y = 0; y < x; ++y) {
                seen = seen || fps[i].ids[y] == fps[i].ids[x];
              }
              bool hit = false;
              for (std::size_t y = 0; y < fps[j].n; ++y) {
                hit = hit || fps[j].ids[y] == fps[i].ids[x];
              }
              if (!seen && hit) ++shared;
            }
          }
          if (bi || bj || shared > 0) wave[i] = std::max(wave[i], wave[j] + 1);
          edges += (bi || bj) ? 1 : shared;
        }
      }
      ASSERT_EQ(s.wave, wave) << "keyspace " << keyspace << " batch " << batch;
      EXPECT_EQ(s.escalated, escalated);
      EXPECT_EQ(s.conflict_edges, edges);

      std::vector<std::uint32_t> order(n);
      for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return wave[a] < wave[b];
                       });
      EXPECT_EQ(s.order, order);
      ASSERT_EQ(s.wave_begin.size(), s.num_waves + 1);
      for (std::size_t w = 0; w < s.num_waves; ++w) {
        for (const std::uint32_t i : s.wave_ops(w)) EXPECT_EQ(s.wave[i], w);
      }
    }
  }
}

TEST(PlanBatch, RenderSummarizes) {
  const auto s = plan({fp({0, 1}), fp({1, 2})});
  EXPECT_NE(s.to_string().find("2 ops in 2 waves"), std::string::npos);
}

}  // namespace
}  // namespace tokensync
