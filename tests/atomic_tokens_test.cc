// Tests for the hardware-concurrent tokens (experiment E9's correctness
// side): the ERC20 ledger at both ends of its shard spectrum (one global
// lock, one lock per account) against the spec, multi-threaded
// conservation and linearizability spot checks of the per-account
// ledger, and the race token and hardware Algorithm 1 on real
// std::threads.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "atomic/ledger_specs.h"
#include "atomic/tokens.h"
#include "common/rng.h"
#include "lin/wg.h"

namespace tokensync {
namespace {

// ---------------------------------------------------------------------------
// Single-threaded equivalence of the global-lock (num_shards 1) and
// per-account (num_shards 0) ERC20 ledgers with the spec.
// ---------------------------------------------------------------------------
TEST(HwTokens, SingleThreadedEquivalenceWithSpec) {
  Rng rng(31);
  const std::size_t n = 4;
  Erc20State oracle(n, 0, 40);
  Erc20Ledger mt(oracle, 0, /*num_shards=*/1);
  Erc20Ledger st(oracle);
  const auto ok = [](Erc20Ledger& l, ProcessId c, const Erc20Op& op) {
    return l.apply(c, op).ok;
  };

  for (int i = 0; i < 2000; ++i) {
    const ProcessId c = static_cast<ProcessId>(rng.below(n));
    const AccountId a = static_cast<AccountId>(rng.below(n));
    const AccountId b = static_cast<AccountId>(rng.below(n));
    const Amount v = rng.below(45);
    switch (rng.below(3)) {
      case 0: {
        const Erc20Op op = Erc20Op::transfer(a, v);
        auto [resp, next] = Erc20Spec::apply(oracle, c, op);
        oracle = next;
        EXPECT_EQ(ok(mt, c, op), resp.ok);
        EXPECT_EQ(ok(st, c, op), resp.ok);
        break;
      }
      case 1: {
        const Erc20Op op = Erc20Op::transfer_from(a, b, v);
        auto [resp, next] = Erc20Spec::apply(oracle, c, op);
        oracle = next;
        EXPECT_EQ(ok(mt, c, op), resp.ok);
        EXPECT_EQ(ok(st, c, op), resp.ok);
        break;
      }
      default: {
        const Erc20Op op = Erc20Op::approve(static_cast<ProcessId>(b), v);
        auto [resp, next] = Erc20Spec::apply(oracle, c, op);
        oracle = next;
        EXPECT_EQ(ok(mt, c, op), resp.ok);
        EXPECT_EQ(ok(st, c, op), resp.ok);
        break;
      }
    }
  }
  EXPECT_EQ(mt.snapshot(), oracle);
  EXPECT_EQ(st.snapshot(), oracle);
}

// ---------------------------------------------------------------------------
// Multi-threaded conservation: total supply invariant at quiescence.
// ---------------------------------------------------------------------------
class HwConservation : public ::testing::TestWithParam<int> {};

TEST_P(HwConservation, PerAccountLedgerConservesSupply) {
  const int threads = GetParam();
  const std::size_t n = 16;
  const Amount per_account = 1000;
  std::vector<Amount> balances(n, per_account);
  Erc20Ledger ledger(Erc20State(
      balances, std::vector<std::vector<Amount>>(
                    n, std::vector<Amount>(n, 0))));

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < 20000; ++i) {
        const ProcessId c = static_cast<ProcessId>(rng.below(n));
        const AccountId d = static_cast<AccountId>(rng.below(n));
        switch (rng.below(3)) {
          case 0:
            ledger.apply(c, Erc20Op::transfer(d, rng.below(50)));
            break;
          case 1:
            ledger.apply(c, Erc20Op::transfer_from(
                                static_cast<AccountId>(rng.below(n)), d,
                                rng.below(50)));
            break;
          default:
            ledger.apply(c, Erc20Op::approve(
                                static_cast<ProcessId>(rng.below(n)),
                                rng.below(100)));
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ledger.weak_sum(), per_account * n);
}

INSTANTIATE_TEST_SUITE_P(Threads, HwConservation, ::testing::Values(2, 4, 8));

// ---------------------------------------------------------------------------
// Linearizability spot check: small concurrent histories recorded from
// real threads on the per-account ledger are accepted by the Wing–Gong
// checker.
// ---------------------------------------------------------------------------
TEST(HwTokens, PerAccountLedgerConcurrentHistoriesLinearizable) {
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 3;
    Erc20State initial(n, 0, 20);
    initial.set_allowance(0, 1, 15);
    initial.set_allowance(0, 2, 15);
    Erc20Ledger ledger(initial);

    std::atomic<std::size_t> clock{1};
    struct Rec {
      HistoryOp<Erc20Spec> h;
    };
    std::vector<Rec> recs(6);

    auto worker = [&](ProcessId me, int salt) {
      Rng rng(round * 97 + salt);
      for (int i = 0; i < 2; ++i) {
        const std::size_t idx = me * 2 + i;
        Erc20Op op;
        bool ok = false;
        const AccountId dst = static_cast<AccountId>(rng.below(n));
        const Amount v = 1 + rng.below(9);
        const std::size_t inv = clock.fetch_add(1);
        op = me == 0 ? Erc20Op::transfer(dst, v)
                     : Erc20Op::transfer_from(0, dst, v);
        ok = ledger.apply(me, op).ok;
        const std::size_t ret = clock.fetch_add(1);
        recs[idx].h.caller = me;
        recs[idx].h.op = op;
        recs[idx].h.response = Response::boolean(ok);
        recs[idx].h.invoked = inv;
        recs[idx].h.returned = ret;
      }
    };

    std::thread t0(worker, 0, 1), t1(worker, 1, 2), t2(worker, 2, 3);
    t0.join();
    t1.join();
    t2.join();

    History<Erc20Spec> hist;
    for (const auto& r : recs) hist.push_back(r.h);
    EXPECT_TRUE(is_linearizable<Erc20Spec>(initial, hist))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// AtomicRaceToken semantics.
// ---------------------------------------------------------------------------
TEST(RaceToken, FirstSpenderWinsOthersFail) {
  AtomicRaceToken race(10, {10, 6, 6});
  EXPECT_TRUE(race.try_spend(1));
  EXPECT_FALSE(race.try_spend(0));
  EXPECT_FALSE(race.try_spend(2));
  EXPECT_EQ(race.winner(), std::size_t{1});
  EXPECT_EQ(race.allowance_of(1), 0u);
  EXPECT_EQ(race.allowance_of(2), 6u);
  EXPECT_EQ(race.balance(), 4u);
}

TEST(RaceToken, OwnerDrainsEverything) {
  AtomicRaceToken race(10, {10, 6, 6});
  EXPECT_TRUE(race.try_spend(0));
  EXPECT_EQ(race.balance(), 0u);
  EXPECT_FALSE(race.try_spend(1));
  EXPECT_EQ(race.allowance_of(1), 6u);  // losers keep their allowances
}

TEST(RaceToken, ConcurrentRaceHasExactlyOneWinner) {
  for (int round = 0; round < 200; ++round) {
    const std::size_t k = 8;
    std::vector<Amount> amounts(k, 501);
    amounts[0] = 1000;
    AtomicRaceToken race(1000, amounts);
    std::atomic<int> winners{0};
    std::vector<std::thread> ts;
    for (std::size_t i = 0; i < k; ++i) {
      ts.emplace_back([&, i] {
        if (race.try_spend(i)) winners.fetch_add(1);
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_TRUE(race.winner().has_value());
  }
}

// ---------------------------------------------------------------------------
// Hardware Algorithm 1 (E9 correctness): agreement/validity across many
// concurrent rounds and thread counts.
// ---------------------------------------------------------------------------
class HwAlgo1Test : public ::testing::TestWithParam<int> {};

TEST_P(HwAlgo1Test, ConsensusAcrossThreads) {
  const std::size_t k = static_cast<std::size_t>(GetParam());
  for (int round = 0; round < 300; ++round) {
    HwAlgo1 consensus(k);
    std::vector<Amount> decided(k, 0);
    std::vector<std::thread> ts;
    for (std::size_t i = 0; i < k; ++i) {
      ts.emplace_back(
          [&, i] { decided[i] = consensus.propose(i, 1000 + i); });
    }
    for (auto& t : ts) t.join();
    // Agreement.
    for (std::size_t i = 1; i < k; ++i) {
      ASSERT_EQ(decided[i], decided[0]) << "round " << round;
    }
    // Validity.
    ASSERT_GE(decided[0], 1000u);
    ASSERT_LT(decided[0], 1000 + k);
  }
}

INSTANTIATE_TEST_SUITE_P(K, HwAlgo1Test, ::testing::Values(1, 2, 3, 4, 8,
                                                           16));

}  // namespace
}  // namespace tokensync
