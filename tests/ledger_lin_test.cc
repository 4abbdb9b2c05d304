// Linearizability of the generic ConcurrentLedger instantiations under
// real multi-threaded load, mirroring the per-account ERC20 ledger's
// check (atomic_tokens_test): small concurrent histories recorded from std::threads must be
// accepted by the Wing–Gong checker against the *sequential*
// specification — the single-source-of-truth property the ledger
// refactor promises (apply_inplace ≡ SeqSpec::apply).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "atomic/ledger.h"
#include "atomic/ledger_specs.h"
#include "common/rng.h"
#include "lin/wg.h"

namespace tokensync {
namespace {

// ---------------------------------------------------------------------------
// ERC721: threads race transferFrom on contended tokens; owner moves are
// exactly the state-dependent-footprint path.
// ---------------------------------------------------------------------------
TEST(LedgerLin, Erc721ConcurrentHistoriesLinearizable) {
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 3;
    // Tokens 0 and 1 start at account 0; everyone operates for account 0,
    // and p1/p2 also operate for each other's accounts so contended
    // cross-moves are authorized.
    Erc721State initial(n, {0, 0});
    for (AccountId holder = 0; holder < n; ++holder) {
      for (ProcessId p = 0; p < n; ++p) {
        if (p != holder) initial.set_operator(holder, p, true);
      }
    }
    ConcurrentLedger<Erc721LedgerSpec> ledger(initial);

    std::atomic<std::size_t> clock{1};
    std::vector<HistoryOp<Erc721Spec>> recs(6);

    auto worker = [&](ProcessId me, int salt) {
      Rng rng(round * 131 + salt);
      for (int i = 0; i < 2; ++i) {
        const std::size_t idx = me * 2 + i;
        const TokenId tok = static_cast<TokenId>(rng.below(2));
        Erc721Op op;
        if (rng.below(4) == 0) {
          op = Erc721Op::owner_of(tok);
        } else {
          // Guess a current owner; a wrong guess records FALSE, which the
          // checker must also be able to linearize.
          const AccountId src = static_cast<AccountId>(rng.below(n));
          const AccountId dst = static_cast<AccountId>(rng.below(n));
          op = Erc721Op::transfer_from(src, dst, tok);
        }
        const std::size_t inv = clock.fetch_add(1);
        const Response resp = ledger.apply(me, op);
        const std::size_t ret = clock.fetch_add(1);
        recs[idx] = {me, op, resp, inv, ret};
      }
    };

    std::thread t0(worker, 0, 1), t1(worker, 1, 2), t2(worker, 2, 3);
    t0.join();
    t1.join();
    t2.join();

    History<Erc721Spec> hist(recs.begin(), recs.end());
    EXPECT_TRUE(is_linearizable<Erc721Spec>(initial, hist))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// ERC777: operators drain a shared account concurrently — the Sec. 6
// race shape — plus balance reads.
// ---------------------------------------------------------------------------
TEST(LedgerLin, Erc777ConcurrentHistoriesLinearizable) {
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 3;
    Erc777State initial(n, /*deployer=*/0, 20);
    initial.set_operator(0, 1, true);
    initial.set_operator(0, 2, true);
    ConcurrentLedger<Erc777LedgerSpec> ledger(initial);

    std::atomic<std::size_t> clock{1};
    std::vector<HistoryOp<Erc777Spec>> recs(6);

    auto worker = [&](ProcessId me, int salt) {
      Rng rng(round * 173 + salt);
      for (int i = 0; i < 2; ++i) {
        const std::size_t idx = me * 2 + i;
        Erc777Op op;
        const AccountId dst = static_cast<AccountId>(rng.below(n));
        const Amount v = 1 + rng.below(12);
        switch (rng.below(3)) {
          case 0:
            op = Erc777Op::balance_of(dst);
            break;
          case 1:
            op = Erc777Op::send(dst, v);
            break;
          default:
            op = Erc777Op::operator_send(0, dst, v);
            break;
        }
        const std::size_t inv = clock.fetch_add(1);
        const Response resp = ledger.apply(me, op);
        const std::size_t ret = clock.fetch_add(1);
        recs[idx] = {me, op, resp, inv, ret};
      }
    };

    std::thread t0(worker, 0, 1), t1(worker, 1, 2), t2(worker, 2, 3);
    t0.join();
    t1.join();
    t2.join();

    History<Erc777Spec> hist(recs.begin(), recs.end());
    EXPECT_TRUE(is_linearizable<Erc777Spec>(initial, hist))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// ERC20 through the generic ledger at an intermediate shard count (locks
// shared between accounts — the footprint-to-shard mapping must still
// serialize correctly).
// ---------------------------------------------------------------------------
TEST(LedgerLin, Erc20CoarseShardsLinearizable) {
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 4;
    Erc20State initial(n, 0, 25);
    initial.set_allowance(0, 1, 20);
    initial.set_allowance(0, 2, 20);
    ConcurrentLedger<Erc20LedgerSpec> ledger(initial, 0, /*num_shards=*/2);

    std::atomic<std::size_t> clock{1};
    std::vector<HistoryOp<Erc20Spec>> recs(6);

    auto worker = [&](ProcessId me, int salt) {
      Rng rng(round * 193 + salt);
      for (int i = 0; i < 2; ++i) {
        const std::size_t idx = me * 2 + i;
        const AccountId dst = static_cast<AccountId>(rng.below(n));
        const Amount v = 1 + rng.below(9);
        Erc20Op op = (me == 0) ? Erc20Op::transfer(dst, v)
                               : Erc20Op::transfer_from(0, dst, v);
        const std::size_t inv = clock.fetch_add(1);
        const Response resp = ledger.apply(me, op);
        const std::size_t ret = clock.fetch_add(1);
        recs[idx] = {me, op, resp, inv, ret};
      }
    };

    std::thread t0(worker, 0, 1), t1(worker, 1, 2), t2(worker, 2, 3);
    t0.join();
    t1.join();
    t2.join();

    History<Erc20Spec> hist(recs.begin(), recs.end());
    EXPECT_TRUE(is_linearizable<Erc20Spec>(initial, hist))
        << "round " << round;
  }
}

}  // namespace
}  // namespace tokensync
