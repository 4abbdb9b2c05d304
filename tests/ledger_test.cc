// ConcurrentLedger<Spec> semantics: single-threaded equivalence with the
// sequential specifications (the refactor's "one source of truth"
// invariant) for all three token instantiations, batch-path correctness,
// the exclusive (lock-free) path against the locked one, and
// multi-threaded conservation across the shard spectrum.
#include <gtest/gtest.h>

#include <thread>

#include "atomic/ledger.h"
#include "atomic/ledger_specs.h"
#include "common/rng.h"
#include "net/shard_group.h"

namespace tokensync {
namespace {

// Seeded random op generators shared by the equivalence tests below.

Erc20Op random_erc20_op(Rng& rng, std::size_t n) {
  const AccountId a = static_cast<AccountId>(rng.below(n));
  const AccountId b = static_cast<AccountId>(rng.below(n));
  switch (rng.below(6)) {
    case 0: return Erc20Op::transfer(a, rng.below(30));
    case 1: return Erc20Op::transfer_from(a, b, rng.below(30));
    case 2: return Erc20Op::approve(static_cast<ProcessId>(b),
                                    rng.below(40));
    case 3: return Erc20Op::balance_of(a);
    case 4: return Erc20Op::allowance(a, static_cast<ProcessId>(b));
    default: return Erc20Op::total_supply();
  }
}

Erc721Op random_erc721_op(Rng& rng, std::size_t n, std::size_t tokens) {
  const TokenId t = static_cast<TokenId>(rng.below(tokens));
  const AccountId a = static_cast<AccountId>(rng.below(n));
  const AccountId b = static_cast<AccountId>(rng.below(n));
  switch (rng.below(6)) {
    case 0: return Erc721Op::transfer_from(a, b, t);
    case 1: return Erc721Op::approve(static_cast<ProcessId>(b), t);
    case 2: return Erc721Op::set_approval_for_all(
                static_cast<ProcessId>(b), rng.below(2) == 0);
    case 3: return Erc721Op::owner_of(t);
    case 4: return Erc721Op::get_approved(t);
    default: return Erc721Op::is_approved_for_all(
                a, static_cast<ProcessId>(b));
  }
}

/// Every ShardOp kind — intra transfers and reads, the whole-state 2PC
/// phase and migration barriers — over a small txid range, so phase ops
/// land on existing records (the idempotent and refused paths) as often
/// as they create new ones.  Accounts reach one past the keyspace to
/// cover the out-of-range guards.
ShardOp random_shard_op(Rng& rng, std::size_t n) {
  const AccountId a = static_cast<AccountId>(rng.below(n + 1));
  const AccountId b = static_cast<AccountId>(rng.below(n + 1));
  const Amount v = rng.below(60);
  const std::uint64_t txid = rng.below(24);
  switch (rng.below(9)) {
    case 0: return ShardOp::transfer(a, b, v);
    case 1: return ShardOp::balance_of(a);
    case 2: return ShardOp::prepare(txid, a, b, v, 0, 1);
    case 3: return ShardOp::commit(txid, a, b, v, 1, 0);
    case 4: return ShardOp::commit_ack(txid, a, 0, 1);
    case 5: return ShardOp::abort(txid, a, 0, 1);
    case 6: return ShardOp::migrate_out(txid, a, 0, 1);
    case 7: return ShardOp::migrate_in(txid, a, v, 1, 0);
    default: return ShardOp::migrate_ack(txid, a, 0, 1);
  }
}

// ---------------------------------------------------------------------------
// Single-threaded equivalence: every response and the final state match
// the pure sequential specification, at several shard counts.
// ---------------------------------------------------------------------------
TEST(LedgerEquivalence, Erc20MatchesSeqSpec) {
  for (std::size_t shards : {1u, 3u, 0u}) {
    Rng rng(42);
    const std::size_t n = 5;
    Erc20State oracle(n, 0, 64);
    ConcurrentLedger<Erc20LedgerSpec> ledger(oracle, 0, shards);

    for (int i = 0; i < 3000; ++i) {
      const ProcessId c = static_cast<ProcessId>(rng.below(n));
      const Erc20Op op = random_erc20_op(rng, n);
      auto [resp, next] = Erc20Spec::apply(oracle, c, op);
      oracle = next;
      EXPECT_EQ(ledger.apply(c, op), resp) << "op " << op.to_string();
    }
    EXPECT_EQ(ledger.snapshot(), oracle);
  }
}

TEST(LedgerEquivalence, Erc721MatchesSeqSpec) {
  for (std::size_t shards : {1u, 2u, 0u}) {
    Rng rng(43);
    const std::size_t n = 4;
    Erc721State oracle(n, {0, 1, 2, 3, 0, 1});
    ConcurrentLedger<Erc721LedgerSpec> ledger(oracle, 0, shards);

    for (int i = 0; i < 3000; ++i) {
      const ProcessId c = static_cast<ProcessId>(rng.below(n));
      const Erc721Op op = random_erc721_op(rng, n, 6);
      auto [resp, next] = Erc721Spec::apply(oracle, c, op);
      oracle = next;
      EXPECT_EQ(ledger.apply(c, op), resp) << "op " << op.to_string();
    }
    EXPECT_EQ(ledger.snapshot(), oracle);
  }
}

TEST(LedgerEquivalence, Erc777MatchesSeqSpec) {
  for (std::size_t shards : {1u, 3u, 0u}) {
    Rng rng(44);
    const std::size_t n = 5;
    Erc777State oracle(n, 1, 80);
    ConcurrentLedger<Erc777LedgerSpec> ledger(oracle, 0, shards);

    for (int i = 0; i < 3000; ++i) {
      const ProcessId c = static_cast<ProcessId>(rng.below(n));
      const AccountId a = static_cast<AccountId>(rng.below(n));
      const AccountId b = static_cast<AccountId>(rng.below(n));
      Erc777Op op;
      switch (rng.below(6)) {
        case 0: op = Erc777Op::send(a, rng.below(25)); break;
        case 1: op = Erc777Op::operator_send(a, b, rng.below(25)); break;
        case 2: op = Erc777Op::authorize_operator(
                    static_cast<ProcessId>(b)); break;
        case 3: op = Erc777Op::revoke_operator(
                    static_cast<ProcessId>(b)); break;
        case 4: op = Erc777Op::balance_of(a); break;
        default: op = Erc777Op::is_operator_for(
                    static_cast<ProcessId>(b), a); break;
      }
      auto [resp, next] = Erc777Spec::apply(oracle, c, op);
      oracle = next;
      EXPECT_EQ(ledger.apply(c, op), resp) << "op " << op.to_string();
    }
    EXPECT_EQ(ledger.snapshot(), oracle);
  }
}

// ---------------------------------------------------------------------------
// Exclusive path: apply_exclusive() — the executor's lock-free sequential
// lane — returns the same response as the locked apply() for every op of
// a seeded random sequence, and both ledgers end in the same snapshot().
// ERC721 exercises state-dependent σ (the locked path's revalidation
// loop); the shard spec exercises the whole-state (set_all) phase and
// migration barriers.
// ---------------------------------------------------------------------------
template <typename Spec, typename NextOp>
void expect_exclusive_matches_locked(const typename Spec::SeqState& initial,
                                     std::size_t callers, NextOp next_op) {
  for (const std::size_t shards : {1u, 3u, 0u}) {
    Rng rng(61 + shards);
    ConcurrentLedger<Spec> locked(initial, 0, shards);
    ConcurrentLedger<Spec> exclusive(initial, 0, shards);
    for (int i = 0; i < 3000; ++i) {
      const ProcessId c = static_cast<ProcessId>(rng.below(callers));
      const auto op = next_op(rng);
      EXPECT_EQ(exclusive.apply_exclusive(c, op), locked.apply(c, op))
          << "shards " << shards << " op " << i << " " << op.to_string();
    }
    EXPECT_EQ(exclusive.snapshot(), locked.snapshot()) << "shards " << shards;
  }
}

TEST(LedgerExclusive, Erc20MatchesLockedApply) {
  const std::size_t n = 5;
  expect_exclusive_matches_locked<Erc20LedgerSpec>(
      Erc20State(n, 0, 64), n,
      [n](Rng& rng) { return random_erc20_op(rng, n); });
}

TEST(LedgerExclusive, Erc721MatchesLockedApply) {
  const std::size_t n = 4;
  expect_exclusive_matches_locked<Erc721LedgerSpec>(
      Erc721State(n, {0, 1, 2, 3, 0, 1}), n,
      [n](Rng& rng) { return random_erc721_op(rng, n, 6); });
}

TEST(LedgerExclusive, ShardSpecPhaseAndMigrationOpsMatchLockedApply) {
  const std::size_t n = 8;
  expect_exclusive_matches_locked<ShardLedgerSpec>(
      ShardState::initial(0, 2, n, 100), 4,
      [n](Rng& rng) { return random_shard_op(rng, n); });
}

// ---------------------------------------------------------------------------
// Batch path: responses equal one-at-a-time application when all ops
// commute (disjoint σ-groups), and the final state is identical.
// ---------------------------------------------------------------------------
TEST(LedgerBatch, DisjointBatchMatchesSequential) {
  const std::size_t n = 8;
  std::vector<Amount> balances(n, 100);
  Erc20State initial(balances, std::vector<std::vector<Amount>>(
                                   n, std::vector<Amount>(n, 0)));

  ConcurrentLedger<Erc20LedgerSpec> batched(initial, 0, /*num_shards=*/4);
  ConcurrentLedger<Erc20LedgerSpec> serial(initial, 0, /*num_shards=*/4);

  // Self-transfers within one account: every op single-shard.
  std::vector<ConcurrentLedger<Erc20LedgerSpec>::BatchOp> batch;
  for (ProcessId p = 0; p < n; ++p) {
    batch.push_back({p, Erc20Op::transfer(account_of(p), 10)});
    batch.push_back({p, Erc20Op::approve(static_cast<ProcessId>((p + 1) % n),
                                         7)});
    batch.push_back({p, Erc20Op::balance_of(account_of(p))});
  }
  const auto got = batched.apply_batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], serial.apply(batch[i].caller, batch[i].op))
        << "batch index " << i;
  }
  EXPECT_EQ(batched.snapshot(), serial.snapshot());
}

TEST(LedgerBatch, MixedBatchConservesSupplyAndAnswers) {
  Rng rng(77);
  const std::size_t n = 16;
  std::vector<Amount> balances(n, 1000);
  Erc20State initial(balances, std::vector<std::vector<Amount>>(
                                   n, std::vector<Amount>(n, 0)));
  ConcurrentLedger<Erc20LedgerSpec> ledger(initial, 0, /*num_shards=*/4);

  std::vector<ConcurrentLedger<Erc20LedgerSpec>::BatchOp> batch;
  for (int i = 0; i < 200; ++i) {
    const ProcessId c = static_cast<ProcessId>(rng.below(n));
    const AccountId d = static_cast<AccountId>(rng.below(n));
    // Mix of single-shard (self/same-shard) and cross-shard transfers.
    batch.push_back({c, Erc20Op::transfer(d, 1 + rng.below(5))});
  }
  const auto resp = ledger.apply_batch(batch);
  ASSERT_EQ(resp.size(), batch.size());
  for (const auto& r : resp) EXPECT_EQ(r.kind, Response::Kind::kBool);
  EXPECT_EQ(ledger.weak_sum(), 1000u * n);
  EXPECT_EQ(ledger.apply(0, Erc20Op::total_supply()).value, 1000u * n);
}

// ---------------------------------------------------------------------------
// Multi-threaded conservation for the ERC777 and ERC721 instantiations,
// across shard counts (atomic_tokens_test covers ERC20 per account).
// ---------------------------------------------------------------------------
class LedgerConservation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LedgerConservation, Erc777ConservesSupply) {
  const auto [threads, shards] = GetParam();
  const std::size_t n = 16;
  Erc777State initial(n, 0, 0);
  for (AccountId a = 0; a < n; ++a) initial.set_balance(a, 500);
  // Everyone may operate for everyone: maximal σ-groups.
  for (AccountId a = 0; a < n; ++a) {
    for (ProcessId p = 0; p < n; ++p) {
      if (p != a) initial.set_operator(a, p, true);
    }
  }
  ConcurrentLedger<Erc777LedgerSpec> ledger(
      initial, 0, static_cast<std::size_t>(shards));

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int i = 0; i < 5000; ++i) {
        const ProcessId c = static_cast<ProcessId>(rng.below(n));
        const AccountId s = static_cast<AccountId>(rng.below(n));
        const AccountId d = static_cast<AccountId>(rng.below(n));
        if (rng.below(2) == 0) {
          ledger.apply(c, Erc777Op::send(d, rng.below(20)));
        } else {
          ledger.apply(c, Erc777Op::operator_send(s, d, rng.below(20)));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ledger.weak_sum(), 500u * n);
}

TEST_P(LedgerConservation, Erc721ConservesTokenCount) {
  const auto [threads, shards] = GetParam();
  const std::size_t n = 8;
  const std::size_t tokens = 24;
  std::vector<AccountId> owners(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    owners[t] = static_cast<AccountId>(t % n);
  }
  Erc721State initial(n, owners);
  for (AccountId a = 0; a < n; ++a) {
    for (ProcessId p = 0; p < n; ++p) {
      if (p != a) initial.set_operator(a, p, true);
    }
  }
  ConcurrentLedger<Erc721LedgerSpec> ledger(
      initial, 0, static_cast<std::size_t>(shards));

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(950 + t);
      for (int i = 0; i < 5000; ++i) {
        const ProcessId c = static_cast<ProcessId>(rng.below(n));
        const TokenId tok = static_cast<TokenId>(rng.below(tokens));
        const AccountId src = static_cast<AccountId>(rng.below(n));
        const AccountId dst = static_cast<AccountId>(rng.below(n));
        switch (rng.below(3)) {
          case 0:
            ledger.apply(c, Erc721Op::transfer_from(src, dst, tok));
            break;
          case 1:
            ledger.apply(c, Erc721Op::approve(
                                static_cast<ProcessId>(dst), tok));
            break;
          default:
            ledger.apply(c, Erc721Op::owner_of(tok));
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every token still has exactly one owner.
  EXPECT_EQ(ledger.weak_sum(), tokens);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsShards, LedgerConservation,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(1, 4, 0 /* per-account */)));

}  // namespace
}  // namespace tokensync
