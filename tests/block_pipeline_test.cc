// The block-pipeline acceptance suite (ISSUE 4):
//   * block formation edge cases — empty pool at a deadline cut (no
//     block), single-op blocks, size-cut boundaries;
//   * replay edge cases — the empty block, the single-op block, the
//     escalation-only block (every op a singleton barrier wave);
//   * replicated determinism across PARALLELISM — for each block
//     workload × fault profile, the same seed and BlockConfig produce
//     byte-identical committed histories on replicas replaying with 1,
//     2 and 8 worker threads (the acceptance criterion);
//   * fault atomicity — blocks survive drop/duplication/partition-heal/
//     minority-crash: a block commits atomically or not at all, and
//     duplicated delivery never double-applies (committed == submitted
//     under lossy_dup);
//   * the shared consensus value — copies of a BlockValue, and of the
//     TobCmd and PaxosMsg around it, share one body; an empty value
//     allocates nothing; equality and wire size read the contents.
//
// The ThreadSanitizer CI job rebuilds this binary too: the replicated
// replay sections run real thread pools inside every replica.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/exec_specs.h"
#include "net/block_replica.h"
#include "objects/erc721.h"
#include "objects/erc777.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

/// operator new calls made by this thread (the replacement below).
thread_local std::size_t t_allocs = 0;

}  // namespace
}  // namespace tokensync

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++tokensync::t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tokensync {
namespace {

constexpr std::size_t kAccounts = 12;

Erc20State erc20_initial() {
  return Erc20State(std::vector<Amount>(kAccounts, 100),
                    std::vector<std::vector<Amount>>(
                        kAccounts, std::vector<Amount>(kAccounts, 3)));
}

Erc721State erc721_initial(std::size_t tokens) {
  std::vector<AccountId> owners(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    owners[t] = static_cast<AccountId>(t % kAccounts);
  }
  return Erc721State(kAccounts, owners);
}

// ---------------------------------------------------------------------------
// BlockBuilder: the size/deadline cut rule.
// ---------------------------------------------------------------------------

TEST(BlockBuilder, EmptyPoolDeadlineCutYieldsNoBlock) {
  Erc20TxPool pool;
  BlockBuilder<Erc20LedgerSpec> builder(pool, BlockConfig{.max_ops = 4});
  EXPECT_FALSE(builder.cut().has_value());
  EXPECT_FALSE(builder.cut_if_full().has_value());
  EXPECT_EQ(builder.blocks_cut(), 0u);
  EXPECT_EQ(builder.empty_cuts(), 1u);  // only cut() counts an empty tick
}

TEST(BlockBuilder, SizeCutFiresExactlyAtMaxOps) {
  Erc20TxPool pool;
  BlockBuilder<Erc20LedgerSpec> builder(pool, BlockConfig{.max_ops = 3});
  pool.submit(0, Erc20Op::transfer(1, 1));
  pool.submit(0, Erc20Op::transfer(2, 1));
  EXPECT_FALSE(builder.cut_if_full().has_value());  // partial fills wait
  pool.submit(0, Erc20Op::transfer(3, 1));
  const auto b = builder.cut_if_full();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(pool.pending(), 0u);
  // Ops keep pool submission order.
  EXPECT_EQ(b->ops[0].op.dst, 1u);
  EXPECT_EQ(b->ops[2].op.dst, 3u);
}

TEST(BlockBuilder, DeadlineCutFlushesAPartialFill) {
  Erc20TxPool pool;
  BlockBuilder<Erc20LedgerSpec> builder(pool, BlockConfig{.max_ops = 8});
  pool.submit(5, Erc20Op::transfer(6, 2));
  const auto b = builder.cut();  // single-op block
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->size(), 1u);
  EXPECT_EQ(b->ops[0].caller, 5u);
  EXPECT_EQ(builder.blocks_cut(), 1u);
  EXPECT_FALSE(builder.cut().has_value());
}

TEST(BlockBuilder, DeadlineCutIsBoundedByMaxOps) {
  Erc20TxPool pool;
  BlockBuilder<Erc20LedgerSpec> builder(pool, BlockConfig{.max_ops = 4});
  for (Amount v = 1; v <= 6; ++v) pool.submit(0, Erc20Op::transfer(1, v));
  const auto first = builder.cut();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 4u);
  const auto second = builder.cut();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->size(), 2u);
  EXPECT_EQ(second->ops[0].op.value, 5u);
}

// ---------------------------------------------------------------------------
// BlockValue: one shared immutable body per cut block.
// ---------------------------------------------------------------------------

using Value = BlockValue<Erc20LedgerSpec>;
using ValueMsg = PaxosMsg<TobCmd<Value>>;

Value::Body three_op_body() {
  Value::Body b;
  b.full.ops.push_back({0, Erc20Op::transfer(1, 5)});
  b.full.ops.push_back({2, Erc20Op::transfer_from(3, 4, 6)});
  b.full.ops.push_back({5, Erc20Op::approve(6, 7)});
  b.ids = {make_op_id(0, 1), make_op_id(2, 2), make_op_id(5, 3)};
  return b;
}

Value::Body compact_body() {
  Value::Body b;
  b.compact = true;
  b.block_id = make_op_id(1, 9);
  b.proposer = 1;
  b.ids = three_op_body().ids;
  return b;
}

TEST(BlockValue, CopiesShareOneBody) {
  const Value v(three_op_body());
  TobCmd<Value> cmd;
  cmd.origin = 1;
  cmd.nonce = 3;
  cmd.payload = v;
  ValueMsg msg;
  msg.type = ValueMsg::Type::kAccept;
  msg.value = cmd;

  const std::size_t before = t_allocs;
  const Value v_copy = v;
  const TobCmd<Value> cmd_copy = cmd;
  const ValueMsg msg_copy = msg;
  EXPECT_EQ(t_allocs, before) << "a copy allocated";

  const auto* ops = v->full.ops.data();
  EXPECT_EQ(v_copy->full.ops.data(), ops);
  EXPECT_EQ(cmd_copy.payload->full.ops.data(), ops);
  EXPECT_EQ(msg_copy.value.payload->full.ops.data(), ops);
  EXPECT_EQ(msg_copy.value.payload->ids.data(), v->ids.data());
}

TEST(BlockValue, DefaultConstructedValueAllocatesNothing) {
  const std::size_t before = t_allocs;
  const Value v;
  const ValueMsg msg;
  const BlockLaneMsg<Erc20LedgerSpec> lane;
  EXPECT_EQ(t_allocs, before);
  // It reads as an empty full-mode block.
  EXPECT_FALSE(v->compact);
  EXPECT_TRUE(v->full.empty());
  EXPECT_TRUE(v->ids.empty());
  EXPECT_EQ(v, msg.value.payload);
  EXPECT_EQ(v, Value(Value::Body{}));
  EXPECT_EQ(lane.index(), 0u);
}

TEST(BlockValue, EqualityReadsTheContents) {
  const Value a(three_op_body());
  const Value b(three_op_body());
  ASSERT_NE(a->full.ops.data(), b->full.ops.data());  // two bodies
  EXPECT_EQ(a, b);
  Value::Body other = three_op_body();
  other.ids[1] = make_op_id(2, 9);
  EXPECT_NE(a, Value(std::move(other)));
  EXPECT_NE(a, Value());
  EXPECT_NE(a, Value(compact_body()));
}

// Figures captured while the value still held its fields by value: the
// shared body must charge every send the same bytes.
TEST(BlockValue, WireSizeKeepsItsBytes) {
  const Value full(three_op_body());
  const Value compact(compact_body());
  EXPECT_EQ(full.wire_size(), 380u);
  EXPECT_EQ(compact.wire_size(), 44u);
  TobCmd<Value> cmd;
  cmd.origin = 1;
  cmd.nonce = 3;
  cmd.payload = full;
  EXPECT_EQ(cmd.wire_size(), 392u);
  ValueMsg accept;
  accept.type = ValueMsg::Type::kAccept;
  accept.value = cmd;
  EXPECT_EQ(accept.wire_size(), 456u);
}

// ---------------------------------------------------------------------------
// ReplayEngine: edge-case blocks and thread-count invariance.
// ---------------------------------------------------------------------------

TEST(ReplayEngine, EmptyBlockIsANoOp) {
  ReplayEngine<Erc20LedgerSpec> engine(erc20_initial(), {.threads = 2});
  EXPECT_EQ(engine.apply(Block<Erc20LedgerSpec>{}), "block[0]");
  EXPECT_EQ(engine.ops_applied(), 0u);
  EXPECT_EQ(engine.ledger().snapshot(), erc20_initial());
}

TEST(ReplayEngine, SingleOpBlockMatchesSequentialSpec) {
  for (const std::size_t threads : {1, 2, 8}) {
    ReplayEngine<Erc20LedgerSpec> engine(erc20_initial(),
                                         {.threads = threads});
    Block<Erc20LedgerSpec> b;
    b.ops.push_back({0, Erc20Op::transfer(1, 7)});
    const std::string line = engine.apply(b);
    EXPECT_EQ(line, "block[1] p0 " + Erc20Op::transfer(1, 7).to_string() +
                        " -> TRUE {waves=1 esc=0}");
    auto [resp, seq] =
        Erc20Spec::apply(erc20_initial(), 0, Erc20Op::transfer(1, 7));
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(engine.ledger().snapshot(), seq);
  }
}

// Three ops around a totalSupply barrier: the escalated read splits the
// block into three waves.  The line was captured from the ostringstream
// renderers; the append-based ones must reproduce it byte for byte.
TEST(ReplayEngine, ThreeOpBlockWithSupplyBarrierLine) {
  for (const std::size_t threads : {1, 2, 8}) {
    ReplayEngine<Erc20LedgerSpec> engine(erc20_initial(),
                                         {.threads = threads});
    Block<Erc20LedgerSpec> b;
    b.ops.push_back({0, Erc20Op::transfer(1, 7)});
    b.ops.push_back({4, Erc20Op::total_supply()});
    b.ops.push_back({2, Erc20Op::transfer_from(1, 3, 2)});
    EXPECT_EQ(engine.apply(b),
              "block[3] p0 transfer(a1, 7) -> TRUE | p4 totalSupply() -> "
              "1200 | p2 transferFrom(a1, a3, 2) -> TRUE {waves=3 esc=1}")
        << threads << " threads";
  }
}

// One pinned rendering per op kind of the three token objects, captured
// from the ostringstream renderers.  The scenario scripts never draw six
// of these kinds (ERC20 balanceOf/allowance, ERC721 getApproved/
// isApprovedForAll, ERC777 balanceOf/isOperatorFor), so no history pin
// would notice a byte change in them.
TEST(OpRendering, EveryTokenOpKindKeepsItsBytes) {
  const std::vector<std::pair<std::string, std::string>> pinned = {
      {Erc20Op::transfer(3, UINT64_MAX).to_string(),
       "transfer(a3, 18446744073709551615)"},
      {Erc20Op::transfer_from(kNoAccount, 0, 7).to_string(),
       "transferFrom(a4294967295, a0, 7)"},
      {Erc20Op::approve(kNoProcess, 0).to_string(), "approve(p4294967295, 0)"},
      {Erc20Op::balance_of(kNoAccount).to_string(), "balanceOf(a4294967295)"},
      {Erc20Op::allowance(11, kNoProcess).to_string(),
       "allowance(a11, p4294967295)"},
      {Erc20Op::total_supply().to_string(), "totalSupply()"},
      {Erc721Op::transfer_from(0, kNoAccount, 42).to_string(),
       "transferFrom(a0, a4294967295, t42)"},
      {Erc721Op::approve(kNoProcess, UINT32_MAX).to_string(),
       "approve(p4294967295, t4294967295)"},
      {Erc721Op::set_approval_for_all(2, true).to_string(),
       "setApprovalForAll(p2, true)"},
      {Erc721Op::set_approval_for_all(kNoProcess, false).to_string(),
       "setApprovalForAll(p4294967295, false)"},
      {Erc721Op::owner_of(0).to_string(), "ownerOf(t0)"},
      {Erc721Op::get_approved(9).to_string(), "getApproved(t9)"},
      {Erc721Op::is_approved_for_all(kNoAccount, kNoProcess).to_string(),
       "isApprovedForAll(a4294967295, p4294967295)"},
      {Erc777Op::send(5, UINT64_MAX).to_string(),
       "send(a5, 18446744073709551615)"},
      {Erc777Op::operator_send(1, kNoAccount, 0).to_string(),
       "operatorSend(a1, a4294967295, 0)"},
      {Erc777Op::authorize_operator(kNoProcess).to_string(),
       "authorizeOperator(p4294967295)"},
      {Erc777Op::revoke_operator(3).to_string(), "revokeOperator(p3)"},
      {Erc777Op::balance_of(kNoAccount).to_string(), "balanceOf(a4294967295)"},
      {Erc777Op::is_operator_for(kNoProcess, 0).to_string(),
       "isOperatorFor(p4294967295, a0)"},
  };
  for (const auto& [got, want] : pinned) EXPECT_EQ(got, want);
}

TEST(ReplayEngine, EscalationOnlyBlockIsAllBarrierWaves) {
  // Every op state-dependent-σ (ERC721 approve/ownerOf): the planner
  // must serialize the whole block as singleton barrier waves, and the
  // outcome must still be thread-count-invariant.
  Block<Erc721LedgerSpec> b;
  b.ops.push_back({0, Erc721Op::approve(3, 0)});
  b.ops.push_back({1, Erc721Op::owner_of(5)});
  b.ops.push_back({2, Erc721Op::approve(4, 2)});
  b.ops.push_back({3, Erc721Op::owner_of(7)});

  std::vector<std::string> lines;
  std::vector<Erc721State> finals;
  for (const std::size_t threads : {1, 2, 8}) {
    ReplayEngine<Erc721LedgerSpec> engine(erc721_initial(12),
                                          {.threads = threads});
    lines.push_back(engine.apply(b));
    finals.push_back(engine.ledger().snapshot());
    EXPECT_EQ(engine.waves_total(), b.size());      // one wave per op
    EXPECT_EQ(engine.escalated_total(), b.size());  // all escalated
  }
  EXPECT_EQ(lines[0], lines[1]);
  EXPECT_EQ(lines[0], lines[2]);
  EXPECT_NE(lines[0].find("{waves=4 esc=4}"), std::string::npos);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
}

TEST(ReplayEngine, HistoryLinesByteIdenticalAcrossThreadCounts) {
  // A mixed multi-block stream: concatenated lines and final state must
  // not depend on the worker count (the per-replica half of the
  // replicated determinism criterion).
  Rng rng(71);
  std::vector<Block<Erc20LedgerSpec>> blocks;
  for (int k = 0; k < 12; ++k) {
    Block<Erc20LedgerSpec> b;
    const std::size_t n = 1 + rng.below(9);
    for (std::size_t i = 0; i < n; ++i) {
      const auto caller = static_cast<ProcessId>(rng.below(kAccounts));
      const auto dst = static_cast<AccountId>(rng.below(kAccounts));
      if (rng.below(20) == 0) {
        b.ops.push_back({caller, Erc20Op::total_supply()});
      } else {
        b.ops.push_back({caller, Erc20Op::transfer(dst, 1 + rng.below(3))});
      }
    }
    blocks.push_back(std::move(b));
  }
  std::vector<std::string> histories;
  std::vector<Erc20State> finals;
  for (const std::size_t threads : {1, 2, 8}) {
    ReplayEngine<Erc20LedgerSpec> engine(erc20_initial(),
                                         {.threads = threads});
    std::string h;
    for (const auto& b : blocks) h += engine.apply(b) + "\n";
    histories.push_back(std::move(h));
    finals.push_back(engine.ledger().snapshot());
  }
  EXPECT_EQ(histories[0], histories[1]);
  EXPECT_EQ(histories[0], histories[2]);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
}

// ---------------------------------------------------------------------------
// Replicated block scenarios: fault matrix + determinism across replay
// parallelism (the ISSUE 4 acceptance criterion).
// ---------------------------------------------------------------------------

ScenarioConfig block_cfg(Workload w, FaultProfile f,
                         std::size_t replay_threads = 1,
                         std::uint64_t seed = 7) {
  ScenarioConfig c;
  c.workload = w;
  c.fault = f;
  c.seed = seed;
  c.num_replicas = 4;
  c.intensity = 4;
  c.replay_threads = replay_threads;
  return c;
}

void expect_ok(const ScenarioReport& rep) {
  EXPECT_TRUE(rep.agreement) << rep.summary();
  EXPECT_TRUE(rep.conservation) << rep.summary();
  EXPECT_TRUE(rep.settled) << rep.summary();
  for (const std::string& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_GT(rep.committed, 0u);
  EXPECT_GT(rep.slots, 0u);
  EXPECT_LE(rep.slots, rep.committed);  // blocks amortize, never inflate
}

TEST(BlockScenario, StormSurvivesEveryFaultProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    expect_ok(run_scenario(block_cfg(Workload::kErc20BlockStorm, f)));
  }
}

TEST(BlockScenario, MixedEscalateSurvivesEveryFaultProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    expect_ok(run_scenario(block_cfg(Workload::kMixedBlockEscalate, f)));
  }
}

TEST(BlockScenario, DuplicatedDeliveryNeverDoubleApplies) {
  // Under lossy_dup every correct replica still commits each submitted
  // op EXACTLY once: duplicated kDecide deliveries for a block's slot
  // are absorbed by the broadcast's dedup, so committed == submitted.
  const auto rep = run_scenario(
      block_cfg(Workload::kErc20BlockStorm, FaultProfile::kLossyDup));
  expect_ok(rep);
  EXPECT_EQ(rep.committed, rep.submitted);
}

TEST(BlockScenario, BlocksActuallyBatch) {
  // With the default size-8 cut, the storm needs strictly fewer
  // consensus slots than ops — the amortization the pipeline exists for.
  const auto rep = run_scenario(
      block_cfg(Workload::kErc20BlockStorm, FaultProfile::kNone));
  expect_ok(rep);
  EXPECT_LT(rep.slots, rep.committed);
}

TEST(BlockDeterminism, SameSeedSameBytes) {
  for (Workload w :
       {Workload::kErc20BlockStorm, Workload::kMixedBlockEscalate}) {
    const auto c = block_cfg(w, FaultProfile::kPartitionHeal);
    const auto a = run_scenario(c);
    const auto b = run_scenario(c);
    expect_ok(a);
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.history_digest, b.history_digest);
    EXPECT_EQ(a.sim_time, b.sim_time);
    EXPECT_EQ(a.net.sent, b.net.sent);
    EXPECT_EQ(a.net.dropped, b.net.dropped);
  }
}

TEST(BlockDeterminism, ByteIdenticalAcrossReplayThreads1_2_8) {
  // THE acceptance criterion: for each block workload × fault profile,
  // same seed + same BlockConfig ⇒ byte-identical committed histories
  // whether each replica replays blocks with 1, 2 or 8 worker threads.
  for (Workload w :
       {Workload::kErc20BlockStorm, Workload::kMixedBlockEscalate}) {
    for (FaultProfile f : all_fault_profiles()) {
      const auto ref = run_scenario(block_cfg(w, f, /*replay_threads=*/1));
      expect_ok(ref);
      for (const std::size_t threads : {2, 8}) {
        const auto rep = run_scenario(block_cfg(w, f, threads));
        EXPECT_EQ(rep.history, ref.history)
            << to_string(w) << "/" << to_string(f) << " threads=" << threads;
        EXPECT_EQ(rep.history_digest, ref.history_digest);
        EXPECT_EQ(rep.committed, ref.committed);
        EXPECT_EQ(rep.slots, ref.slots);
        // Replay happens inside the replicas; the network cannot see the
        // worker count either.
        EXPECT_EQ(rep.net.sent, ref.net.sent);
        EXPECT_EQ(rep.sim_time, ref.sim_time);
      }
    }
  }
}

}  // namespace
}  // namespace tokensync
