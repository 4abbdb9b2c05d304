// The compact-relay acceptance suite (ISSUE 6):
//   * mode invariance — for the block pipeline and the hybrid tiers,
//     RelayMode::kFull and RelayMode::kCompact produce byte-identical
//     committed histories across the whole fault × replay-thread matrix
//     (the acceptance criterion: compact relay changes BYTES, never
//     content);
//   * recover-on-miss — under lossy/partitioned links, and with relay
//     pushes force-disabled so EVERY reconstruction must take the kGet
//     round-trip, compact clusters still converge to the full-mode
//     history; for both items the payload exchange carries (relay ops
//     and sub-blocks), the short fallback fires after the retry bound
//     and a crashed proposer is skipped;
//   * ERB batch cuts — single-op deadline flushes, deadline ticks over
//     an empty buffer, per-origin FIFO across batch boundaries, and the
//     fastlane-storm history's invariance to the batch size;
//   * TxPool identity — O(1) OpId lookup that survives draining, and
//     double-submit dedup;
//   * wire accounting — bytes_sent respects the per-message header
//     floor, compact mode strictly shrinks bytes on the wire, and the
//     per-slot proposal bytes drop at least 5x at block size 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/wire.h"
#include "exec/exec_specs.h"
#include "exec/subblock.h"
#include "net/block_replica.h"
#include "net/hybrid_replica.h"
#include "net/recover_on_miss.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

ScenarioConfig base_cfg(Workload w, FaultProfile f) {
  ScenarioConfig cfg;
  cfg.workload = w;
  cfg.fault = f;
  cfg.seed = 7;
  cfg.num_replicas = 4;
  cfg.intensity = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Mode invariance: the acceptance criterion.  Same seed, same knobs,
// only relay_mode flips — the committed history (and every audit) must
// not move, for every fault profile and replay thread count.
// ---------------------------------------------------------------------------

TEST(CompactRelayModes, BlockHistoryInvariantAcrossFaultsAndThreads) {
  for (const FaultProfile f : all_fault_profiles()) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ScenarioConfig cfg = base_cfg(Workload::kErc20BlockStorm, f);
      cfg.replay_threads = threads;
      cfg.relay_mode = RelayMode::kFull;
      const ScenarioReport full = run_scenario(cfg);
      cfg.relay_mode = RelayMode::kCompact;
      const ScenarioReport compact = run_scenario(cfg);

      ASSERT_TRUE(full.ok()) << to_string(f) << ": " << full.summary();
      ASSERT_TRUE(compact.ok()) << to_string(f) << ": " << compact.summary();
      EXPECT_EQ(full.history, compact.history)
          << to_string(f) << " threads=" << threads;
      EXPECT_EQ(full.committed, compact.committed);
      EXPECT_EQ(full.slots, compact.slots);
    }
  }
}

TEST(CompactRelayModes, HybridHistoryInvariantAcrossFaultsAndThreads) {
  for (const FaultProfile f : all_fault_profiles()) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ScenarioConfig cfg = base_cfg(Workload::kMixedSyncTiers, f);
      cfg.replay_threads = threads;
      cfg.relay_mode = RelayMode::kFull;
      const ScenarioReport full = run_scenario(cfg);
      cfg.relay_mode = RelayMode::kCompact;
      const ScenarioReport compact = run_scenario(cfg);

      ASSERT_TRUE(full.ok()) << to_string(f) << ": " << full.summary();
      ASSERT_TRUE(compact.ok()) << to_string(f) << ": " << compact.summary();
      EXPECT_EQ(full.history, compact.history)
          << to_string(f) << " threads=" << threads;
      EXPECT_EQ(full.slots, compact.slots);
      EXPECT_EQ(full.fast_lane_ops, compact.fast_lane_ops);
    }
  }
}

// Full mode never recovers (there is nothing to miss); compact mode
// keeps its recoveries out of the committed content by construction.
TEST(CompactRelayModes, FullModeNeverEntersRecovery) {
  for (const Workload w :
       {Workload::kErc20BlockStorm, Workload::kMixedSyncTiers}) {
    ScenarioConfig cfg = base_cfg(w, FaultProfile::kLossyDup);
    const ScenarioReport rep = run_scenario(cfg);
    ASSERT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.miss_recoveries, 0u);
    EXPECT_GT(rep.proposal_bytes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Recover-on-miss under real loss: lossy_dup drops relay pushes too, so
// compact clusters must heal through kGet — and still match the
// full-mode history byte for byte.
// ---------------------------------------------------------------------------

TEST(CompactRelayRecovery, HealsUnderLossyDupAndPartition) {
  for (const FaultProfile f :
       {FaultProfile::kLossyDup, FaultProfile::kPartitionHeal}) {
    ScenarioConfig cfg = base_cfg(Workload::kErc20BlockStorm, f);
    cfg.relay_mode = RelayMode::kFull;
    const ScenarioReport full = run_scenario(cfg);
    cfg.relay_mode = RelayMode::kCompact;
    const ScenarioReport compact = run_scenario(cfg);

    ASSERT_TRUE(compact.ok()) << to_string(f) << ": " << compact.summary();
    EXPECT_EQ(full.history, compact.history) << to_string(f);
  }
}

// Forced universal miss: with relay pushes disabled on every replica,
// no peer ever holds a foreign op when its block commits — EVERY remote
// block goes through the kGet round-trip — and the history must still
// match a full-mode run of the identical script.
TEST(CompactRelayRecovery, ForcedMissRecoversEveryBlock) {
  using Node = BlockReplicaNode<Erc20LedgerSpec>;
  constexpr std::size_t kAccts = 8;
  const Erc20State initial(std::vector<Amount>(kAccts, 100),
                           std::vector<std::vector<Amount>>(
                               kAccts, std::vector<Amount>(kAccts, 2)));

  const auto run = [&](RelayMode mode, bool publish) {
    typename Node::Net net(4, make_net_config(FaultProfile::kNone, 11));
    BlockConfig bcfg;
    bcfg.max_ops = 4;
    std::vector<std::unique_ptr<Node>> nodes;
    for (ProcessId p = 0; p < 4; ++p) {
      nodes.push_back(std::make_unique<Node>(net, p, initial, bcfg,
                                             ExecOptions{.threads = 1}, mode));
      nodes.back()->set_publish_enabled(publish);
    }
    for (ProcessId p = 0; p < 4; ++p) {
      Node* node = nodes[p].get();
      for (std::uint64_t j = 0; j < 6; ++j) {
        net.call_at(p, 5 + 3 * j, [node, p, j] {
          node->submit(p, Erc20Op::transfer(
                              static_cast<AccountId>((p + 1 + j) % kAccts),
                              1));
        });
      }
      for (std::uint64_t t = 25; t <= 100; t += 25) {
        net.call_at(p, t, [node] { node->on_deadline(); });
      }
    }
    const std::vector<bool> correct(4, true);
    EXPECT_TRUE(drain_cluster(net, nodes, correct));
    return nodes;
  };

  const auto full = run(RelayMode::kFull, true);
  const auto forced = run(RelayMode::kCompact, false);

  std::uint64_t recoveries = 0;
  std::uint64_t requests = 0;
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(forced[p]->all_settled()) << "replica " << p;
    EXPECT_EQ(full[p]->history(), forced[p]->history()) << "replica " << p;
    recoveries += forced[p]->relay().miss_recoveries();
    requests += forced[p]->relay().requests_sent();
  }
  EXPECT_FALSE(full[0]->history().empty());
  // Every replica missed every one of its peers' blocks.
  EXPECT_GT(recoveries, 0u);
  EXPECT_GE(requests, recoveries);
}

// ---------------------------------------------------------------------------
// The payload exchange's fetch loop, for both items it carries: relay
// ops (block and hybrid runtimes) and sub-blocks (multi-proposer).
// ---------------------------------------------------------------------------

using BOp = Erc20Ledger::BatchOp;

static_assert(is_aux_wire_v<ExchangeMsg<TaggedOp<BOp>>>,
              "the op relay must not perturb the primary schedule");
static_assert(!is_aux_wire_v<ExchangeMsg<SubBlock<BOp>>>,
              "the sub-block lane is load-bearing, so primary-class");

// Two distinct items of each type (k = 0, 1).
template <typename Item>
Item held_item(std::uint32_t k);
template <>
TaggedOp<BOp> held_item(std::uint32_t k) {
  return {make_op_id(1, k), BOp{2, Erc20Op::transfer(3, 1 + k)}};
}
template <>
SubBlock<BOp> held_item(std::uint32_t k) {
  return {1, 1 + k, {held_item<TaggedOp<BOp>>(k)}};
}

OpId id_of(const TaggedOp<BOp>& t) { return t.id; }
OpId id_of(const SubBlock<BOp>& s) { return s.id(); }

template <typename Item>
class PayloadExchangeRecovery : public ::testing::Test {
 protected:
  using Net = SimNet<ExchangeMsg<Item>>;
  using Exchange = PayloadExchange<Item, Net>;

  /// Endpoint 0 fetches key 77; like a runtime, it cancels the fetch
  /// once an item arrives, which lets the net go quiet.
  void build(std::size_t n) {
    net_ = std::make_unique<Net>(
        n, NetConfig{.seed = 3, .min_delay = 1, .max_delay = 2});
    nodes_.push_back(std::make_unique<Exchange>(
        *net_, 0, [this](const Item&) {
          ++stored_;
          nodes_[0]->cancel(77);
        }));
    for (ProcessId p = 1; p < n; ++p) {
      nodes_.push_back(
          std::make_unique<Exchange>(*net_, p, [](const Item&) {}));
    }
  }

  /// Stores `items` at endpoint `p` without pushing them to anyone.
  void hold(ProcessId p, const std::vector<Item>& items) {
    nodes_[p]->set_publish_enabled(false);
    nodes_[p]->publish(items);
  }

  std::unique_ptr<Net> net_;
  std::vector<std::unique_ptr<Exchange>> nodes_;
  std::size_t stored_ = 0;
};

using ExchangeItems = ::testing::Types<TaggedOp<BOp>, SubBlock<BOp>>;
TYPED_TEST_SUITE(PayloadExchangeRecovery, ExchangeItems);

// The short fallback: a fetch whose first kFallbackAfter requests go
// unanswered escalates to requesting the reference's FULL id list, keeps
// retrying that until the link returns, and then terminates.
TYPED_TEST(PayloadExchangeRecovery, ShortFallbackAfterRetryBound) {
  this->build(2);
  auto& requester = *this->nodes_[0];
  const std::vector<TypeParam> held = {held_item<TypeParam>(0),
                                       held_item<TypeParam>(1)};
  const OpId missing = id_of(held[0]);
  const OpId other = id_of(held[1]);
  this->hold(1, held);

  // Black out the link until t = 250.  Requests go out every kRetryDelay
  // (40): the ones at t = 0, 40 and 80 ask for the missing id, and the
  // fallback requests at t = 120, 160, 200 and 240 are lost too; the
  // eighth, at t = 280, gets through.
  std::vector<std::uint64_t> fallbacks_at_request;
  this->net_->set_link_filter(
      [&](ProcessId from, ProcessId, std::uint64_t now) {
        if (from == 0) fallbacks_at_request.push_back(requester.fallbacks());
        return now >= 250;
      });
  requester.fetch(/*key=*/77, /*proposer=*/1, {missing}, {missing, other});
  this->net_->run();

  // The fourth request is the first fallback, and the fallback is
  // retried until answered.  Only the fallback request names `other`,
  // so its arrival shows the request carried the full list.
  EXPECT_EQ(fallbacks_at_request,
            (std::vector<std::uint64_t>{0, 0, 0, 1, 1, 1, 1, 1}));
  EXPECT_EQ(this->stored_, 2u);
  for (const TypeParam& item : held) {
    ASSERT_NE(requester.find(id_of(item)), nullptr);
    EXPECT_EQ(*requester.find(id_of(item)), item);
  }
  EXPECT_EQ(requester.miss_recoveries(), 1u);
  EXPECT_EQ(requester.requests_sent(), 8u);
  EXPECT_EQ(requester.fallbacks(), 1u);
  EXPECT_TRUE(requester.idle());
}

// A crashed proposer: the first request skips it and goes to the next
// live peer, the only one holding the item, so exactly one request
// recovers it.
TYPED_TEST(PayloadExchangeRecovery, CrashedProposerSkippedToTheHolder) {
  this->build(3);
  auto& requester = *this->nodes_[0];
  const TypeParam item = held_item<TypeParam>(0);
  const OpId id = id_of(item);
  this->hold(2, {item});
  this->net_->crash(1);
  std::vector<ProcessId> asked;
  this->net_->set_link_filter(
      [&asked](ProcessId from, ProcessId to, std::uint64_t) {
        if (from == 0) asked.push_back(to);
        return true;
      });

  requester.fetch(/*key=*/77, /*proposer=*/1, {id}, {id});
  this->net_->run();

  EXPECT_EQ(asked, std::vector<ProcessId>{2});
  EXPECT_EQ(this->stored_, 1u);
  ASSERT_NE(requester.find(id), nullptr);
  EXPECT_EQ(*requester.find(id), item);
  EXPECT_EQ(requester.requests_sent(), 1u);
  EXPECT_EQ(requester.fallbacks(), 0u);
  EXPECT_TRUE(requester.idle());
}

// ---------------------------------------------------------------------------
// ERB batch cuts.
// ---------------------------------------------------------------------------

// The fastlane-storm history is the canonical terminal epoch — a pure
// function of the submitted ops — so it must not move when the fast
// lane re-buckets them into batches of 2 or 8 (per-origin FIFO across
// batch boundaries, checked end to end).
TEST(ErbBatchCut, FastlaneHistoryInvariantToBatchSize) {
  ScenarioConfig cfg = base_cfg(Workload::kErc20FastlaneStorm,
                                FaultProfile::kNone);
  cfg.erb_batch = 1;
  const ScenarioReport one = run_scenario(cfg);
  ASSERT_TRUE(one.ok()) << one.summary();
  ASSERT_EQ(one.slots, 0u);

  for (const std::size_t b : {2u, 8u}) {
    cfg.erb_batch = b;
    const ScenarioReport rep = run_scenario(cfg);
    ASSERT_TRUE(rep.ok()) << "batch " << b << ": " << rep.summary();
    EXPECT_EQ(rep.slots, 0u) << "batch " << b;
    EXPECT_EQ(one.history, rep.history) << "batch " << b;
    EXPECT_EQ(one.fast_lane_ops, rep.fast_lane_ops) << "batch " << b;
    // Fewer, fatter broadcasts: batching must strictly cut messages
    // and bytes for the same committed content.
    EXPECT_LT(rep.net.sent, one.net.sent) << "batch " << b;
    EXPECT_LT(rep.net.bytes_sent, one.net.bytes_sent) << "batch " << b;
  }
}

// Direct single-node-cluster cuts: a lone op never reaches the size cut
// and must ride a deadline flush as a single-op batch; a size cut that
// empties the buffer leaves the armed deadline tick nothing to do.
TEST(ErbBatchCut, DeadlineFlushAndEmptyTick) {
  using Node = HybridReplicaNode<Erc20LedgerSpec>;
  const Erc20State initial(std::vector<Amount>(4, 100),
                           std::vector<std::vector<Amount>>(
                               4, std::vector<Amount>(4, 0)));
  typename Node::Net net(4, make_net_config(FaultProfile::kNone, 5));
  HybridConfig hcfg;
  hcfg.erb_batch = 2;
  std::vector<std::unique_ptr<Node>> nodes;
  for (ProcessId p = 0; p < 4; ++p) {
    nodes.push_back(std::make_unique<Node>(
        net, p, initial, ExecOptions{.threads = 1}, hcfg));
  }

  // Node 0: two ops in one beat — the size cut fires on the second
  // submit, so the armed deadline tick later finds an EMPTY buffer and
  // must not broadcast a second (empty) batch.
  Node* n0 = nodes[0].get();
  net.call_at(0, 5, [n0] { n0->submit(0, Erc20Op::transfer(1, 1)); });
  net.call_at(0, 6, [n0] { n0->submit(0, Erc20Op::transfer(2, 1)); });
  // Node 1: a single op — below the size cut, so only the deadline
  // flush can broadcast it (as a single-op batch).
  Node* n1 = nodes[1].get();
  net.call_at(1, 5, [n1] { n1->submit(1, Erc20Op::transfer(0, 2)); });

  const std::vector<bool> correct(4, true);
  EXPECT_TRUE(drain_cluster(net, nodes, correct));
  for (ProcessId p = 0; p < 4; ++p) nodes[p]->finalize();

  EXPECT_EQ(nodes[0]->fast_batches(), 1u);  // size cut only, no empty tick
  EXPECT_EQ(nodes[1]->fast_batches(), 1u);  // deadline flush, single op
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(nodes[p]->all_settled()) << "replica " << p;
    EXPECT_EQ(nodes[p]->history(), nodes[0]->history()) << "replica " << p;
  }
  EXPECT_EQ(nodes[0]->fast_lane_ops(), 3u);
}

// Mixed-tier runs keep every audit green at every batch size (the
// frontier is batch-granular, so the interleaving may legally differ
// between batch sizes — but each run must agree, conserve and settle,
// and stay relay-mode-invariant).
TEST(ErbBatchCut, MixedTiersAuditCleanAcrossBatchSizes) {
  for (const std::size_t b : {1u, 4u, 8u}) {
    ScenarioConfig cfg = base_cfg(Workload::kMixedSyncTiers,
                                  FaultProfile::kLossyLinks);
    cfg.erb_batch = b;
    cfg.relay_mode = RelayMode::kFull;
    const ScenarioReport full = run_scenario(cfg);
    cfg.relay_mode = RelayMode::kCompact;
    const ScenarioReport compact = run_scenario(cfg);
    ASSERT_TRUE(full.ok()) << "batch " << b << ": " << full.summary();
    ASSERT_TRUE(compact.ok()) << "batch " << b << ": " << compact.summary();
    EXPECT_EQ(full.history, compact.history) << "batch " << b;
  }
}

// ---------------------------------------------------------------------------
// TxPool identity index.
// ---------------------------------------------------------------------------

TEST(TxPoolIdentity, LookupSurvivesDrainAndDedupsResubmission) {
  Erc20TxPool pool;
  pool.set_origin(2);
  const OpId a = pool.submit(0, Erc20Op::transfer(1, 5));
  const OpId b = pool.submit(1, Erc20Op::transfer(2, 7));
  ASSERT_NE(a, b);
  EXPECT_EQ(pool.pending(), 2u);

  // Double submission of a known id is a no-op (relay idempotence).
  EXPECT_FALSE(pool.submit_tagged(a, 0, Erc20Op::transfer(1, 5)));
  EXPECT_EQ(pool.pending(), 2u);
  // A foreign id (different origin) is fresh and enqueues.
  const OpId foreign = make_op_id(3, 0);
  EXPECT_TRUE(pool.submit_tagged(foreign, 4, Erc20Op::transfer(0, 1)));
  EXPECT_EQ(pool.pending(), 3u);
  EXPECT_FALSE(pool.submit_tagged(foreign, 4, Erc20Op::transfer(0, 1)));

  const auto tagged = pool.drain_tagged(8);
  ASSERT_EQ(tagged.size(), 3u);
  EXPECT_EQ(tagged[0].id, a);
  EXPECT_EQ(pool.pending(), 0u);

  // The identity index outlives the queue: committed-block
  // reconstruction looks ops up AFTER their block was cut.
  ASSERT_TRUE(pool.lookup(a).has_value());
  EXPECT_EQ(pool.lookup(a)->caller, 0u);
  ASSERT_TRUE(pool.lookup(foreign).has_value());
  EXPECT_EQ(pool.lookup(foreign)->caller, 4u);
  EXPECT_FALSE(pool.lookup(make_op_id(9, 9)).has_value());
}

// The pool is one insertion-ordered id table plus a drained cursor: a
// drained op stays findable after later intake has grown the table
// several times, and the pending ops are the tail past the cursor.
TEST(TxPoolIdentity, DrainedOpsOutliveGrowth) {
  Erc20TxPool pool;
  pool.set_origin(1);
  std::vector<TaggedOp<Erc20TxPool::BatchOp>> all;
  const auto submit = [&](Amount v) {
    const ProcessId caller = static_cast<ProcessId>(v % 12);
    const Erc20Op op = Erc20Op::transfer(static_cast<AccountId>(v % 7), v);
    all.push_back({pool.submit(caller, op), {caller, op}});
  };
  // The id 0 is legal (make_op_id can yield it) and kept apart from the
  // table's slots.
  ASSERT_TRUE(pool.submit_tagged(0, 3, Erc20Op::transfer(4, 99)));
  all.push_back({0, {3, Erc20Op::transfer(4, 99)}});
  for (Amount v = 0; v < 5; ++v) submit(v);
  const auto first = pool.drain_tagged(4);
  ASSERT_EQ(first.size(), 4u);

  // 16 → 4096 slots: eight doublings after the drain.
  for (Amount v = 5; v < 2000; ++v) submit(v);
  for (const auto& t : first) {
    const auto op = pool.lookup(t.id);
    ASSERT_TRUE(op.has_value()) << t.id;
    EXPECT_EQ(*op, t.op);
  }
  EXPECT_FALSE(pool.submit_tagged(0, 3, Erc20Op::transfer(4, 99)));
  EXPECT_FALSE(pool.submit_tagged(all[2].id, 0, Erc20Op::transfer(1, 1)));

  const auto second = pool.drain_tagged(700);
  ASSERT_EQ(second.size(), 700u);
  EXPECT_EQ(second.front(), all[4]);
  EXPECT_EQ(pool.pending(), all.size() - 704);
  EXPECT_EQ(pool.submitted(), all.size());
  EXPECT_EQ(pool.drained(), 704u);
  for (const auto& t : all) {
    const auto op = pool.lookup(t.id);
    ASSERT_TRUE(op.has_value()) << t.id;
    EXPECT_EQ(*op, t.op);
  }
}

// ---------------------------------------------------------------------------
// Wire accounting.
// ---------------------------------------------------------------------------

TEST(WireAccounting, BytesRespectHeaderFloorAndCompactShrinks) {
  ScenarioConfig cfg = base_cfg(Workload::kErc20BlockStorm,
                                FaultProfile::kNone);
  cfg.block_max_ops = 8;
  cfg.relay_mode = RelayMode::kFull;
  const ScenarioReport full = run_scenario(cfg);
  cfg.relay_mode = RelayMode::kCompact;
  const ScenarioReport compact = run_scenario(cfg);
  ASSERT_TRUE(full.ok() && compact.ok());

  // Every message pays at least the frame/auth header.
  EXPECT_GE(full.net.bytes_sent, full.net.sent * kWireHeaderBytes);
  EXPECT_GE(compact.net.bytes_sent, compact.net.sent * kWireHeaderBytes);

  // Compact mode ships each payload ~once (announce) instead of through
  // every Paxos phase of every slot: total bytes must drop.
  EXPECT_LT(compact.net.bytes_sent, full.net.bytes_sent);

  // The per-slot proposal bytes drop at least 5x at block size 8 (the
  // acceptance bound; the id reference is ~12x smaller than 8 signed
  // ops).
  ASSERT_EQ(full.slots, compact.slots);
  EXPECT_GE(full.proposal_bytes, 5 * compact.proposal_bytes);
}

}  // namespace
}  // namespace tokensync
