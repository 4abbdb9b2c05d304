// Block formation — TxPool intake to bounded consensus payloads.
//
// The block pipeline's first stage (DESIGN.md §10): clients submit token
// operations into a TxPool; a BlockBuilder drains the pool into BOUNDED
// blocks under a two-trigger cut rule
//
//   * size cut     — the pool reached BlockConfig::max_ops pending
//                    operations (checked on every submit: cut_if_full),
//   * deadline cut — a periodic tick fires regardless of fill (cut),
//                    bounding the latency an op waits before it is
//                    proposed; an empty pool yields NO block (deadline
//                    ticks are free while the system idles).
//
// A Block is then ONE consensus value: the total-order broadcast
// (atbcast/total_order.h) decides it into a single slot, so the whole
// block commits atomically or not at all — there is no partially
// committed block, and a duplicated/relearned decision re-delivers the
// same slot, which the broadcast's (origin, nonce) dedup already
// suppresses.  Each replica then replays the committed block through the
// parallel executor (exec/replay_engine.h).
//
// Ops inside a block keep their pool submission order — that order is the
// sequential execution the replay's wave schedule is proven equivalent to
// (DESIGN.md §9), so "one block" and "its ops one slot at a time" commit
// the same history content, just amortized over one consensus instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "atomic/ledger.h"
#include "exec/txpool.h"

namespace tokensync {

/// Block-formation knobs.  The builder is tickless: the deadline cut's
/// period is the driver's (ScenarioConfig::block_deadline).
struct BlockConfig {
  /// Size cut: a block never carries more than this many operations.
  std::size_t max_ops = 8;
};

/// One consensus payload: a bounded run of pooled operations, in pool
/// submission order.  Equality-comparable because it travels as a Paxos
/// value inside TobCmd.
template <ConcurrentTokenSpec S>
struct Block {
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;

  std::vector<BatchOp> ops;

  std::size_t size() const noexcept { return ops.size(); }
  bool empty() const noexcept { return ops.empty(); }

  /// Full-payload relay cost: a length prefix plus every (signed) op.
  std::uint64_t wire_size() const {
    std::uint64_t bytes = 8;
    for (const BatchOp& b : ops) bytes += wire_size_of(b);
    return bytes;
  }

  friend bool operator==(const Block&, const Block&) = default;
};

/// A cut block together with its ops' relay identities (pool intake
/// order) — what the compact relay pushes and proposes as
/// {block_id, ids} instead of the full payload.
template <ConcurrentTokenSpec S>
struct TaggedBlock {
  Block<S> block;
  std::vector<OpId> ids;  ///< ids[i] identifies block.ops[i]
};

/// Drains a TxPool into blocks under the size/deadline cut rule.  The
/// builder holds no operations of its own — the pool is the only buffer —
/// so a cut is deterministic given the pool content (and thus given the
/// event order of the deterministic SimNet run driving the submissions).
template <ConcurrentTokenSpec S>
class BlockBuilder {
 public:
  BlockBuilder(TxPool<S>& pool, BlockConfig cfg) : pool_(pool), cfg_(cfg) {}

  const BlockConfig& config() const noexcept { return cfg_; }

  /// Size cut: yields a full block iff max_ops operations are pending
  /// (call after each submit).  Never yields a partial block — partial
  /// fills wait for the deadline.
  std::optional<Block<S>> cut_if_full() {
    auto t = cut_tagged_if_full();
    if (!t) return std::nullopt;
    return std::move(t->block);
  }

  /// Deadline cut: yields whatever is pending, up to max_ops; an empty
  /// pool yields nothing (the empty-block case the tests pin down).
  std::optional<Block<S>> cut() {
    auto t = cut_tagged();
    if (!t) return std::nullopt;
    return std::move(t->block);
  }

  /// cut_if_full(), keeping the ops' relay identities.
  std::optional<TaggedBlock<S>> cut_tagged_if_full() {
    if (pool_.pending() < cfg_.max_ops) return std::nullopt;
    return wrap(pool_.drain_tagged(cfg_.max_ops));
  }

  /// cut(), keeping the ops' relay identities.
  std::optional<TaggedBlock<S>> cut_tagged() {
    auto ops = pool_.drain_tagged(cfg_.max_ops);
    if (ops.empty()) {
      ++empty_cuts_;
      return std::nullopt;
    }
    return wrap(std::move(ops));
  }

  std::size_t blocks_cut() const noexcept { return blocks_cut_; }
  /// Deadline ticks that found an empty pool (no block produced).
  std::size_t empty_cuts() const noexcept { return empty_cuts_; }

 private:
  std::optional<TaggedBlock<S>> wrap(
      std::vector<typename TxPool<S>::Tagged> tagged) {
    ++blocks_cut_;
    TaggedBlock<S> tb;
    tb.block.ops.reserve(tagged.size());
    tb.ids.reserve(tagged.size());
    for (auto& t : tagged) {
      tb.ids.push_back(t.id);
      tb.block.ops.push_back(std::move(t.op));
    }
    return tb;
  }

  TxPool<S>& pool_;
  BlockConfig cfg_;
  std::size_t blocks_cut_ = 0;
  std::size_t empty_cuts_ = 0;
};

}  // namespace tokensync
