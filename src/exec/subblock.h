// Sub-blocks — the multi-proposer pipeline's dissemination unit
// (DESIGN.md §16, the ISSUE 10 tentpole).
//
// The single-proposer block pipeline (exec/block.h) fuses two jobs into
// one consensus value: DISSEMINATING a batch of operations and ORDERING
// it.  The multi-proposer pipeline splits them.  Every replica cuts its
// pooled intake into sub-blocks — origin-stamped, origin-sequenced runs
// of TaggedOps — and publishes them to its peers immediately, on its own
// lane, concurrently with everyone else's.  Consensus then orders only
// thin references:
//
//     SubBlockRef{origin, sub_seq, block_id, op_count}     (~16 bytes)
//
// and a committed slot's value is a VECTOR of such references — a cut
// through the grown-so-far DAG of published sub-blocks.  On commit, the
// replica flattens the referenced sub-blocks in canonical
// (origin, sub_seq) order into ONE block and replays it through the
// planner (exec/replay_engine.h), so the committed history is the same
// pure function of the committed reference sequence on every replica —
// byte-identical across replicas, replay thread counts and fault
// profiles by construction.
//
// Identity: a sub-block's id is make_op_id(origin, sub_seq) — the same
// 8-byte hash space the compact relay uses for ops (common/wire.h), so
// the payload exchange (PayloadExchange, net/recover_on_miss.h) stores
// and fetches sub-blocks exactly as it stores and fetches relayed ops.
// Ids key disjoint maps (sub-block store vs. op store), so an
// accidental hash collision between the spaces is harmless.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "atomic/ledger.h"
#include "common/wire.h"
#include "exec/txpool.h"

namespace tokensync {

/// A thin consensus reference to one published sub-block: ~16 wire
/// bytes ordering op_count operations (vs. their full signed payloads).
struct SubBlockRef {
  ProcessId origin = 0;
  std::uint32_t sub_seq = 0;   ///< per-origin cut number, 1-based
  OpId block_id = 0;           ///< make_op_id(origin, sub_seq)
  std::uint32_t op_count = 0;  ///< ops the sub-block carries (accounting)

  /// origin + sub_seq + id + op_count, packed.
  std::uint64_t wire_size() const { return 16; }

  friend bool operator==(const SubBlockRef&, const SubBlockRef&) = default;
};

/// Canonical DAG-cut order: (origin, sub_seq) lexicographic.  Proposers
/// EMIT references in this order (the uncommitted registry is a map
/// keyed by it, so no sort happens anywhere), and the commit-time
/// flatten follows the committed value's order — one rule, applied
/// once, at the source.
inline bool canonical_before(const SubBlockRef& a, const SubBlockRef& b) {
  return a.origin != b.origin ? a.origin < b.origin : a.sub_seq < b.sub_seq;
}

/// One published sub-block: the origin's cut, with each op's relay
/// identity (the applied-id dedup filter's keys).  `B` is the ledger
/// BatchOp it carries.
template <typename B>
struct SubBlock {
  ProcessId origin = 0;
  std::uint32_t sub_seq = 0;  ///< 1-based; 0 = never cut
  std::vector<TaggedOp<B>> ops;

  OpId id() const { return make_op_id(origin, sub_seq); }

  SubBlockRef ref() const {
    return SubBlockRef{origin, sub_seq, id(),
                       static_cast<std::uint32_t>(ops.size())};
  }

  /// origin + sub_seq + length prefix + every (signed) tagged op.
  std::uint64_t wire_size() const {
    std::uint64_t bytes = 16;
    for (const TaggedOp<B>& t : ops) bytes += t.wire_size();
    return bytes;
  }

  friend bool operator==(const SubBlock&, const SubBlock&) = default;
};

/// Drains a TxPool into origin-sequenced sub-blocks under the same
/// size/deadline cut rule as BlockBuilder (exec/block.h): a full pool
/// cuts immediately, a deadline tick flushes any partial fill, an empty
/// pool cuts nothing.  Holds no operations of its own — the pool is the
/// only buffer — so cuts are deterministic given the pool content.
template <ConcurrentTokenSpec S>
class SubBlockBuilder {
 public:
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;
  using Sub = SubBlock<BatchOp>;

  SubBlockBuilder(TxPool<S>& pool, ProcessId origin, std::size_t max_ops)
      : pool_(pool), origin_(origin),
        max_ops_(max_ops == 0 ? 1 : max_ops) {}

  std::size_t max_ops() const noexcept { return max_ops_; }

  /// Size cut: yields a full sub-block iff max_ops operations are
  /// pending (call after each submit); partial fills wait for the
  /// deadline.
  std::optional<Sub> cut_if_full() {
    if (pool_.pending() < max_ops_) return std::nullopt;
    return wrap(pool_.drain_tagged(max_ops_));
  }

  /// Deadline cut: yields whatever is pending, up to max_ops; an empty
  /// pool yields nothing.
  std::optional<Sub> cut() {
    auto ops = pool_.drain_tagged(max_ops_);
    if (ops.empty()) return std::nullopt;
    return wrap(std::move(ops));
  }

 private:
  std::optional<Sub> wrap(std::vector<typename TxPool<S>::Tagged> tagged) {
    Sub s;
    s.origin = origin_;
    s.sub_seq = next_seq_++;
    s.ops = std::move(tagged);
    return s;
  }

  TxPool<S>& pool_;
  ProcessId origin_;
  std::size_t max_ops_;
  std::uint32_t next_seq_ = 1;
};

}  // namespace tokensync
