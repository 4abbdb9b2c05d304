// TxPool<Spec> — the executor's intake queue.
//
// Clients (or workload scripts) submit operations from any thread; the
// execution loop periodically drains a batch and hands it to the
// ConflictPlanner/ParallelExecutor pipeline.  The pool is deliberately
// FIFO: the batch order it yields is the submission order, which is the
// sequential execution the wave schedule is proven equivalent to
// (DESIGN.md §9) — a reordering pool would change which execution the
// audits compare against, not just performance.
//
// Relay identity (ISSUE 6): every pooled operation carries an OpId —
// either assigned at intake (hash of this pool's origin replica and a
// local sequence number, common/wire.h) or supplied by the caller
// (submit_tagged).  The pool is ONE insertion-ordered OpIdMap
// (common/opid_table.h) plus a drained cursor: the pending ops are the
// tail past the cursor, and the drained prefix stays indexed — the
// compact relay reconstructs committed op-ID blocks from it in O(1) per
// id, and a double-submit of an already-known id is rejected at intake
// instead of relying on downstream dedup.
//
// The lock is a single mutex, not a sharded structure: intake is not the
// hot path (one push per op vs. one footprint + locks + Δ per op on the
// execution side), and a total submission order is exactly what the
// determinism contract wants.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "atomic/ledger.h"
#include "common/ids.h"
#include "common/opid_table.h"
#include "common/wire.h"

namespace tokensync {

template <ConcurrentTokenSpec S>
class TxPool {
 public:
  using Op = typename S::Op;
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;
  using Tagged = TaggedOp<BatchOp>;

  /// Sets the replica identity mixed into auto-assigned OpIds; replicas
  /// call this once at construction so ids are cluster-unique even when
  /// the same account submits at several replicas.
  void set_origin(ProcessId origin) {
    const std::scoped_lock lk(mu_);
    origin_ = origin;
  }

  /// Enqueues `op` on behalf of `caller` under a fresh OpId (returned);
  /// if a caller-supplied id already took that OpId, pools nothing.
  /// Thread-safe.
  OpId submit(ProcessId caller, Op op) {
    const std::scoped_lock lk(mu_);
    const OpId id = make_op_id(origin_, next_seq_++);
    ops_.try_emplace(id, id, BatchOp{caller, std::move(op)});
    return id;
  }

  /// Enqueues under a caller-supplied id; returns false (and pools
  /// nothing) when the id is already known — the double-submit dedup.
  /// Thread-safe.
  bool submit_tagged(OpId id, ProcessId caller, Op op) {
    const std::scoped_lock lk(mu_);
    return ops_.try_emplace(id, id, BatchOp{caller, std::move(op)});
  }

  /// O(1) lookup by OpId over every operation this pool has ever
  /// accepted — drained or not (reconstruction needs drained ops).
  /// Returns a copy taken under the lock.  Thread-safe.
  std::optional<BatchOp> lookup(OpId id) const {
    const std::scoped_lock lk(mu_);
    if (const Tagged* t = ops_.find(id)) return t->op;
    return std::nullopt;
  }

  /// Removes and returns up to `max_ops` operations in submission order.
  /// Thread-safe; an empty vector means the pool was empty.
  std::vector<BatchOp> drain(std::size_t max_ops = SIZE_MAX) {
    std::vector<BatchOp> batch;
    for (Tagged& t : drain_tagged(max_ops)) batch.push_back(std::move(t.op));
    return batch;
  }

  /// drain(), keeping each op's relay identity — what the compact block
  /// cut pushes and proposes.
  std::vector<Tagged> drain_tagged(std::size_t max_ops = SIZE_MAX) {
    const std::scoped_lock lk(mu_);
    const std::size_t n = std::min(max_ops, ops_.size() - drained_);
    const auto first = ops_.values().begin() + drained_;
    drained_ += n;
    return {first, first + n};
  }

  std::size_t pending() const {
    const std::scoped_lock lk(mu_);
    return ops_.size() - drained_;
  }
  std::size_t submitted() const {
    const std::scoped_lock lk(mu_);
    return ops_.size();
  }
  std::size_t drained() const {
    const std::scoped_lock lk(mu_);
    return drained_;
  }

 private:
  mutable std::mutex mu_;
  ProcessId origin_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Every accepted op in submission order; [0, drained_) is cut.
  OpIdMap<Tagged> ops_;
  std::size_t drained_ = 0;
};

}  // namespace tokensync
