// ReplayEngine<Spec> — deterministic parallel replay of committed blocks.
//
// The block pipeline's last stage (DESIGN.md §10): every replica owns one
// ReplayEngine and feeds it each committed block in slot order.  The
// engine plans the block with ConflictPlanner (σ-footprints → conflict
// graph → waves, escalations as singleton barriers — DESIGN.md §9) and
// fans the waves over its ParallelExecutor onto a private
// ConcurrentLedger.
//
// The determinism contract is the whole point: apply() is a pure
// function of (committed block sequence) — NOT of the engine's worker
// thread count.  The executor guarantees byte-identical ledger state and
// responses for any thread count (tests/exec_test.cc), the plan is
// computed single-threaded from the pre-block ledger state, and the
// rendered history line uses only batch-order responses plus schedule
// shape.  Replicas replaying the same committed prefix with 1, 2 or 8
// workers therefore hold byte-identical committed histories and ledger
// states — the property tests/block_pipeline_test.cc asserts per
// workload × fault profile.
//
// The engine owns its ledger and executor (and is deliberately pinned —
// the executor holds a reference to the ledger, so moving the pair would
// dangle it; holders wrap the engine in a unique_ptr, see
// BlockReplicaNode's engine_ in net/block_replica.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "atomic/ledger.h"
#include "exec/block.h"
#include "exec/parallel_executor.h"
#include "objects/object.h"

namespace tokensync {

template <ConcurrentTokenSpec S>
class ReplayEngine {
 public:
  using Ledger = ConcurrentLedger<S>;
  using Blk = Block<S>;

  /// `opts.threads` is the replay parallelism under test; `num_shards`
  /// follows ConcurrentLedger's spectrum (0 = per-account);
  /// `validation_spin` is the ledger's simulated per-op validation work
  /// (~1ns units — benches use it to give the waves something to spread).
  ReplayEngine(const typename S::SeqState& initial, ExecOptions opts,
               std::size_t num_shards = 0, unsigned validation_spin = 0)
      : ledger_(initial, validation_spin, num_shards),
        exec_(ledger_, opts) {}

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Applies one committed block; returns its committed-history line.
  /// The line is replica- and thread-count-independent: ops in batch
  /// order with their sequential-equivalent responses, then the schedule
  /// shape (itself a pure function of block + pre-block state).
  std::string apply(const Blk& b) {
    ++blocks_;
    if (b.empty()) return "block[0]";
    const ExecReport rep = exec_.execute(b.ops);
    ops_ += b.size();
    waves_ += rep.schedule.num_waves;
    escalated_ += rep.schedule.escalated;
    // Appended piecewise (no `const char* + std::string&&` chains): GCC
    // 12's -O3 -Wrestrict misfires on the temporary-reusing operator+
    // overload (upstream PR105651); piecewise += is also one allocation
    // cheaper per op.
    std::string line = "block[" + std::to_string(b.size()) + "]";
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      line += i == 0 ? " p" : " | p";
      line += std::to_string(b.ops[i].caller);
      line += ' ';
      line += b.ops[i].op.to_string();
      line += " -> ";
      line += response_to_string(rep.responses[i]);
    }
    line += " {waves=" + std::to_string(rep.schedule.num_waves) +
            " esc=" + std::to_string(rep.schedule.escalated) + "}";
    return line;
  }

  const Ledger& ledger() const noexcept { return ledger_; }

  std::size_t blocks_applied() const noexcept { return blocks_; }
  std::size_t ops_applied() const noexcept { return ops_; }
  std::size_t waves_total() const noexcept { return waves_; }
  std::size_t escalated_total() const noexcept { return escalated_; }

 private:
  Ledger ledger_;
  ParallelExecutor<S> exec_;
  std::size_t blocks_ = 0;
  std::size_t ops_ = 0;
  std::size_t waves_ = 0;
  std::size_t escalated_ = 0;
};

}  // namespace tokensync
