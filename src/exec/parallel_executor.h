// ParallelExecutor<Spec> — commutativity-aware batch execution onto a
// ConcurrentLedger (the ISSUE 3 tentpole; DESIGN.md §9).
//
// Pipeline: a batch (from TxPool, in submission order) is planned by
// ConflictPlanner into waves — commuting operations side by side,
// conflicting operations ordered across waves, escalated operations as
// singleton barrier waves — and each wave fans out over a ThreadPool
// onto the ledger.  Within a wave every pair of footprints is disjoint,
// so the operations commute: the final state and every response are the
// same for ANY thread count and ANY cross-thread interleaving.  Waves
// execute in index order.  Together: same batch ⇒ byte-identical ledger
// state, whether threads = 1 or 8 — the determinism contract
// tests/exec_test.cc asserts and the scenario audits re-check.
//
// Each worker takes a fixed contiguous chunk of the wave, so the
// op→thread map is itself reproducible, which makes schedules
// debuggable.
//
// The executor amortizes nothing across batches and holds no state of
// its own beyond the pool: determinism lives in the schedule, isolation
// in two places.  The executor has EXCLUSIVE use of its ledger during
// execute() — no other thread touches the ledger while a batch runs
// (ReplayEngine owns its ledger; every test and bench builds its own).
// Waves run one after another and pool_->run returns only after every
// worker finished, so a wave run on the calling thread — the sequential
// lane: singleton barrier waves, or every wave at threads = 1 — holds
// the ledger alone and applies through apply_exclusive(), with no
// footprint passes and no locks.  Waves fanned over the pool apply
// through apply() and its shard locks (a wave's disjoint footprints
// never contend, but may share a shard when num_shards < num_accounts —
// the lock serializes them and commutation keeps the outcome fixed).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "atomic/ledger.h"
#include "core/planner.h"
#include "exec/conflict_planner.h"
#include "exec/thread_pool.h"

namespace tokensync {

struct ExecOptions {
  /// Worker threads; 1 executes inline (no pool, no handshakes, no locks).
  std::size_t threads = 1;
};

/// The outcome of one executed batch.
struct ExecReport {
  /// Responses in batch (submission) order — identical to the sequential
  /// execution's responses.
  std::vector<Response> responses;
  /// The schedule the batch ran under (waves, escalations, conflict
  /// density).
  BatchSchedule schedule;

  std::size_t ops() const noexcept { return responses.size(); }
  std::string summary() const { return schedule.to_string(); }
};

template <ConcurrentTokenSpec S>
class ParallelExecutor {
 public:
  using Ledger = ConcurrentLedger<S>;
  using BatchOp = typename Ledger::BatchOp;

  ParallelExecutor(Ledger& ledger, ExecOptions opts)
      : ledger_(ledger), opts_(opts) {
    if (opts_.threads == 0) opts_.threads = 1;
    if (opts_.threads > 1) pool_ = std::make_unique<ThreadPool>(opts_.threads);
  }

  /// Plans and executes one batch; returns when every operation applied.
  ExecReport execute(const std::vector<BatchOp>& batch) {
    ExecReport rep;
    rep.schedule = ConflictPlanner<S>::plan(ledger_, batch);
    rep.responses.resize(batch.size());
    for (std::size_t w = 0; w < rep.schedule.num_waves; ++w) {
      run_wave(batch, rep.schedule.wave_ops(w), rep.responses);
    }
    return rep;
  }

 private:
  /// Executes one wave.  `wave` holds batch indices, ascending; the ops'
  /// footprints are pairwise disjoint (or the wave is a singleton
  /// barrier), so any partition over threads commutes to one outcome.
  void run_wave(const std::vector<BatchOp>& batch,
                std::span<std::uint32_t> wave, std::vector<Response>& out) {
    // Singleton waves — barriers (escalated / whole-state ops) and
    // trickles — run on the calling thread: the sequential lane.  No
    // worker is running, so the ledger is ours alone (file comment).
    if (wave.size() == 1 || opts_.threads == 1) {
      for (const std::size_t i : wave) {
        out[i] = ledger_.apply_exclusive(batch[i].caller, batch[i].op);
      }
      return;
    }
    // Fixed contiguous chunks: worker w applies wave[lo_w, hi_w).
    const std::size_t per = (wave.size() + opts_.threads - 1) / opts_.threads;
    pool_->run([&](std::size_t w) {
      const std::size_t lo = std::min(w * per, wave.size());
      const std::size_t hi = std::min(lo + per, wave.size());
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t i = wave[k];
        out[i] = ledger_.apply(batch[i].caller, batch[i].op);
      }
    });
  }

  Ledger& ledger_;
  ExecOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tokensync
