// ConflictPlanner<Spec> — from a batch of token operations to a wave
// schedule, via the paper's commutativity relation.
//
// The paper's Theorem 3 observation is the whole trick: two operations
// whose σ-footprints are disjoint commute, so they need NO
// synchronization between them — not a lock, not an order, not a
// consensus.  The planner computes each operation's footprint through
// the ledger's spec machinery (the same σ the sharded locks use) and
// asks core/planner.h's plan_batch for the greedy wave schedule:
// commuting operations share a wave, conflicting operations order across
// waves, and operations that cannot be footprint-pinned at planning time
// ESCALATE to singleton barrier waves — the sequential lane, the
// executor's stand-in for the consensus path (in the replicated setting
// these are exactly the operations a TokenRaceConsensus/total-order
// instance must decide; DESIGN.md §9 maps the correspondence).
//
// The escalation rule, precisely: an operation leaves the fast path iff
//   (a) its footprint covers the whole state (totalSupply — σ = A), or
//   (b) ExecTraits<Spec> declares its footprint STATE-DEPENDENT: σ_q
//       read from mutable state (an ERC721 token's current owner) can
//       drift between planning and execution, so a planned wave
//       assignment for it proves nothing.  These are the paper's
//       "admin" fragment — approval/operator plumbing whose σ is not
//       derivable from the call arguments.
#pragma once

#include <cstddef>
#include <vector>

#include "atomic/ledger.h"
#include "core/footprint.h"
#include "core/planner.h"

namespace tokensync {

/// Per-spec execution traits.  The default claims every footprint is a
/// pure function of (caller, op) — true for ERC20 and ERC777, whose σ is
/// argument-only.  Specs with state-dependent σ (ERC721) specialize this
/// in exec/exec_specs.h.
template <typename S>
struct ExecTraits {
  /// True iff footprint(q, caller, op) never reads q — the operation may
  /// take the parallel fast path.
  static bool stable_footprint(const typename S::Op& /*op*/) { return true; }
};

template <ConcurrentTokenSpec S>
class ConflictPlanner {
 public:
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;

  /// Plans `batch` against the ledger's current state.  Quiescent call
  /// only (plan, then execute; never plan while a previous wave runs):
  /// footprints of stable operations are argument-only, and unstable
  /// ones escalate, so the plan stays valid for the whole execution.
  static BatchSchedule plan(const ConcurrentLedger<S>& ledger,
                            const std::vector<BatchOp>& batch) {
    // One scratch per thread, reused across blocks and ledgers: a plan
    // completes before the next one starts, and plan_batch restamps the
    // per-account arrays for every batch.
    thread_local Scratch scratch;
    scratch.fps.resize(batch.size());
    scratch.escalate.assign(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ledger.footprint_of(batch[i].caller, batch[i].op, scratch.fps[i]);
      scratch.escalate[i] = !ExecTraits<S>::stable_footprint(batch[i].op);
    }
    scratch.accounts.set_num_accounts(ledger.num_accounts());
    return plan_batch(scratch.fps, scratch.escalate, scratch.accounts);
  }

 private:
  struct Scratch {
    std::vector<Footprint> fps;
    std::vector<bool> escalate;
    PlanScratch accounts;
  };
};

}  // namespace tokensync
