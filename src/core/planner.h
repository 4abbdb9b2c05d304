// Synchronization planner — the operational reading of the paper's
// conclusion: "consensus only needs to be reached among the largest set
// σ_q(a) of enabled spenders for the same account; the exact
// synchronization requirements can be readily deduced from the current
// object's state q".
//
// Two plans live here:
//
//   * plan_synchronization — per ACCOUNT: which process group must agree
//     on spends from each account, derived from σ_q(a) (consumed by the
//     dyntoken runtime, src/dyntoken);
//   * plan_batch — per BATCH: given each operation's σ-footprint,
//     partition the batch's conflict graph into parallel waves
//     (operations with pairwise-disjoint footprints commute, so a wave
//     executes in any order — and on any number of threads — with one
//     deterministic outcome), serializing the operations that cannot
//     join the fast path as barrier waves (consumed by the src/exec/
//     parallel executor; DESIGN.md §9 carries the argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/footprint.h"
#include "core/state_class.h"
#include "objects/erc20.h"

namespace tokensync {

/// Synchronization requirement for one account.
struct AccountPlan {
  AccountId account = kNoAccount;
  /// σ_q(account): the group that must agree on this account's spends.
  std::vector<ProcessId> group;
  /// True iff |group| == 1 — spends commute with everything else touching
  /// other accounts, so no consensus is needed (the k = 1 / plain-AT case).
  bool consensus_free = true;
};

/// Whole-object plan: per-account requirements plus the global summary.
struct SyncPlan {
  std::vector<AccountPlan> accounts;
  /// k = state_class(q): the object's current synchronization level.
  std::size_t level = 1;
  /// Number of accounts that currently require group consensus.
  std::size_t coordinated_accounts = 0;
  /// Whether q is a synchronization state (q ∈ S_k) — i.e. the level is
  /// realizable as consensus power right now (Theorem 2 applies).
  bool realizable = false;

  std::string to_string() const;
};

/// Derives the plan for state q.
SyncPlan plan_synchronization(const Erc20State& q);

// ---------------------------------------------------------------------------
// Batch planning: σ-footprints → conflict graph → wave schedule.
// ---------------------------------------------------------------------------

/// A wave schedule for one batch.  Invariants (tests/planner_test.cc):
///
///   * ORDER — any two conflicting operations (intersecting footprints,
///     or either side escalated) are in different waves, the earlier
///     submission in the earlier wave.  Executing waves in index order
///     therefore preserves every conflicting pair's submission order,
///     which makes the whole schedule equivalent to the sequential
///     execution of the batch in submission order (non-conflicting
///     operations commute — Theorem 3's observation);
///   * ISOLATION — an escalated operation is ALONE in its wave (it
///     conflicts with everything), i.e. it is a barrier: the sequential
///     lane between parallel waves;
///   * GREED — each operation takes the earliest wave consistent with
///     ORDER, so num_waves equals 1 + the length of the longest conflict
///     chain in submission order.
struct BatchSchedule {
  /// wave[i]: the wave operation i executes in.
  std::vector<std::uint32_t> wave;
  std::size_t num_waves = 0;
  /// Operations serialized as barrier waves (escalated by the caller or
  /// whole-state footprints).
  std::size_t escalated = 0;
  /// Conflict-graph edges, counted per shared account (a pair sharing two
  /// accounts counts twice); a whole-state/escalated op contributes one
  /// edge per predecessor.  A cheap density signal, not an exact pair
  /// count.
  std::size_t conflict_edges = 0;
  /// Operation indices stable-sorted by wave: wave w's operations are
  /// order[wave_begin[w], wave_begin[w + 1]), ascending (the
  /// deterministic execution order contract of src/exec/).
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> wave_begin;  ///< num_waves + 1 offsets

  std::size_t size() const noexcept { return wave.size(); }
  /// Mean operations per wave — the schedule's available parallelism
  /// (batch of n commuting ops → n; fully serial batch → 1).
  double parallelism() const noexcept {
    return num_waves ? static_cast<double>(wave.size()) /
                           static_cast<double>(num_waves)
                     : 0.0;
  }
  /// Wave w's operation indices, ascending.
  std::span<const std::uint32_t> wave_ops(std::size_t w) const {
    return std::span(order).subspan(wave_begin[w],
                                    wave_begin[w + 1] - wave_begin[w]);
  }
  std::span<std::uint32_t> wave_ops(std::size_t w) {
    return std::span(order).subspan(wave_begin[w],
                                    wave_begin[w + 1] - wave_begin[w]);
  }

  std::string to_string() const;
};

/// plan_batch's per-account bookkeeping: arrays indexed by AccountId over
/// a fixed keyspace, stamped with the batch they were last written in.
/// Reused across batches, a batch costs O(its ops) — an entry from an
/// older batch reads as untouched — and allocates nothing once warm.
class PlanScratch {
 public:
  explicit PlanScratch(std::size_t num_accounts = 0) {
    set_num_accounts(num_accounts);
  }

  /// The keyspace: plan_batch requires every account id of a non-barrier
  /// footprint to be below it.  Growing it keeps the old entries.
  void set_num_accounts(std::size_t n) {
    num_accounts_ = n;
    if (accounts_.size() < n) accounts_.resize(n);
  }

 private:
  friend BatchSchedule plan_batch(const std::vector<Footprint>&,
                                  const std::vector<bool>&, PlanScratch&);

  struct Account {
    std::uint32_t epoch = 0;        ///< batch that last wrote this entry
    std::uint32_t last_touch = 0;   ///< latest wave + 1 touching it (0: none)
    std::uint32_t touch_count = 0;  ///< earlier ops of the batch touching it
  };

  std::vector<Account> accounts_;
  std::size_t num_accounts_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> cursor_;  ///< per-wave fill cursor for order
};

/// Greedy earliest-wave scheduling of one batch.  `fps[i]` is operation
/// i's σ-footprint; `escalate[i]` forces operation i onto the sequential
/// lane (treated as conflicting with every other operation — used by the
/// executor for operations whose footprint is state-dependent and can
/// drift between planning and execution).  `escalate` may be empty
/// (nothing escalates beyond whole-state footprints).  `scratch` holds
/// the per-account bookkeeping; its keyspace bounds the account ids.
BatchSchedule plan_batch(const std::vector<Footprint>& fps,
                         const std::vector<bool>& escalate,
                         PlanScratch& scratch);

}  // namespace tokensync
