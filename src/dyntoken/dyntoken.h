// dyntoken — an ERC20 token over broadcast + per-account dynamic consensus
// groups: a concrete protocol for the paper's open problem (Sec. 7).
//
// "Consensus indeed only needs to be reached among the largest set σ_q(a)
//  of enabled spenders for the same account; the exact synchronization
//  requirements can be readily deduced from the current object's state."
//
// Design (assumptions documented in DESIGN.md §5.6 and EXPERIMENTS.md E10):
//  * Every replica holds the full token state.  Operations on account a
//    are decided one slot at a time by a Paxos instance whose acceptor
//    group is a's current spender group:
//        group(a, slot) = {ω(a)} ∪ {p : allowance(a, p) > 0}
//    computed deterministically from the decided prefix of a's slots
//    (allowance effects apply at decision processing; this slightly
//    over-approximates σ by ignoring the zero-balance convention —
//    conservative, never under-synchronized).  Single-member groups
//    decide in one step — the consensus-free fast path that makes
//    owner-only accounts as cheap as plain asset transfer (CN = 1).
//  * approve decided at slot s changes the group from slot s+1 on — the
//    epoch mechanism ensuring a spend is decided either by the old or the
//    new group, never both (paper eq. 12: class changes are owner-driven).
//  * transferFrom debits the allowance at decision processing
//    (deterministic; a spender whose allowance was consumed aborts
//    identically on every replica), while the balance movement enters the
//    source account's FIFO funding queue and applies when funded —
//    cross-account credits commute and queue heads only enable each
//    other, so replicas converge without any cross-account ordering.  A
//    movement whose funding never materializes (e.g. the balance-starved
//    loser of a U-governed race) remains pending and blocks later spends
//    of that account: honest clients validate against their local view
//    before submitting, exactly like the asset-transfer issuers.
//  * Proposers must have processed slot s-1 before proposing at s, and
//    acceptors refuse instances they cannot resolve yet; every group
//    member therefore agrees on the acceptor set of every instance.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "dyntoken/paxos.h"
#include "net/simnet.h"

namespace tokensync {

/// A token operation submitted to dyntoken.
struct DynOp {
  enum class Kind : std::uint8_t {
    kNone,          // empty slot filler
    kTransfer,      // owner moves own funds
    kTransferFrom,  // enabled spender moves account funds
    kApprove,       // owner re-authorizes a spender (group change!)
  };

  Kind kind = Kind::kNone;
  ProcessId caller = 0;
  AccountId src = 0;
  AccountId dst = 0;
  ProcessId spender = 0;
  Amount amount = 0;
  /// Per-submitter id.  A proposal that loses slot s is re-proposed at
  /// s+1, but a slow acceptor may still get the s-value adopted — the same
  /// operation can then be decided in two slots.  Replicas deduplicate by
  /// (caller, nonce), applying the first and voiding the second.
  std::uint64_t nonce = 0;

  /// Factories for client code (caller/src of transfer and approve are
  /// filled in by DynTokenNode::submit).
  static DynOp transfer(AccountId dst, Amount v) {
    DynOp op;
    op.kind = Kind::kTransfer;
    op.dst = dst;
    op.amount = v;
    return op;
  }
  static DynOp transfer_from(AccountId src, AccountId dst, Amount v) {
    DynOp op;
    op.kind = Kind::kTransferFrom;
    op.src = src;
    op.dst = dst;
    op.amount = v;
    return op;
  }
  static DynOp approve(ProcessId spender, Amount v) {
    DynOp op;
    op.kind = Kind::kApprove;
    op.spender = spender;
    op.amount = v;
    return op;
  }

  friend bool operator==(const DynOp&, const DynOp&) = default;
};

/// One dyntoken replica.
class DynTokenNode {
 public:
  using Net = SimNet<PaxosMsg<DynOp>>;

  /// Synchronization policy: per-account spender groups (the paper's
  /// proposal) or global total order (every op decided by all n replicas
  /// — the consensus-based-blockchain baseline benches compare against).
  enum class Mode { kPerAccountGroups, kGlobalOrder };

  /// All replicas start from the same balances; allowances start empty.
  DynTokenNode(Net& net, ProcessId self, std::vector<Amount> initial,
               Mode mode = Mode::kPerAccountGroups);

  /// Submits an operation on THIS node's behalf (caller = self).  The
  /// node proposes it at its account's next free slot, re-proposing at
  /// later slots if other group members win earlier ones.  Returns false
  /// for locally invalid submissions (e.g. unknown account).
  bool submit(DynOp op);

  /// Applied-state accessors (deterministic across replicas at
  /// quiescence).
  Amount balance(AccountId a) const { return balances_.at(a); }
  Amount allowance(AccountId a, ProcessId p) const {
    return allowances_.at(a).at(p);
  }
  Amount total_supply() const;
  std::uint64_t processed_ops() const noexcept { return processed_; }
  std::uint64_t aborted_ops() const noexcept { return aborted_; }
  std::uint64_t parked_movements() const noexcept;
  /// Simulated time at which this replica processed its latest slot —
  /// the span endpoint throughput measurements use (on a fault-free run
  /// this precedes the audit's sync rounds; under faults it lands
  /// wherever the last decision was recovered).
  std::uint64_t last_commit_time() const noexcept {
    return last_commit_time_;
  }

  /// True iff every operation this node submitted has been decided (in
  /// some slot) — the workload-completion signal for tests and benches.
  bool all_settled() const;

  // The cluster harness's surface (sched/scenario.h's ReplicaRuntime).
  /// Accepted submissions (each drew one nonce).
  std::size_t submitted() const noexcept { return next_nonce_ - 1; }
  /// Every processed slot holds one operation.
  std::size_t slots_committed() const noexcept { return processed_; }
  std::size_t ops_committed() const noexcept { return processed_; }
  /// This node records no commit latencies.
  std::vector<std::uint64_t> commit_latencies() const { return {}; }
  bool same_history(const DynTokenNode& ref) const {
    return account_logs_ == ref.account_logs_;
  }
  /// Per account, this node's log is a prefix of `ref`'s — the agreement
  /// a crashed replica owes: replicas interleave accounts differently, so
  /// the account-major rendering need not be a string prefix.
  bool history_prefix_of(const DynTokenNode& ref) const;

  /// The group that will decide the next slot of account a, per this
  /// node's processed prefix.
  std::vector<ProcessId> current_group(AccountId a) const;

  /// Anti-entropy probe: queries every account's next unprocessed slot.
  /// A replica that fell behind (kDecide disseminations lost to drops or
  /// a partition) pulls in the missing decisions — each answer advances
  /// the prefix and triggers the next probe — while an up-to-date
  /// replica's probes go unanswered.  Scenario drivers call this near the
  /// end of a run to force convergence at quiescence.
  void sync();

  /// Per-account committed histories: account_logs()[a][s] renders the
  /// operation processed at slot s of account a and its deterministic
  /// outcome.  Identical across replicas for any common prefix (slots are
  /// processed in order and outcomes depend only on the prefix), even
  /// though replicas interleave DIFFERENT accounts in different orders —
  /// which is exactly the per-σ-group synchronization story.
  const std::vector<std::vector<std::string>>& account_logs() const noexcept {
    return account_logs_;
  }

  /// Canonical rendering of account_logs() (account-major), the
  /// byte-comparable committed history used by determinism and agreement
  /// checks.
  std::string history() const;

 private:
  /// Instance encoding: account in the high 32 bits, slot in the low 32.
  static InstanceId instance_of(AccountId a, std::uint32_t slot) {
    return (static_cast<InstanceId>(a) << 32) | slot;
  }

  std::optional<std::vector<ProcessId>> resolve_group(InstanceId id) const;
  /// Reactive anti-entropy: called when a peer's message names an
  /// instance beyond our processed prefix — queries our frontier slot so
  /// the missed decisions stream in (each answer advances the prefix and
  /// re-queries via on_decide).
  void hint_gap(InstanceId id);
  /// Sends a kQuery for account a's next unprocessed slot; the answer (a
  /// catch-up reply) continues the frontier walk in on_decide.
  void query_frontier(AccountId a);
  void on_decide(InstanceId id, const DynOp& op);
  /// Processes decided slots of `a` in order as far as possible.
  void process_ready_slots(AccountId a);
  /// Applies the op decided at (a, slot); allowance effects immediate,
  /// balance movement parked until funded.  Appends the rendered outcome
  /// to account_logs_[a].
  void apply_op(AccountId a, const DynOp& op);
  void drain_parked();
  /// (Re-)proposes every still-undecided submission of ours.
  void pump_submissions();

  Net& net_;
  ProcessId self_;
  Mode mode_ = Mode::kPerAccountGroups;
  std::size_t num_replicas_ = 0;
  std::vector<Amount> balances_;
  std::vector<std::vector<Amount>> allowances_;
  std::unique_ptr<PaxosEngine<DynOp>> paxos_;

  // Per-account decided-but-unprocessed ops and processing cursor.
  std::map<AccountId, std::map<std::uint32_t, DynOp>> decided_slots_;
  std::vector<std::uint32_t> next_slot_;  // first unprocessed slot per acct

  struct Movement {
    AccountId src;
    AccountId dst;
    Amount amount;
  };
  /// Funding queues, one per source account, drained strictly FIFO: a
  /// movement that cannot fund yet BLOCKS later movements from the same
  /// source.  Heads of distinct queues only ever enable each other
  /// (credits), so the drain order across accounts does not affect the
  /// final state — replicas converge deterministically even though they
  /// observe cross-account credits at different times.
  std::vector<std::deque<Movement>> pending_;

  std::vector<std::vector<std::string>> account_logs_;  // [account][slot]

  std::vector<DynOp> my_pending_;  // submitted, not yet decided anywhere
  std::uint64_t next_nonce_ = 1;
  std::set<std::pair<ProcessId, std::uint64_t>> applied_ids_;
  std::uint64_t processed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t last_commit_time_ = 0;
};

}  // namespace tokensync
