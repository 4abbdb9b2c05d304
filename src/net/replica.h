// ReplicaNode — deterministic replicated execution of token state
// machines over the fault-injecting SimNet.
//
// This is the layer that turns the repo's single-process step machines
// into protocols that actually RUN across replicas exchanging messages:
// a replica submits commands, the Paxos-backed total-order broadcast
// (atbcast/total_order.h) sequences them, and every replica applies the
// committed prefix to a local state machine.  Because the state machines
// are deterministic and delivery is identical everywhere, the committed
// histories of correct replicas are byte-identical prefixes of one
// another — the agreement invariant scenario runs check — and a whole run
// is reproducible from the SimNet seed alone.
//
// Three state machines cover the paper's spectrum:
//   * RaceSM<Spec>    — the generic token-race consensus
//                       (core/token_race_consensus.h) replayed over the
//                       network: registers and try_win steps are commands;
//                       every replica derives every participant's decision
//                       from the committed race state.  This runs ANY
//                       TokenRaceSpec (k-AT, ERC721, ERC777) end-to-end.
//   * LedgerSM<Spec>  — a replicated token ledger: commands are the
//                       sequential specification's operations
//                       (objects/erc20.h, erc721.h, erc777.h), applied in
//                       commit order; responses come verbatim from the
//                       spec, so replicated execution and the shared-
//                       memory model agree by construction.
//   * DynTokenNode    — (dyntoken/dyntoken.h) the per-account dynamic-
//                       group alternative: same network, same Paxos
//                       engine, but one consensus instance per (account,
//                       slot) instead of one global log.  The scenario
//                       driver (sched/scenario.h) runs both sides.
//
// The total-order log is intentionally the "all transactions through
// consensus" baseline the paper argues against for commuting operations —
// having it executable is what makes the comparison with atbcast/ (CN = 1
// asset transfer) and dyntoken/ (per-σ-group consensus) concrete.
//
// This file is one of the seven node runtimes the scenario driver runs
// through one ClusterHarness (sched/scenario.h).  Four of them share the
// ReplicaCore plumbing (net/replica_core.h — the committed log, the
// canonical history rendering, latency and settlement bookkeeping):
//   * ReplicaNode (here)      — one command per consensus slot;
//   * BlockReplicaNode        — one BLOCK per slot, replayed through the
//     (net/block_replica.h)     parallel executor (DESIGN.md §10);
//   * HybridReplicaNode       — CN = 1 ops over the consensus-free ERB
//     (net/hybrid_replica.h)    fast lane, CN > 1 ops through slots,
//                               merged at slot barriers (DESIGN.md §11);
//   * MultiProposerNode       — sub-block lanes under reference-only
//     (net/multi_proposer.h)    consensus (DESIGN.md §16).
// ShardedReplicaNode (net/shard_group.h) runs one BlockReplicaNode per
// group; DynTokenNode and AtBcastNode keep their own state.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atbcast/total_order.h"
#include "common/error.h"
#include "common/ids.h"
#include "net/replica_core.h"
#include "net/simnet.h"
#include "objects/object.h"
#include "objects/token_race.h"
#include "sched/protocol.h"

namespace tokensync {

// response_to_string (the canonical committed-history rendering of a
// Response) lives with Response itself in objects/object.h.

/// What ReplicaNode needs from a replicated state machine: a command type
/// and a deterministic apply that returns the committed-history line for
/// the command's effect.  Determinism is the whole contract: the line may
/// depend only on the machine state and the (origin, cmd) arguments,
/// never on the replica identity or on simulated time.
template <typename M>
concept ReplicaStateMachine =
    std::movable<M> && requires(M m, ProcessId p, const typename M::Cmd& c) {
      typename M::Cmd;
      { m.apply(p, c) } -> std::convertible_to<std::string>;
    };

/// One replica: a state machine fed by the total-order broadcast.  The
/// log/history/latency/settlement plumbing lives in ReplicaCore
/// (net/replica_core.h) — shared verbatim with the block and hybrid
/// runtimes; this class owns only the consensus ordering lane and the
/// state machine it feeds.
template <ReplicaStateMachine SM>
class ReplicaNode {
 public:
  using Cmd = typename SM::Cmd;
  using Tob = TotalOrderBcast<Cmd>;
  using Net = typename Tob::Net;

  ReplicaNode(Net& net, ProcessId self, SM sm)
      : net_(net), self_(self), sm_(std::move(sm)),
        tob_(net, self,
             [this](std::uint64_t slot, ProcessId origin,
                    std::uint64_t nonce, const Cmd& c) {
               on_commit(slot, origin, nonce, c);
             }) {}

  /// Submits a command on this replica's behalf; it commits (here and
  /// everywhere) once the broadcast sequences it.
  void submit(Cmd c) {
    core_.note_submission();
    const std::uint64_t nonce = tob_.broadcast(std::move(c));
    core_.start_latency(nonce, net_.now());
  }

  /// Anti-entropy probe (see TotalOrderBcast::sync).
  void sync() { tob_.sync(); }

  const SM& machine() const noexcept { return sm_; }
  std::size_t submitted() const noexcept { return core_.submitted(); }
  bool all_settled() const noexcept { return tob_.all_settled(); }
  /// One command per slot, so slots and ops committed are both the log.
  std::size_t slots_committed() const noexcept { return core_.log().size(); }
  std::size_t ops_committed() const noexcept { return core_.log().size(); }
  std::uint64_t last_commit_time() const noexcept {
    return core_.last_commit_time();
  }

  /// Commit latencies (simulated time, submit -> local commit) of this
  /// replica's own submissions.
  const std::vector<std::uint64_t>& commit_latencies() const noexcept {
    return core_.commit_latencies();
  }

  /// Canonical committed history (ReplicaCore's shared rendering).
  std::string history() const { return core_.history(); }
  /// The audit's entry-wise comparisons (ReplicaCore's).
  bool same_history(const ReplicaNode& ref) const {
    return core_.same_history(ref.core_);
  }
  bool history_prefix_of(const ReplicaNode& ref) const {
    return core_.history_prefix_of(ref.core_);
  }

 private:
  void on_commit(std::uint64_t slot, ProcessId origin, std::uint64_t nonce,
                 const Cmd& c) {
    core_.append(slot, origin, net_.now(), sm_.apply(origin, c));
    if (origin == self_) core_.finish_latency(nonce, net_.now());
  }

  Net& net_;
  ProcessId self_;
  SM sm_;
  Tob tob_;
  ReplicaCore core_;
};

// ---------------------------------------------------------------------------
// RaceSM — any TokenRaceSpec consensus, replicated.
// ---------------------------------------------------------------------------

/// A replicated token-race command: participant `origin` either writes
/// its proposal register or performs its (single) sticky race step.
struct RaceCmd {
  enum class Kind : std::uint8_t { kWrite, kRace };

  Kind kind = Kind::kWrite;
  Amount value = 0;  ///< proposal, meaningful for kWrite

  static RaceCmd write(Amount v) { return RaceCmd{Kind::kWrite, v}; }
  static RaceCmd race() { return RaceCmd{Kind::kRace, 0}; }

  friend bool operator==(const RaceCmd&, const RaceCmd&) = default;
};

/// Replicated form of TokenRaceConsensus<Spec>: the race state and the
/// proposal registers live in the committed log's state machine, so the
/// shared-memory protocol's phases become two commands per participant
/// (write, then race).  The probe pass runs locally over committed state
/// — after participant i's race step commits, a full pass is guaranteed
/// to name the winner (the same wait-freedom bound as the step machine).
/// Every replica therefore derives the SAME decision for every
/// participant whose race step has committed: agreement and validity
/// carry over verbatim from the sticky-race argument.
template <TokenRaceSpec Spec>
class RaceSM {
 public:
  using Cmd = RaceCmd;

  explicit RaceSM(std::size_t k, Spec spec = Spec{})
      : spec_(std::move(spec)), k_(k), state_(spec_.make_race(k)),
        regs_(k), decisions_(k) {}

  std::string apply(ProcessId origin, const Cmd& c) {
    TS_EXPECTS(origin < k_);
    if (c.kind == Cmd::Kind::kWrite) {
      regs_[origin] = c.value;
      return "R[" + std::to_string(origin) + "].write(" +
             std::to_string(c.value) + ")";
    }
    spec_.try_win(state_, origin);
    for (std::size_t j = 0; j < spec_.num_probes(k_); ++j) {
      if (const auto w = spec_.probe_winner(state_, j)) {
        TS_ASSERT(*w < k_);
        decisions_[origin] =
            regs_[*w] ? Decision{false, *regs_[*w]} : Decision{true, 0};
        return spec_.try_win_name(origin) + " -> decide " +
               (decisions_[origin]->bottom
                    ? std::string("bottom")
                    : std::to_string(decisions_[origin]->value));
      }
    }
    // Unreachable for a correct spec (a pass after one's own try_win
    // finds the winner); kept total for buggy-spec experiments.
    return spec_.try_win_name(origin) + " -> undecided";
  }

  std::optional<Decision> decision(ProcessId i) const {
    return decisions_.at(i);
  }

 private:
  Spec spec_;
  std::size_t k_;
  typename Spec::State state_;
  std::vector<std::optional<Amount>> regs_;
  std::vector<std::optional<Decision>> decisions_;
};

// ---------------------------------------------------------------------------
// LedgerSM — a replicated token ledger over any sequential spec.
// ---------------------------------------------------------------------------

/// Replicated-ledger state machine: commands are the token's sequential
/// operations, applied in commit order via the pure specification (the
/// same Δ the model checker and the linearizability oracle use).
template <typename Spec>
class LedgerSM {
 public:
  using Cmd = typename Spec::Op;

  explicit LedgerSM(typename Spec::State initial)
      : state_(std::move(initial)) {}

  std::string apply(ProcessId origin, const Cmd& op) {
    auto applied = Spec::apply(state_, origin, op);
    state_ = std::move(applied.state);
    return op.to_string() + " -> " + response_to_string(applied.response);
  }

  const typename Spec::State& state() const noexcept { return state_; }

 private:
  typename Spec::State state_;
};

}  // namespace tokensync
