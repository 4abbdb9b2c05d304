// MultiProposerNode — the leaderless multi-proposer pipeline
// (DESIGN.md §16, the ISSUE 10 tentpole).
//
// The single-proposer block pipeline (net/block_replica.h) serializes
// proposal bandwidth: one replica's block rides each Paxos slot, so the
// whole cluster's intake funnels through whoever wins the duel, and
// commit latency spikes the moment that proposer's links turn lossy.
// This runtime splits dissemination from ordering:
//
//   * every replica cuts its pooled intake into SUB-BLOCKS
//     (exec/subblock.h) and PUBLISHES them to its peers immediately, on
//     its own lane, concurrently with everyone else's — dissemination
//     bandwidth scales with the number of active origins;
//   * consensus orders only thin references: a slot value is
//     {proposer, vector<SubBlockRef>} — the proposer's cut through the
//     DAG of published-but-uncommitted sub-blocks (~16 bytes per
//     sub-block, the §12 compact-relay idea one level up);
//   * on commit, the replica flattens the referenced sub-blocks in the
//     value's canonical (origin, sub_seq) order into ONE block and
//     replays it through the planner — the committed history is a pure
//     function of the committed reference sequence, byte-identical
//     across replicas, replay thread counts and fault profiles.
//
// Proposer pacing (the fewer-slots mechanism): replicas 0..P-1 are
// proposers.  After each commit the "primary" rotates
// (delivered_count % P); the primary's proposal timer fires after a
// short base delay, rank-r backups after base + r*stagger (stagger ≈
// one consensus round-trip).  A timer only fires a proposal while
// uncovered references exist and no own proposal is outstanding, so in
// a fault-free run ONE covering proposal per consensus RTT retires
// every origin's sub-blocks regardless of P — total slots track the
// intake SPAN, which shrinks ~1/P when P replicas ingest concurrently.
// Under loss or a crashed primary the next rank's timer covers the cut
// after one stagger instead of waiting out a single proposer's Paxos
// retry backoff — that is the p99 win at P > 1.
//
// Exactly-once: two racing proposers may reference the SAME sub-block
// in adjacent slots (both saw it uncovered).  Commit-time dedup is
// two-layered and deterministic, because both filters are pure
// functions of the committed prefix: a sub-block reference already
// applied is dropped (counted in dup_refs_dropped); inside fresh
// sub-blocks, each op id is filtered through the applied-id set (the
// §10 double-submit guard at sub-block granularity — an op pooled and
// cut at two origins still applies exactly once).
//
// Recover-on-miss: sub-blocks travel on the payload exchange the
// compact relay uses too (PayloadExchange, net/recover_on_miss.h).  A
// committed reference whose sub-block has not arrived (lost publish,
// partition) parks the slot — strictly head-of-line, like §12 — and
// fetches it: value's proposer first, rotation, short fallback to the
// full reference list.  Publishes are also re-sent by their origin on
// deadline ticks while unreferenced (partition healing), so every
// published sub-block is eventually either referenced or recoverable.
//
// The sub-block lane is PRIMARY-class (not auxiliary): it is
// load-bearing — which references a proposal carries legitimately
// depends on publish arrival order — so it shares the primary Rng/
// tie-break stream.  Determinism per (config, seed) is untouched; the
// P = 1 run is simply a different schedule than the §10 pipeline's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "atbcast/total_order.h"
#include "atomic/ledger.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/opid_table.h"
#include "common/wire.h"
#include "exec/replay_engine.h"
#include "exec/subblock.h"
#include "exec/txpool.h"
#include "net/lane_mux.h"
#include "net/recover_on_miss.h"
#include "net/replica_core.h"

namespace tokensync {

/// The multi-proposer consensus value: a proposer's cut through the
/// uncommitted sub-block DAG, references only.  Spec-independent — the
/// payloads it orders live in the sub-block lane.
struct MpValue {
  ProcessId proposer = 0;
  std::vector<SubBlockRef> refs;  ///< canonical (origin, sub_seq) order

  /// proposer + length prefix + ~16 bytes per reference.
  std::uint64_t wire_size() const { return 4 + 8 + 16 * refs.size(); }

  friend bool operator==(const MpValue&, const MpValue&) = default;
};

/// Multi-proposer pipeline knobs.
struct MultiProposerConfig {
  /// Replicas 0..num_proposers-1 propose reference cuts (clamped to
  /// [1, n]); every replica still cuts and publishes sub-blocks.
  std::size_t num_proposers = 1;
  /// Sub-block size cut (ops per sub-block; the dissemination batch).
  std::size_t subblock_max_ops = 4;
  /// Proposal pacing: the rotating primary fires this many ticks after
  /// waking, rank-r backups kProposeStagger later per rank.
  std::uint64_t propose_base = 4;
};

template <ConcurrentTokenSpec S>
class MultiProposerNode {
 public:
  using Op = typename S::Op;
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;
  using Value = MpValue;
  using Sub = SubBlock<BatchOp>;
  /// Lane 0 the consensus (Paxos) traffic over reference values, lane 1
  /// the sub-block dissemination + recovery lane (primary-class: the
  /// file comment).
  using Mux = LaneMux<PaxosMsg<TobCmd<Value>>, ExchangeMsg<Sub>>;
  using Net = typename Mux::Net;
  using Tob = TotalOrderBcast<Value, typename Mux::template LaneT<0>>;
  using Exchange = PayloadExchange<Sub, typename Mux::template LaneT<1>>;

  /// Rank spacing of the pacing timers: short, so once takeover is
  /// warranted the next backup steps in fast.
  static constexpr std::uint64_t kProposeStagger = 15;
  /// Backup deferral window: a non-primary holds its proposal while a
  /// commit landed within the last this-many ticks (consensus is live
  /// under some proposer — dueling it only adds duplicate slots).  ≈
  /// one decide cycle, so takeover begins exactly when the primary's
  /// in-flight proposal is overdue.  Decoupled from kProposeStagger:
  /// the WINDOW must cover a whole decide, the rank SPACING must not —
  /// coupling them either serializes takeover (long stagger: the tail
  /// op waits out rank·stagger) or invites contention chaos (short
  /// window: backups duel every in-flight decide under loss).
  static constexpr std::uint64_t kProposeBackupAfter = 45;
  /// Re-publish an own sub-block while unreferenced, at most once per
  /// this many ticks (heals lost publishes and partitions; ≈ two
  /// consensus round-trips so the fault-free path never re-sends).
  static constexpr std::uint64_t kRepublishAfter = 80;
  /// TotalOrderBcast re-propose backoff for this runtime's proposals.
  /// Deliberately ABOVE kProposeBackupAfter: when a proposal stalls
  /// (lost round under loss), re-covering its references through the
  /// rotation takeover is cheaper and faster than the origin hammering
  /// its own retry — so the origin retries lazily and the backup path
  /// is the effective recovery.  P = 1 has no backups and pays the full
  /// backoff on every stall; that asymmetry is the leaderless tail win
  /// the E27 bench measures.
  static constexpr std::uint64_t kRetryDelay = 60;

  MultiProposerNode(Net& net, ProcessId self,
                    const typename S::SeqState& initial,
                    MultiProposerConfig cfg, ExecOptions eopts)
      : net_(net), self_(self), cfg_(cfg),
        num_proposers_(std::clamp<std::size_t>(cfg.num_proposers, 1,
                                               net.num_nodes())),
        engine_(std::make_unique<ReplayEngine<S>>(initial, eopts)),
        builder_(pool_, self, cfg.subblock_max_ops), mux_(net, self),
        tob_(mux_.template lane<0>(), self,
             [this](std::uint64_t slot, ProcessId origin, std::uint64_t nonce,
                    const Value& v) { on_commit(slot, origin, nonce, v); },
             kRetryDelay),
        exchange_(mux_.template lane<1>(), self, [this](const Sub& s) {
          on_subblock(s);
        }) {
    pool_.set_origin(self);
    // Re-proposals carry the CURRENT cut: committed references drop
    // out, freshly published ones ride along (total_order.h).  This is
    // an optimization, not the correctness line — a proposal launched
    // before the covering commit's decision ARRIVES still carries stale
    // references, and the commit-time dedup drops them.
    tob_.set_refresh([this](Value& v) {
      if (refresh_enabled_) v.refs = collect_uncovered();
    });
  }

  /// Client intake: pools the op; a full pool cuts a sub-block
  /// immediately (size cut) and publishes it.
  void submit(ProcessId caller, Op op) {
    const OpId id = pool_.submit(caller, std::move(op));
    ++ops_submitted_;
    core_.start_latency(id, net_.now());
    if (auto s = builder_.cut_if_full()) adopt_own(std::move(*s));
  }

  /// Deadline tick (drivers schedule this every
  /// ScenarioConfig::block_deadline): flushes a partial fill,
  /// re-publishes own sub-blocks still unreferenced (bounded by
  /// kRepublishAfter), and re-checks the proposal pacing.
  void on_deadline() {
    if (auto s = builder_.cut()) adopt_own(std::move(*s));
    republish_pending();
    maybe_arm_propose();
  }

  /// Anti-entropy probe (TotalOrderBcast::sync) plus the re-publish
  /// sweep and a pacing nudge: drain rounds run after the deadline ticks
  /// end, and a partition healed late must still get the minority's
  /// sub-blocks republished, referenced and committed.
  void sync() {
    tob_.sync();
    republish_pending();
    maybe_arm_propose();
  }

  /// Test hook: immediately broadcast a covering proposal, bypassing
  /// the pacing timers and the outstanding-proposal gate — the
  /// racing-proposer dedup tests fire two of these at the same tick.
  void propose_now() {
    Value v;
    v.proposer = self_;
    v.refs = collect_uncovered();
    if (v.refs.empty()) return;
    proposal_outstanding_ = true;
    tob_.broadcast(std::move(v));
  }

  // --- the scenario-audit interface (mirrors BlockReplicaNode) ---

  /// Operations submitted here (the settlement audit's unit).
  std::size_t submitted() const noexcept { return ops_submitted_; }
  /// All pooled ops were cut, every own sub-block was committed (via
  /// anyone's reference), and every committed slot has been applied.
  bool all_settled() const {
    return pool_.pending() == 0 && own_pending_.empty() &&
           tob_.all_settled() && parked_.empty();
  }
  std::string history() const { return core_.history(); }
  bool same_history(const MultiProposerNode& ref) const {
    return core_.same_history(ref.core_);
  }
  bool history_prefix_of(const MultiProposerNode& ref) const {
    return core_.history_prefix_of(ref.core_);
  }
  /// Per-OP commit latencies (submit -> local apply of the slot whose
  /// sub-block carried the op; includes pool wait and any
  /// recover-on-miss delay).
  const std::vector<std::uint64_t>& commit_latencies() const noexcept {
    return core_.commit_latencies();
  }

  // --- accounting ---

  const ReplayEngine<S>& engine() const noexcept { return *engine_; }
  bool is_proposer() const noexcept { return self_ < num_proposers_; }
  std::size_t slots_committed() const noexcept { return core_.log().size(); }
  std::size_t ops_committed() const noexcept { return engine_->ops_applied(); }
  std::uint64_t last_commit_time() const noexcept {
    return core_.last_commit_time();
  }
  /// Consensus-value bytes of the slots committed here.
  std::uint64_t proposal_bytes() const noexcept { return proposal_bytes_; }
  /// Fresh sub-block references applied across all committed slots
  /// (numerator of the subblocks_per_slot metric).
  std::uint64_t subblocks_applied() const noexcept {
    return subblocks_applied_;
  }
  /// Duplicate sub-block REFERENCES dropped at commit (racing
  /// proposers; deterministic — a pure function of the committed
  /// reference sequence).
  std::uint64_t dup_refs_dropped() const noexcept { return dup_refs_dropped_; }

  const Exchange& exchange() const noexcept { return exchange_; }
  std::uint64_t miss_recoveries() const noexcept {
    return exchange_.miss_recoveries();
  }
  /// Test hook: suppress publishing so every peer misses every
  /// sub-block and reconstruction must go through kGet.
  void set_publish_enabled(bool enabled) {
    exchange_.set_publish_enabled(enabled);
  }
  /// Test hook: freeze re-proposal refreshing, so a proposal launched
  /// before a covering commit keeps its (now stale) references — the
  /// in-flight-decision race the commit-time dedup guard exists for,
  /// forced deterministically instead of waiting for lossy-link luck.
  void set_refresh_enabled(bool enabled) { refresh_enabled_ = enabled; }

 private:
  /// A freshly cut own sub-block: register its reference, track it until
  /// committed, store and publish it eagerly, wake the pacing.
  void adopt_own(Sub s) {
    note_uncovered(s.ref());
    own_pending_.emplace(s.id(), net_.now() + kRepublishAfter);
    exchange_.publish(std::span(&s, 1));
    maybe_arm_propose();
  }

  /// A peer's sub-block arrived (publish or fetch reply): register its
  /// reference, retry the parked head, wake the pacing.
  void on_subblock(const Sub& s) {
    note_uncovered(s.ref());
    try_apply();
    maybe_arm_propose();
  }

  /// A reference whose payload is now local becomes a proposal
  /// candidate — unless a delivered slot already covers it (its
  /// reference can commit before the payload arrives here).
  void note_uncovered(const SubBlockRef& r) {
    if (known_committed_.contains(r.block_id)) return;
    uncovered_.emplace(std::make_pair(r.origin, r.sub_seq), r);
  }

  /// Known-but-uncommitted references, in canonical (origin, sub_seq)
  /// order by construction (uncovered_ is keyed by it — no sort).
  std::vector<SubBlockRef> collect_uncovered() const {
    std::vector<SubBlockRef> refs;
    refs.reserve(uncovered_.size());
    for (const auto& [key, ref] : uncovered_) refs.push_back(ref);
    return refs;
  }

  bool has_uncovered() const { return !uncovered_.empty(); }

  /// Re-publishes own sub-blocks still unreferenced by any delivered
  /// slot, at most once per kRepublishAfter ticks each (heals lost
  /// publishes and partitions).
  void republish_pending() {
    for (auto& [id, next_at] : own_pending_) {
      if (known_committed_.contains(id) || net_.now() < next_at) continue;
      next_at = net_.now() + kRepublishAfter;
      if (const Sub* s = exchange_.find(id)) {
        exchange_.publish(std::span(s, 1));
      }
    }
  }

  /// Rank of this proposer in the current rotation round: 0 = primary
  /// (delivered_count % P), r = r-th backup.
  std::uint64_t propose_delay() const {
    const std::size_t p = num_proposers_;
    const std::size_t primary = tob_.delivered_count() % p;
    const std::size_t rank = (self_ + p - primary) % p;
    return cfg_.propose_base + rank * kProposeStagger;
  }

  bool is_current_primary() const {
    return self_ == tob_.delivered_count() % num_proposers_;
  }

  /// Arms the pacing timer when this replica might need to propose: a
  /// proposer, uncovered references exist, nothing of ours in flight.
  /// Earliest-wins: a desired fire time sooner than the pending timer's
  /// supersedes it (the generation check retires the stale one) — a
  /// commit that rotates the primary onto us must not wait out a timer
  /// armed back when we were a far backup — while a LATER desired time
  /// never postpones a pending timer, so a steady publish stream cannot
  /// push the fire time forever.
  void maybe_arm_propose() {
    if (!is_proposer() || proposal_outstanding_ || !has_uncovered()) return;
    const std::uint64_t at = net_.now() + propose_delay();
    if (propose_timer_pending_ && at >= propose_timer_at_) return;
    propose_timer_pending_ = true;
    propose_timer_at_ = at;
    const std::uint64_t gen = ++propose_gen_;
    net_.set_timer(self_, propose_delay(),
                   [this, gen] { on_propose_timer(gen); });
  }

  void on_propose_timer(std::uint64_t gen) {
    if (gen != propose_gen_) return;  // superseded by a sooner arm
    propose_timer_pending_ = false;
    if (proposal_outstanding_) return;  // own delivery re-arms
    if (!has_uncovered()) return;
    // Backup deferral (the fewer-slots half of the pacing): a commit
    // within the last backup window proves consensus is live under
    // some proposer — a non-primary firing now would only duel it and
    // add a redundant, mostly-duplicate slot.  Defer one rank delay;
    // the primary itself always proposes (it IS the live stream), and
    // once commits stop flowing for a window, anyone covers.
    if (!is_current_primary() &&
        net_.now() < last_decided_at_ + kProposeBackupAfter) {
      maybe_arm_propose();
      return;
    }
    propose_now();
  }

  void on_commit(std::uint64_t slot, ProcessId origin, std::uint64_t nonce,
                 const Value& v) {
    (void)nonce;
    for (const SubBlockRef& r : v.refs) {
      known_committed_.insert(r.block_id);
      uncovered_.erase(std::make_pair(r.origin, r.sub_seq));
    }
    last_decided_at_ = net_.now();
    if (origin == self_) proposal_outstanding_ = false;
    parked_.push_back(Parked{slot, origin, v});
    try_apply();
    maybe_arm_propose();
  }

  /// Applies parked slots strictly in commit order; the head blocks the
  /// tail, so a fetch stall delays applies without reordering them.
  /// The flatten follows the committed value's reference order (the
  /// proposer emitted it canonically), and both dedup filters are pure
  /// functions of the committed prefix — every replica drops the same
  /// references and ops at the same slots.
  void try_apply() {
    while (!parked_.empty()) {
      Parked& h = parked_.front();
      std::vector<OpId> missing;
      std::vector<OpId> all;
      for (const SubBlockRef& r : h.value.refs) {
        all.push_back(r.block_id);
        // A duplicate reference needs no payload — it will be dropped.
        if (applied_subs_.contains(r.block_id)) continue;
        if (!exchange_.find(r.block_id)) missing.push_back(r.block_id);
      }
      if (!missing.empty()) {
        exchange_.fetch(h.slot, h.value.proposer, std::move(missing),
                        std::move(all));
        return;
      }
      exchange_.cancel(h.slot);
      proposal_bytes_ += wire_size_of(h.value);
      Block<S> merged;
      std::vector<OpId> fresh_ops;
      for (const SubBlockRef& r : h.value.refs) {
        if (!applied_subs_.insert(r.block_id)) {
          ++dup_refs_dropped_;
          continue;
        }
        ++subblocks_applied_;
        own_pending_.erase(r.block_id);
        const Sub* s = exchange_.find(r.block_id);
        TS_EXPECTS(s != nullptr);
        for (const TaggedOp<BatchOp>& t : s->ops) {
          // An op pooled and cut at two origins applies once (the
          // §10 applied-id guard at sub-block granularity).
          if (applied_ids_.insert(t.id)) {
            merged.ops.push_back(t.op);
            fresh_ops.push_back(t.id);
          }
        }
      }
      core_.append(h.slot, h.origin, net_.now(), engine_->apply(merged));
      for (OpId id : fresh_ops) core_.finish_latency(id, net_.now());
      parked_.pop_front();
    }
  }

  struct Parked {
    std::uint64_t slot = 0;
    ProcessId origin = 0;
    Value value;
  };

  Net& net_;
  ProcessId self_;
  MultiProposerConfig cfg_;
  std::size_t num_proposers_;
  TxPool<S> pool_;
  std::unique_ptr<ReplayEngine<S>> engine_;
  SubBlockBuilder<S> builder_;
  Mux mux_;
  Tob tob_;
  Exchange exchange_;
  ReplicaCore core_;
  std::deque<Parked> parked_;
  /// References with a LOCAL payload that no delivered slot covers yet,
  /// canonical order — the proposal candidate set.
  std::map<std::pair<ProcessId, std::uint32_t>, SubBlockRef> uncovered_;
  /// Sub-block ids referenced by any DELIVERED slot (including parked
  /// ones) — the proposal/re-publish "already ordered" filter.  Local
  /// knowledge only; the committed-prefix filters below are what
  /// determinism rests on.
  OpIdSet known_committed_;
  /// Sub-block ids APPLIED by the committed prefix (dup-reference
  /// filter) and op ids applied (dup-op filter).
  OpIdSet applied_subs_;
  OpIdSet applied_ids_;
  /// Own cut sub-blocks not yet committed -> earliest re-publish time
  /// (ordered map: the re-publish sweep iterates it).
  std::map<OpId, std::uint64_t> own_pending_;
  bool proposal_outstanding_ = false;
  bool refresh_enabled_ = true;
  bool propose_timer_pending_ = false;
  std::uint64_t propose_timer_at_ = 0;
  std::uint64_t propose_gen_ = 0;
  std::uint64_t last_decided_at_ = 0;  ///< newest decision seen (pacing)
  std::size_t ops_submitted_ = 0;
  std::uint64_t proposal_bytes_ = 0;
  std::uint64_t subblocks_applied_ = 0;
  std::uint64_t dup_refs_dropped_ = 0;
};

}  // namespace tokensync
