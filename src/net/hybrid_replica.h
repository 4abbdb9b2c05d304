// HybridReplicaNode — synchronization-tiered replication: a
// consensus-free ERB fast lane for CN = 1 operations next to the Paxos
// consensus lane, merged into one deterministic committed history
// (DESIGN.md §11; the ISSUE 5 tentpole), with the ISSUE 6 bytes-on-wire
// levers on both lanes.
//
// The paper's point is that "pay for consensus" is per-OPERATION, not
// per-object: owner-signed transfers (consensus number 1) need only
// per-sender FIFO reliable broadcast, while approve/transferFrom races
// need genuine consensus.  This runtime routes each submitted operation
// by SyncTraits<S> (objects/sync_class.h):
//
//   fast lane  — caller == submitting replica AND classify() == kFast:
//                the op rides the eager reliable broadcast (bcast/erb.h),
//                consuming ZERO consensus slots;
//   slow lane  — everything else: the op rides the Paxos-backed
//                total-order broadcast (atbcast/total_order.h), and its
//                consensus value carries a FRONTIER — the proposer's
//                per-origin ERB delivery cut.
//
// All lanes share ONE SimNet through the LaneMux (net/lane_mux.h), so
// the whole fault matrix (loss, duplication, partition+heal, minority
// crash) hits them at once.
//
// THE MERGE RULE (what makes the two-lane history deterministic):
// committed consensus slots are barriers.  When slot s (value v, frontier
// F) commits, a replica first waits until its ERB streams reach F, then
// applies — as ONE block through the ReplayEngine — the epoch
//
//   [ all delivered-but-unapplied fast ops with seq < F[origin],
//     in canonical (origin, seq) order ]  ++  [ v's operation ]
//
// and appends the block's rendering as the slot's log entry.  Because F
// is part of the DECIDED value, every replica cuts the identical epoch
// at the identical point; because the epoch is a ReplayEngine block, the
// ConflictPlanner orders conflicting σ-footprints inside it and the
// result is byte-identical for any replay worker count (the merge
// barrier literally reuses the planner).  Fast ops beyond every decided
// frontier apply in one terminal epoch at finalize() — for a
// pure-transfer run (zero consensus slots) the entire history is that
// canonical terminal epoch, a pure function of the submitted operations,
// independent of replicas, fault profile and replay parallelism.
//
// ISSUE 6 — the bytes levers (DESIGN.md §12):
//
//   * ERB BATCHING (HybridConfig::erb_batch / kErbDeadline).  The fast
//     lane broadcasts one FastBatch per size/deadline cut instead of one
//     message per op — the §10 cut rule transplanted onto the O(n²)
//     flood.  A batch is one wire message carrying ONE client signature
//     (same origin, one signer), so the per-broadcast header, the n² ack
//     traffic and the kOpAuthBytes all amortize over the batch.  ERB
//     sequence numbers, the frontier vector and the merge cursors become
//     BATCH-granular; each batch unrolls in submission order inside its
//     epoch, so per-origin FIFO and the origin-major canonical order are
//     untouched.  The deadline cut is a node-local one-shot callback
//     (armed when the buffer becomes non-empty), so no op waits more
//     than kErbDeadline for its cut; an empty buffer's tick broadcasts
//     nothing.
//   * COMPACT SLOW LANE (HybridConfig::relay_mode).  Under
//     RelayMode::kCompact a slow command's consensus value carries only
//     {frontier, OpId}: the proposer pushes the full (signed) payload
//     once on the auxiliary relay lane (net/recover_on_miss.h), every
//     phase of every Paxos slot ships the 8-byte reference, and a
//     replica that committed the slot without the payload recovers it
//     with the exchange's kGet round-trip.  Relay traffic is auxiliary-class
//     (second Rng/tie-break stream), so the primary schedule — ERB and
//     Paxos alike — is bit-identical across relay modes; recovery can
//     only delay a barrier's local APPLY (the barrier queue parks),
//     never change committed content or order: histories are
//     byte-identical between kFull and kCompact.
//
// Liveness of the barrier rests on ERB agreement (crash-stop model): a
// frontier only references fast batches its proposer DELIVERED, and if
// any correct node delivered an ERB message every correct node
// eventually does.  The one theoretical gap — a proposer that delivers
// its own fast batch, wins a slot referencing it, then crashes before
// any send survives link loss — needs crash + loss in one run, which
// the fault matrix (and the crash-stop model's fair-lossy assumption
// with retransmission until ack) does not produce.
//
// ISSUE 9 — the Byzantine fast lane (DESIGN.md §15):
// `HybridConfig::fast_lane` swaps the CN-1 lane's broadcast primitive.
// Under FastLane::kBracha the fast lane rides Bracha reliable broadcast
// (bcast/bracha.h): same FIFO frontier surface, same merge rule, but a
// slot delivers only behind a 2f+1 READY quorum, so up to f < n/3 LYING
// replicas cannot split what correct replicas deliver.  The one
// behavioral difference the runtime absorbs: Bracha does NOT deliver
// the local copy synchronously inside broadcast() (ERB does), so the
// batch counter advances at the cut, not at delivery, and a fast op's
// commit latency includes the quorum round-trips.
//
// RESPEND DEFENSE on top of it: when the Bracha lane catches an origin
// signing two payloads for one (origin, seq) — a client double-spending
// the same intake slot — the node (a) records the canonical
// ConflictProof, (b) quarantines the origin in QuarantineSyncTraits so
// every later fast-lane submission it makes here escalates to the
// consensus lane, and (c) relays the proof over a dedicated
// auxiliary-class ERB lane (lane 4) so replicas that never saw both
// payloads on the wire — detection evidence can route past a node —
// still install the identical proof.  The proof lane is aux-class like
// the compact relay: it cannot perturb the primary schedule, so a run
// with an equivocator commits the byte-identical history of the same
// run without one — equivocation changes the PROOF ledger, never the
// token ledger, and at most one branch (the majority SEND, by quorum
// intersection) ever commits anywhere.
//
// Fast-lane semantics: an op's response is computed at its canonical
// merge position (the spec's Δ, same as every other runtime — an
// underfunded transfer returns FALSE deterministically everywhere).
// Commit latency for fast ops is submit -> local ERB delivery OF ITS
// BATCH: delivery fixes the batch's canonical position irrevocably,
// which is the fast lane's commit point — so batching trades per-op
// latency (up to the cut wait) for bytes, and the benchmarks report
// both sides of that trade.  Slow-op latency is submit -> barrier apply
// (including any compact-relay recovery wait).
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
#include "bcast/bracha.h"
#include "bcast/erb.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/wire.h"
#include "exec/block.h"
#include "exec/exec_specs.h"
#include "exec/replay_engine.h"
#include "exec/snapshot.h"
#include "net/lane_mux.h"
#include "net/recover_on_miss.h"
#include "net/replica_core.h"
#include "net/simnet.h"
#include "objects/sync_class.h"

namespace tokensync {

/// Conflict-proof relay traffic is auxiliary-class (common/wire.h): like
/// compact-relay recovery, proof gossip must not perturb the primary
/// schedule — histories have to stay byte-identical with and without an
/// equivocator in the run.
template <typename P>
struct is_aux_wire<ErbMsg<ConflictProof<P>>> : std::true_type {};

/// Hybrid runtime knobs (the lane split itself is SyncTraits-driven).
struct HybridConfig {
  /// Slow-lane relay policy: full payloads in every Paxos phase, or
  /// op-ID references with recover-on-miss (history-invariant).
  RelayMode relay_mode = RelayMode::kFull;
  /// Fast-lane size cut: own fast ops per ERB broadcast.  1 = the
  /// op-per-message baseline (no deadline callback is ever armed).
  std::size_t erb_batch = 1;
  /// Route EVERY operation through the consensus lane (SyncTraits
  /// ignored) — the all-Paxos baseline the benchmarks compare the lane
  /// split against (same script, same network, zero fast commits).
  bool force_consensus = false;
  /// Which broadcast primitive backs the fast lane: crash-tolerant ERB
  /// (default) or Byzantine-tolerant Bracha with equivocation detection
  /// (DESIGN.md §15).
  FastLane fast_lane = FastLane::kErb;
};

template <ConcurrentTokenSpec S>
class HybridReplicaNode {
 public:
  using Op = typename S::Op;
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;

  /// Fast-lane payload: one same-origin run of owner-signed operations
  /// (the submitting replica speaks for exactly one account, so a batch
  /// has one caller and ONE signature).
  struct FastBatch {
    ProcessId caller = 0;
    std::vector<Op> ops;

    /// caller + length prefix + payloads + one shared signature.
    std::uint64_t wire_size() const {
      std::uint64_t bytes = 4 + 8 + kOpAuthBytes;
      for (const Op& op : ops) bytes += wire_size_of(op);
      return bytes;
    }

    friend bool operator==(const FastBatch&, const FastBatch&) = default;
    /// Total order (requires Op<=>): Bracha keys its per-slot quorum
    /// maps by payload and canonicalizes ConflictProof branches by it.
    friend auto operator<=>(const FastBatch&, const FastBatch&) = default;
  };

  /// Slow-lane payload: the operation plus the proposer's ERB delivery
  /// frontier — the merge barrier's cut (file comment).  Under compact
  /// relay the op stays home (announced on the relay lane) and only the
  /// 8-byte `id` travels; the frontier is the barrier semantics itself
  /// and always rides in the decided value.
  struct SlowCmd {
    ProcessId caller = 0;
    Op op{};
    std::vector<std::uint64_t> frontier;
    bool compact = false;
    OpId id = 0;

    std::uint64_t wire_size() const {
      const std::uint64_t common = 8 + 8 * frontier.size();
      return compact ? common + 8
                     : common + 4 + wire_size_of(op) + kOpAuthBytes;
    }

    friend bool operator==(const SlowCmd&, const SlowCmd&) = default;
  };

  using FastMsg = ErbMsg<FastBatch>;
  using SlowMsg = PaxosMsg<TobCmd<SlowCmd>>;
  using Proof = ConflictProof<FastBatch>;
  /// Lanes 0-2 are the ISSUE 5/6 stack; lane 3 is the Bracha fast lane
  /// (active instead of lane 0 under FastLane::kBracha) and lane 4 the
  /// aux-class conflict-proof relay — all five over ONE SimNet.
  using Mux = LaneMux<FastMsg, SlowMsg, ExchangeMsg<TaggedOp<BatchOp>>,
                      BrachaMsg<FastBatch>, ErbMsg<Proof>>;
  using Net = typename Mux::Net;
  using Erb = ErbNode<FastBatch, typename Mux::template LaneT<0>>;
  using Tob = TotalOrderBcast<SlowCmd, typename Mux::template LaneT<1>>;
  using Relay =
      PayloadExchange<TaggedOp<BatchOp>, typename Mux::template LaneT<2>>;
  using Bracha = BrachaNode<FastBatch, typename Mux::template LaneT<3>>;
  using ProofRelay = ErbNode<Proof, typename Mux::template LaneT<4>>;

  /// Fast-lane deadline cut period (simulated time): a partial batch
  /// never waits longer than this for its broadcast.
  static constexpr std::uint64_t kErbDeadline = 25;

  HybridReplicaNode(Net& net, ProcessId self,
                    const typename S::SeqState& initial, ExecOptions eopts,
                    HybridConfig hcfg = {})
      : net_(net), self_(self), cfg_(hcfg), mux_(net, self),
        engine_(std::make_unique<ReplayEngine<S>>(initial, eopts)),
        delivered_(net.num_nodes(), 0), applied_(net.num_nodes(), 0),
        buf_(net.num_nodes()),
        erb_(mux_.template lane<0>(), self,
             [this](ProcessId origin, std::uint64_t seq, const FastBatch& b) {
               on_fast_deliver(origin, seq, b);
             }),
        tob_(mux_.template lane<1>(), self,
             [this](std::uint64_t slot, ProcessId origin,
                    std::uint64_t nonce, const SlowCmd& c) {
               on_slow_commit(slot, origin, nonce, c);
             }),
        relay_(mux_.template lane<2>(), self,
               [this](const TaggedOp<BatchOp>&) { try_apply(); }),
        bracha_(mux_.template lane<3>(), self,
                /*f=*/(net.num_nodes() - 1) / 3,
                [this](ProcessId origin, std::uint64_t seq,
                       const FastBatch& b) { on_fast_deliver(origin, seq, b); },
                [this](const Proof& proof) { on_conflict(proof); }),
        proof_relay_(mux_.template lane<4>(), self,
                     [this](ProcessId, std::uint64_t, const Proof& proof) {
                       install_proof(proof);
                     }) {
    TS_EXPECTS(cfg_.erb_batch >= 1);
  }

  HybridReplicaNode(const HybridReplicaNode&) = delete;
  HybridReplicaNode& operator=(const HybridReplicaNode&) = delete;

  /// Client intake: classifies and routes.  The fast lane additionally
  /// requires caller == self — this replica must SPEAK FOR the caller's
  /// account, because per-sender FIFO only orders one broadcaster's
  /// stream (objects/sync_class.h).
  void submit(ProcessId caller, Op op) {
    core_.note_submission();
    // QuarantineSyncTraits wraps the static classifier: an origin with
    // an installed ConflictProof has lost fast-lane privileges here.
    const bool fast =
        !cfg_.force_consensus && caller == self_ &&
        quarantine_.classify(caller, op) == SyncClass::kFast;
    if (fast) {
      // The op's latency window opens now; it closes when its BATCH is
      // delivered locally (the fast lane's commit point) — so the cut
      // wait is part of the measured cost of batching.
      core_.start_latency(fast_key(fast_ops_submitted_++), net_.now());
      fast_buf_.push_back(std::move(op));
      if (fast_buf_.size() >= cfg_.erb_batch) {
        flush_fast();
      } else if (!fast_timer_armed_) {
        // Deadline cut: one-shot, armed when the buffer becomes
        // non-empty.  A size cut may empty the buffer first — then the
        // tick finds nothing and broadcasts nothing.
        fast_timer_armed_ = true;
        net_.set_timer(self_, kErbDeadline, [this] {
          fast_timer_armed_ = false;
          if (!fast_buf_.empty()) flush_fast();
        });
      }
    } else {
      SlowCmd c;
      c.caller = caller;
      c.frontier = delivered_;
      if (cfg_.relay_mode == RelayMode::kCompact) {
        c.compact = true;
        c.id = make_op_id(self_, slow_proposed_++);
        const TaggedOp<BatchOp> t{c.id, BatchOp{caller, op}};
        relay_.publish(std::span(&t, 1));
      } else {
        c.op = std::move(op);
      }
      const std::uint64_t nonce = tob_.broadcast(std::move(c));
      core_.start_latency(slow_key(nonce), net_.now());
    }
  }

  /// Anti-entropy probe (slow lane; the ERB's periodic retransmission IS
  /// the fast lane's anti-entropy).
  void sync() { tob_.sync(); }

  /// Applies the terminal epoch: every delivered-but-unapplied fast op,
  /// in canonical (origin, seq) order, as one block.  Harnesses call
  /// this once per correct replica after draining to convergence; a
  /// crashed replica never finalizes (its history stays a prefix).
  /// Idempotent — an empty terminal epoch appends nothing.
  void finalize() {
    Blk blk = cut_epoch(delivered_);
    if (blk.empty()) return;
    fast_lane_ops_ += blk.size();
    // Label: one past the highest consensus slot this replica applied
    // (slots that dedup'd away leave gaps, so slot COUNT could collide
    // with a real slot number), origin 0 — both replica-independent, so
    // the terminal entry renders identically everywhere.
    const std::uint64_t label =
        core_.log().empty() ? 0 : core_.log().back().slot + 1;
    core_.append(label, /*origin=*/0, net_.now(), engine_->apply(blk));
  }

  // --- the scenario-audit interface (ReplicaCore surface) ---

  std::size_t submitted() const noexcept { return core_.submitted(); }
  std::string history() const { return core_.history(); }
  bool same_history(const HybridReplicaNode& ref) const {
    return core_.same_history(ref.core_);
  }
  bool history_prefix_of(const HybridReplicaNode& ref) const {
    return core_.history_prefix_of(ref.core_);
  }
  std::uint64_t last_commit_time() const noexcept {
    return core_.last_commit_time();
  }
  const std::vector<std::uint64_t>& commit_latencies() const noexcept {
    return core_.commit_latencies();
  }
  /// Every submission of THIS replica reached its commit point here:
  /// slow-lane payloads all decided and applied (no parked barrier —
  /// which also certifies every compact payload was recovered), no fast
  /// op still waiting for its cut, and every own fast batch applied
  /// (which implies finalize() ran if any fast op was submitted).
  bool all_settled() const noexcept {
    return tob_.all_settled() && barrier_queue_.empty() &&
           fast_buf_.empty() &&
           applied_[self_] == fast_batches_submitted_;
  }

  // --- lane accounting ---

  const ReplayEngine<S>& engine() const noexcept { return *engine_; }
  /// Consensus slots committed here (each = one barrier block).
  std::size_t slots_committed() const noexcept { return slots_committed_; }
  /// Ops applied here, both lanes.
  std::size_t ops_committed() const noexcept { return engine_->ops_applied(); }
  /// Fast-lane ops applied here (inside barrier epochs + terminal epoch).
  std::size_t fast_lane_ops() const noexcept { return fast_lane_ops_; }
  /// Fast batches this replica broadcast (ops / batches = the achieved
  /// amortization the E19 sweep reports).
  std::size_t fast_batches() const noexcept { return fast_batches_submitted_; }

  // --- Byzantine-tier accounting (DESIGN.md §15) ---

  /// Installed conflict proofs, keyed by (origin, seq).  Canonical form
  /// means the acceptance check "every correct replica holds the
  /// identical proof" is literal map equality across replicas.
  const std::map<std::pair<ProcessId, std::uint64_t>, Proof>&
  conflict_proofs() const noexcept {
    return proofs_;
  }
  bool is_quarantined(ProcessId origin) const {
    return quarantine_.is_quarantined(origin);
  }
  std::size_t num_quarantined() const {
    return quarantine_.num_quarantined();
  }
  /// Fast batches applied here whose slot had a conflict proof — the
  /// surviving branches of detected double-spends (one per proof when
  /// conservation holds).
  std::size_t equivocation_commits() const noexcept {
    return equivocation_commits_;
  }

  // --- relay accounting / test hooks ---

  const Relay& relay() const noexcept { return relay_; }
  std::uint64_t miss_recoveries() const noexcept {
    return relay_.miss_recoveries();
  }
  /// Consensus-value bytes of the slots committed here.
  std::uint64_t proposal_bytes() const noexcept { return proposal_bytes_; }

  /// The replica's image after finalize(), as a Snapshot<S> (exec/
  /// snapshot.h): the boundary is one past the last applied barrier
  /// label, the frontier is the per-origin ERB batch frontier, and the
  /// applied-id list is empty (the hybrid lanes have no block-replica
  /// intake identity).  Two correct replicas that converged and
  /// finalized hold snapshots with EQUAL content hashes — the hash-based
  /// state-agreement check the recovery tests reuse across runtimes.
  Snapshot<S> terminal_snapshot() const {
    Snapshot<S> snap;
    snap.next_slot =
        core_.log().empty() ? 0 : core_.log().back().slot + 1;
    snap.state = engine_->ledger().snapshot();
    snap.origin_frontier = applied_;
    return snap;
  }
  /// Test hook: suppress relay pushes so every peer's barrier must
  /// recover its payload through kGet.
  void set_publish_enabled(bool enabled) {
    relay_.set_publish_enabled(enabled);
  }

 private:
  using Blk = Block<S>;

  struct PendingBarrier {
    std::uint64_t slot = 0;
    ProcessId origin = 0;
    std::uint64_t nonce = 0;
    SlowCmd cmd;
  };

  // Latency keys, lane-tagged so fast-op indices and TOB nonces cannot
  // collide in the shared ReplicaCore map.
  static std::uint64_t fast_key(std::uint64_t i) { return i * 2 + 1; }
  static std::uint64_t slow_key(std::uint64_t nonce) { return nonce * 2; }

  /// Size/deadline cut: broadcast the buffered run as one FastBatch on
  /// the configured lane.  The batch counter advances HERE (not at
  /// delivery): ERB delivers the local copy synchronously inside
  /// broadcast(), Bracha only behind the 2f+1 READY quorum — counting
  /// at the cut keeps all_settled() meaning the same thing on both
  /// lanes ("every own batch reached its commit point").  The buffered
  /// ops' latency windows still close at local delivery.
  void flush_fast() {
    FastBatch b;
    b.caller = self_;
    b.ops = std::move(fast_buf_);
    fast_buf_.clear();
    ++fast_batches_submitted_;
    const std::uint64_t seq = cfg_.fast_lane == FastLane::kBracha
                                  ? bracha_.broadcast(std::move(b))
                                  : erb_.broadcast(std::move(b));
    TS_ASSERT(seq == fast_batches_submitted_ - 1);
  }

  void on_fast_deliver(ProcessId origin, std::uint64_t seq,
                       const FastBatch& b) {
    TS_ASSERT(seq == delivered_[origin]);  // per-sender FIFO, both lanes
    ++delivered_[origin];
    if (origin == self_) {
      for (std::size_t i = 0; i < b.ops.size(); ++i) {
        core_.finish_latency(fast_key(fast_ops_finished_++), net_.now());
      }
    }
    buf_[origin].push_back(b);
    try_apply();  // a parked barrier may now have its frontier
  }

  /// Local detection: the Bracha lane saw two origin-signed payloads
  /// for one slot.  Install (first detection wins; the proof is
  /// canonical so every detector builds the same record) and relay it
  /// on the aux proof lane — ERB's eager re-broadcast + retransmission
  /// makes the proof reach every correct replica even when the raw
  /// equivocation evidence didn't.
  void on_conflict(const Proof& proof) {
    if (install_proof(proof)) proof_relay_.broadcast(proof);
  }

  /// Idempotent proof intake (local detection or proof relay):
  /// remembers the proof and quarantines the origin.
  bool install_proof(const Proof& proof) {
    const auto key = std::pair{proof.origin, proof.seq};
    if (!proofs_.emplace(key, proof).second) return false;
    quarantine_.quarantine(proof.origin);
    return true;
  }

  void on_slow_commit(std::uint64_t slot, ProcessId origin,
                      std::uint64_t nonce, const SlowCmd& c) {
    TS_ASSERT(c.frontier.size() == delivered_.size());
    barrier_queue_.push_back(PendingBarrier{slot, origin, nonce, c});
    try_apply();
  }

  /// Applies every head barrier whose frontier the ERB streams have
  /// reached AND whose payload is at hand, in slot order (TotalOrderBcast
  /// delivers contiguously, and a parked head blocks everything behind
  /// it — total order is preserved through the merge).
  void try_apply() {
    while (!barrier_queue_.empty()) {
      const PendingBarrier& head = barrier_queue_.front();
      for (ProcessId o = 0; o < delivered_.size(); ++o) {
        if (delivered_[o] < head.cmd.frontier[o]) return;  // park: frontier
      }
      const TaggedOp<BatchOp>* slow_op = nullptr;
      if (head.cmd.compact) {
        slow_op = relay_.find(head.cmd.id);
        if (!slow_op) {  // park: payload in flight (recover-on-miss)
          relay_.fetch(head.cmd.id, head.origin, {head.cmd.id},
                       {head.cmd.id});
          return;
        }
      }
      Blk blk = cut_epoch(head.cmd.frontier);
      fast_lane_ops_ += blk.size();
      blk.ops.push_back(head.cmd.compact
                            ? slow_op->op
                            : BatchOp{head.cmd.caller, head.cmd.op});
      if (head.cmd.compact) relay_.cancel(head.cmd.id);
      proposal_bytes_ += wire_size_of(head.cmd);
      core_.append(head.slot, head.origin, net_.now(),
                   engine_->apply(blk));
      ++slots_committed_;
      if (head.origin == self_) {
        core_.finish_latency(slow_key(head.nonce), net_.now());
      }
      barrier_queue_.pop_front();
    }
  }

  /// Drains the fast buffers up to `frontier` (per origin, in BATCHES; a
  /// frontier older than what a previous barrier already consumed drains
  /// nothing — epochs only move forward) in canonical (origin, seq)
  /// order, unrolling each batch's ops in submission order.
  Blk cut_epoch(const std::vector<std::uint64_t>& frontier) {
    Blk blk;
    for (ProcessId o = 0; o < buf_.size(); ++o) {
      const std::uint64_t upto =
          std::min<std::uint64_t>(frontier[o], delivered_[o]);
      while (applied_[o] < upto) {
        FastBatch& b = buf_[o].front();
        // A batch whose slot carries a ConflictProof is the SURVIVING
        // branch of a detected double-spend (agreement delivered the
        // same single branch everywhere) — count it so reports can pin
        // "exactly one branch committed".
        if (proofs_.contains(std::pair{o, applied_[o]})) {
          ++equivocation_commits_;
        }
        for (Op& op : b.ops) {
          blk.ops.push_back(BatchOp{b.caller, std::move(op)});
        }
        buf_[o].pop_front();
        ++applied_[o];
      }
    }
    return blk;
  }

  Net& net_;
  ProcessId self_;
  HybridConfig cfg_;
  Mux mux_;
  std::unique_ptr<ReplayEngine<S>> engine_;  // pinned (replay_engine.h)
  std::vector<std::uint64_t> delivered_;  ///< per-origin ERB frontier (batches)
  std::vector<std::uint64_t> applied_;    ///< per-origin merge cursor (batches)
  std::vector<std::deque<FastBatch>> buf_;  ///< delivered, unapplied
  Erb erb_;
  Tob tob_;
  Relay relay_;
  Bracha bracha_;
  ProofRelay proof_relay_;
  QuarantineSyncTraits<S> quarantine_;
  std::map<std::pair<ProcessId, std::uint64_t>, Proof> proofs_;
  std::size_t equivocation_commits_ = 0;
  std::deque<PendingBarrier> barrier_queue_;
  ReplicaCore core_;
  std::vector<Op> fast_buf_;  ///< own fast ops awaiting their cut
  bool fast_timer_armed_ = false;
  std::size_t fast_ops_submitted_ = 0;
  std::size_t fast_ops_finished_ = 0;
  std::size_t fast_batches_submitted_ = 0;
  std::size_t fast_lane_ops_ = 0;
  std::size_t slots_committed_ = 0;
  std::uint64_t slow_proposed_ = 0;
  std::uint64_t proposal_bytes_ = 0;
};

}  // namespace tokensync
