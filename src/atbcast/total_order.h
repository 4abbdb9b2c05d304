// Total-order (atomic) broadcast over the multi-instance Paxos engine.
//
// The consensus-free AtBcastNode in this directory shows what FIFO
// reliable broadcast alone can replicate (CN = 1 asset transfer); this
// file is the other end of the hierarchy: a slot-per-message Paxos log
// (acceptor group = all nodes) that delivers every broadcast payload in
// the SAME total order at every correct replica — the substrate the
// ReplicaNode runtime (net/replica.h) uses to replicate arbitrary token
// state machines whose operations do NOT commute.
//
// Protocol: each node numbers its payloads with a local nonce and keeps
// proposing its oldest pending payload at the lowest slot it does not yet
// know to be decided.  Losing a slot just moves the proposal to the next
// one; Paxos value adoption can therefore decide the same (origin, nonce)
// command in two different slots, so delivery deduplicates by submission
// id — deterministically, because every replica processes slots in the
// same order.  Delivery is contiguous in slot order (a decided slot parks
// until all earlier slots are known).  The decided log is the Paxos
// engine's own: this layer keeps no second copy of any decision.
//
// One payload in flight per node: a node proposes its next payload only
// after the previous one landed, so each origin's nonces deliver in
// order.  Three things rest on that per-origin FIFO: callers like the
// replicated token race (write before race step); recovery, whose
// snapshots record the per-origin nonce frontier as an exact summary of
// what the delivered prefix covers (origin_frontiers()); and the dedup,
// which reads that frontier alone (delivery asserts each nonce is one
// above it).
//
// Catch-up (anti-entropy) is query-driven and self-terminating:
//   * gap repair    — learning slot s while slot s' < s is unknown sends
//                     a kQuery for every missing earlier slot;
//   * frontier walk — while decided slots sit beyond the contiguous
//                     prefix, one kQuery for the next undelivered slot;
//                     each answer extends the prefix and repeats the
//                     walk.  Gapless commits send nothing extra.
// Together these heal kDecide disseminations lost to drops or partitions
// without timers and without flooding a quiescent network; sync() exposes
// an unconditional frontier query so scenario drivers can force
// convergence at the end of a run (a replica that missed the final
// decisions has no local gap evidence to react to).
//
// Guarantees (crash-stop, majority of nodes correct): agreement and total
// order from Paxos quorum intersection, unconditionally; liveness under
// eventual synchrony (the engine's randomized retry backoff), with a
// sender's pending payloads surviving arbitrary drop/duplication rates
// and partitions, resuming once a majority is reachable again.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "dyntoken/paxos.h"
#include "net/simnet.h"

namespace tokensync {

/// A broadcast command: `payload` wrapped with its submission identity.
template <typename Payload>
struct TobCmd {
  ProcessId origin = 0;
  std::uint64_t nonce = 0;  ///< per-origin, 1-based; 0 = empty slot value
  Payload payload{};

  /// Submission identity (origin + nonce) plus the payload's own bytes;
  /// this is a consensus VALUE, so no framing constant of its own — the
  /// PaxosMsg that carries it already pays the header.
  std::uint64_t wire_size() const { return 12 + wire_size_of(payload); }

  friend bool operator==(const TobCmd&, const TobCmd&) = default;
};

/// One node of the Paxos-backed total-order broadcast.
///
/// `NetT` defaults to the plain SimNet carrying this broadcast's Paxos
/// messages; the hybrid replica runtime substitutes a LaneNet
/// (net/lane_mux.h) so the consensus lane shares one simulated network
/// with the ERB fast lane.
template <typename Payload,
          typename NetT = SimNet<PaxosMsg<TobCmd<Payload>>>>
class TotalOrderBcast {
 public:
  using Cmd = TobCmd<Payload>;
  using Net = NetT;
  /// Called exactly once per committed command, in slot order, with the
  /// same (slot, origin, nonce, payload) sequence on every replica.
  /// `payload` refers into the decided log: a callback that can truncate
  /// the log (truncate_below) copies what it keeps before it does.
  using Deliver = std::function<void(std::uint64_t slot, ProcessId origin,
                                     std::uint64_t nonce, const Payload&)>;

  TotalOrderBcast(Net& net, ProcessId self, Deliver deliver,
                  std::uint64_t retry_delay = 40)
      : net_(net), self_(self), deliver_(std::move(deliver)),
        everyone_(net.num_nodes()), origin_frontier_(net.num_nodes(), 0) {
    for (ProcessId p = 0; p < everyone_.size(); ++p) everyone_[p] = p;
    paxos_ = std::make_unique<PaxosEngine<Cmd, Net>>(
        net, self, [this](InstanceId) { return std::optional(everyone_); },
        [this](InstanceId slot, const Cmd& c) { on_decide(slot, c); },
        retry_delay);
  }

  /// Reference-proposal support (DESIGN.md §16): invoked on a pending
  /// payload immediately before each (re-)proposal, so a proposer can
  /// refresh the CONTENT it offers — e.g. drop sub-block references
  /// that committed since the last attempt and add newly cut ones.
  /// Safe by construction: PaxosEngine::propose keeps the FIRST value
  /// offered per instance (a refresh only changes what NEW instances
  /// see), and delivery dedups by (origin, nonce), which a refresh
  /// never touches.  Callers that leave this unset get the classic
  /// frozen-payload behavior, byte for byte.
  void set_refresh(std::function<void(Payload&)> refresh) {
    refresh_ = std::move(refresh);
  }

  /// Queues `p` for total-order delivery; returns its submission nonce.
  /// The node keeps proposing until the payload lands in some slot.
  std::uint64_t broadcast(Payload p) {
    Cmd c;
    c.origin = self_;
    c.nonce = next_nonce_++;
    c.payload = std::move(p);
    pending_.push_back(std::move(c));
    pump();
    return next_nonce_ - 1;
  }

  /// Anti-entropy probe for the next undelivered slot; a no-op on an
  /// up-to-date replica (nobody answers a query for an undecided slot).
  void sync() { paxos_->query_all(next_deliver_); }

  /// Slots delivered so far (the length of the local committed prefix).
  std::uint64_t delivered_count() const noexcept { return next_deliver_; }

  /// True iff every payload this node broadcast has been delivered here.
  bool all_settled() const noexcept { return pending_.empty(); }

  // --- recovery interface (DESIGN.md §13) ---

  /// Highest nonce delivered per origin.  Per-origin nonces deliver
  /// contiguously (an origin proposes nonce i+1 only after nonce i
  /// landed), so this vector is an EXACT description of the
  /// (origin, nonce) pairs the delivered prefix covers — the dedup
  /// record delivery reads, and what a snapshot carries as n integers.
  const std::vector<std::uint64_t>& origin_frontiers() const noexcept {
    return origin_frontier_;
  }

  /// Snapshot install: jump the delivery frontier to `slot` and raise
  /// the per-origin nonce frontiers to the snapshot's.  Commands at slots
  /// below `slot` are covered by the snapshot and will never be
  /// delivered here; a command with nonce <= frontier[origin] landing in
  /// a LATER slot (the adoption-race duplicate) is suppressed like any
  /// other duplicate.  The Paxos log keeps the decisions below `slot`
  /// that reached it, but the snapshot covers them, so the retained-log
  /// figures count from `slot` up.  Ends with a frontier query + pump so
  /// catch-up of the log suffix starts immediately.
  void advance_to(std::uint64_t slot,
                  const std::vector<std::uint64_t>& frontiers) {
    TS_EXPECTS(frontiers.size() == origin_frontier_.size());
    TS_EXPECTS(slot >= next_deliver_);
    next_deliver_ = slot;
    for (ProcessId o = 0; o < origin_frontier_.size(); ++o) {
      origin_frontier_[o] = std::max(origin_frontier_[o], frontiers[o]);
    }
    log_base_ = slot;
    deliver_ready();  // decisions may already have arrived for >= slot
    paxos_->query_all(next_deliver_);
    pump();
  }

  /// Log truncation: forget decided slots below `slot` and refuse to
  /// serve them (PaxosEngine::set_floor answers queries with kPruned).
  /// Only call with `slot` <= the lowest snapshot mark of any correct
  /// replica — then no live replica ever queries below the floor, and a
  /// kPruned redirect can only reach a rejoiner, whose recovery path
  /// fetches a snapshot instead.
  void truncate_below(std::uint64_t slot) {
    // The floor may sit below a rejoiner's install slot: then nothing
    // retained is pruned (and the range below must not start past its end).
    if (slot > log_base_) {
      const auto& log = paxos_->decided_log();
      pruned_slots_ += static_cast<std::uint64_t>(
          std::distance(log.lower_bound(log_base_), log.lower_bound(slot)));
    }
    paxos_->set_floor(slot);
  }

  /// Forwarded to the Paxos engine: fires when a peer redirects one of
  /// our queries below its log floor ("fetch a snapshot instead").
  void set_on_pruned(std::function<void(InstanceId)> h) {
    paxos_->set_on_pruned(std::move(h));
  }

  /// Decided slots still held (the retained log, from the install slot
  /// up) and their value bytes.
  std::size_t retained_slots() const noexcept {
    const auto& log = paxos_->decided_log();
    return static_cast<std::size_t>(
        std::distance(log.lower_bound(log_base_), log.end()));
  }
  std::uint64_t retained_log_bytes() const {
    const auto& log = paxos_->decided_log();
    std::uint64_t bytes = 0;
    for (auto it = log.lower_bound(log_base_); it != log.end(); ++it) {
      bytes += wire_size_of(it->second);
    }
    return bytes;
  }
  /// Slots erased by truncate_below over this node's lifetime.
  std::uint64_t pruned_slots() const noexcept { return pruned_slots_; }

 private:
  /// Proposes the oldest pending payload not yet known decided at the
  /// lowest open slot.  A payload already decided in some slot is
  /// skipped even though it is still pending (pending_ empties at
  /// DELIVERY, which waits for the contiguous prefix): re-proposing it
  /// would burn a fresh Paxos instance per pump while it parks — gap
  /// repair, not re-proposal, is what delivers it.  A payload can still
  /// land in two slots when a lost duel's adoption races our
  /// re-proposal, which delivery dedups by (origin, nonce);
  /// PaxosEngine::propose keeps the first value offered for an instance,
  /// so a slot that already carries an active proposal simply consumes
  /// the open-slot cursor.
  void pump() {
    const auto c = std::find_if(pending_.begin(), pending_.end(),
                                [this](const Cmd& p) {
                                  return !landed_.contains(p.nonce);
                                });
    if (c == pending_.end()) return;
    std::uint64_t slot = next_deliver_;
    while (paxos_->has_decided(slot)) ++slot;
    // Refresh before offering: the proposal an instance FIRST sees is
    // what it keeps, so the refresh must run before propose(), not
    // after a lost duel (set_refresh).
    if (refresh_) refresh_(c->payload);
    paxos_->propose(slot, *c);
  }

  void on_decide(std::uint64_t slot, const Cmd& c) {
    // A catch-up REPLY proves we were behind: continue the frontier walk.
    const bool caught_up = paxos_->last_decide_was_reply();
    // Below the delivery frontier the decision is already covered — by
    // delivery or (after advance_to) by an installed snapshot.
    if (slot < next_deliver_) return;
    if (c.origin == self_) landed_.insert(c.nonce);
    // Gap repair: ask for every earlier slot we have no decision for
    // (query_all skips the decided ones).
    for (std::uint64_t s = next_deliver_; s < slot; ++s) paxos_->query_all(s);
    deliver_ready();
    // Frontier walk, gated on catch-up evidence: walk on when either a
    // decided slot sits beyond the contiguous prefix (a hole must exist
    // somewhere) or this decision reached us as a catch-up reply (we are
    // chasing a tail of missed decisions, and only the walk can tell us
    // where it ends).  An ordinary fault-free commit satisfies neither,
    // so the fast path sends zero extra messages.
    const auto& log = paxos_->decided_log();
    const bool gap = !log.empty() && log.rbegin()->first >= next_deliver_;
    if (gap || caught_up) paxos_->query_all(next_deliver_);
    pump();
  }

  /// Contiguous delivery with (origin, nonce) dedup by the per-origin
  /// frontier; a nonce above it must be the next one (the file comment's
  /// per-origin FIFO).  Nonce 0, an empty slot value, never delivers.
  void deliver_ready() {
    const auto& log = paxos_->decided_log();
    while (true) {
      const auto it = log.find(next_deliver_);
      if (it == log.end()) break;
      const Cmd& cmd = it->second;
      if (cmd.origin == self_) {
        pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                      [&](const Cmd& p) {
                                        return p.nonce == cmd.nonce;
                                      }),
                       pending_.end());
        landed_.erase(cmd.nonce);
      }
      std::uint64_t& frontier = origin_frontier_[cmd.origin];
      if (cmd.nonce > frontier) {
        TS_ASSERT(cmd.nonce == frontier + 1);
        frontier = cmd.nonce;
        deliver_(next_deliver_, cmd.origin, cmd.nonce, cmd.payload);
      }
      ++next_deliver_;
    }
  }

  Net& net_;
  ProcessId self_;
  Deliver deliver_;
  std::function<void(Payload&)> refresh_;  // set_refresh (may be empty)
  std::vector<ProcessId> everyone_;  // the constant acceptor group
  std::unique_ptr<PaxosEngine<Cmd, Net>> paxos_;
  std::vector<Cmd> pending_;  // our submissions, oldest first
  std::uint64_t next_nonce_ = 1;
  std::uint64_t next_deliver_ = 0;
  /// The installed snapshot's boundary (0 = none): the decided log this
  /// node retains is the Paxos log from here up (advance_to).
  std::uint64_t log_base_ = 0;
  /// Highest nonce delivered or snapshot-covered per origin (exact; see
  /// origin_frontiers()) — the one dedup record.
  std::vector<std::uint64_t> origin_frontier_;
  std::uint64_t pruned_slots_ = 0;
  /// Our nonces decided in SOME slot but not yet delivered (parked
  /// behind a gap): pump() must not re-propose these.
  std::set<std::uint64_t> landed_;
};

}  // namespace tokensync
