// Single-decree Paxos engine over SimNet, multi-instance, with
// callback-resolved per-instance membership.
//
// dyntoken (the paper's Sec. 7 future-work system) decides each
// (account, slot) operation with one Paxos instance among the account's
// current spender group; the membership resolver returns that group as a
// deterministic function of the locally processed prefix, or nullopt when
// the node cannot yet know it (the proposer then retries later).  A fixed
// resolver turns this into textbook multi-proposer Paxos, which the tests
// exercise standalone (agreement under message drops, delays, duels).
//
// Safety is ballot-quorum intersection as usual; liveness needs eventual
// synchrony, approximated by randomized retry backoff timers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "net/simnet.h"

namespace tokensync {

using InstanceId = std::uint64_t;

/// Paxos wire message carrying an opaque Value.
template <typename Value>
struct PaxosMsg {
  enum class Type : std::uint8_t {
    kPrepare,   // 1a: ballot
    kPromise,   // 1b: ballot, (accepted_ballot, accepted_value)?
    kAccept,    // 2a: ballot, value
    kAccepted,  // 2b: ballot
    kNack,      // higher ballot seen (or not ready): retry later
    kDecide,    // learned decision, disseminated to everyone
    kQuery,     // learner catch-up: "answer kDecide if you decided this"
    kPruned,    // "that instance is below my log floor: snapshot-fetch"
  };

  Type type = Type::kPrepare;
  InstanceId instance = 0;
  std::uint64_t ballot = 0;
  Value value{};
  bool has_accepted = false;
  std::uint64_t accepted_ballot = 0;
  Value accepted_value{};
  /// kDecide only: true when this is a catch-up REPLY (answering a
  /// kQuery or any stale traffic for a decided instance) rather than the
  /// decider's broadcast.  Receiving a reply proves the receiver was
  /// behind — layers use it to keep their anti-entropy frontier walk
  /// going without paying any messages on the fault-free path.
  bool is_reply = false;

  /// Value bytes travel only where the protocol actually ships a value:
  /// kAccept (2a) and kDecide carry `value`; a kPromise carries
  /// `accepted_value` iff has_accepted.  Everything else (ballots,
  /// instance ids, flags) rides inside the framing constant — which is
  /// precisely why thin consensus values (compact relay) slim every
  /// phase of every slot at once.
  std::uint64_t wire_size() const {
    std::uint64_t bytes = kWireHeaderBytes;
    if (type == Type::kAccept || type == Type::kDecide) {
      bytes += wire_size_of(value);
    }
    if (type == Type::kPromise && has_accepted) {
      bytes += wire_size_of(accepted_value);
    }
    return bytes;
  }
};

/// One node's Paxos engine (proposer + acceptor + learner for every
/// instance it participates in).
///
/// `NetT` defaults to the plain SimNet carrying PaxosMsg<Value>; the
/// hybrid replica runtime substitutes a LaneNet (net/lane_mux.h) so the
/// consensus lane shares one simulated network with the ERB fast lane.
/// Either way set_timer takes the closure to run: each retry timer
/// captures this engine and its instance.
template <typename Value, typename NetT = SimNet<PaxosMsg<Value>>>
class PaxosEngine {
 public:
  using Net = NetT;
  /// Returns the acceptor group of an instance, or nullopt if this node
  /// cannot determine it yet.
  using GroupResolver =
      std::function<std::optional<std::vector<ProcessId>>(InstanceId)>;
  using DecideHandler = std::function<void(InstanceId, const Value&)>;

  PaxosEngine(Net& net, ProcessId self, GroupResolver groups,
              DecideHandler on_decide, std::uint64_t retry_delay = 60)
      : net_(net), self_(self), groups_(std::move(groups)),
        on_decide_(std::move(on_decide)), retry_delay_(retry_delay),
        backoff_rng_(0x9e3779b9u * (self + 1)) {
    net_.set_handler(self_, [this](ProcessId from, const PaxosMsg<Value>& m) {
      on_message(from, m);
    });
  }

  /// Starts proposing `v` for `instance`.  The engine keeps retrying (with
  /// new ballots) until the instance decides — possibly on another value.
  void propose(InstanceId instance, const Value& v) {
    if (decided_.contains(instance)) return;
    auto& p = proposers_[instance];
    if (p.active) return;  // already proposing here; keep the first value
    p.active = true;
    p.my_value = v;
    start_round(instance);
  }

  /// Learner catch-up (anti-entropy): asks every node for the decision of
  /// `instance`.  Anyone that has decided answers through the standard
  /// catch-up path; nodes that have not simply ignore the query, so a
  /// query for a genuinely undecided instance generates no traffic beyond
  /// the probe itself.  Layers above use this to heal gaps left by
  /// dropped kDecide disseminations (partitions, lossy links).
  void query_all(InstanceId instance) {
    if (decided_.contains(instance)) return;
    PaxosMsg<Value> m;
    m.type = PaxosMsg<Value>::Type::kQuery;
    m.instance = instance;
    net_.send_all(self_, m);
  }

  bool has_decided(InstanceId instance) const {
    return decided_.contains(instance);
  }
  /// True while the on_decide handler runs for a decision that arrived
  /// as a catch-up REPLY (see PaxosMsg::is_reply); false for local
  /// decisions and ordinary kDecide broadcasts.
  bool last_decide_was_reply() const noexcept {
    return last_decide_was_reply_;
  }
  const Value& decision(InstanceId instance) const {
    return decided_.at(instance);
  }
  /// The decided log itself, by instance (pruned below floor()).  A
  /// layer that orders by instance reads its decisions here instead of
  /// keeping a second copy.
  const std::map<InstanceId, Value>& decided_log() const noexcept {
    return decided_;
  }
  /// Proposer and acceptor records held right now.  A record lives from
  /// the instance's first prepare or propose until its decision enters
  /// the log, so an engine whose instances all decided holds none.
  std::size_t live_records() const noexcept {
    return proposers_.size() + acceptors_.size();
  }

  /// Log truncation (DESIGN.md §13): forget every instance below `floor`.
  /// Decisions, acceptor promises and proposer state below the floor are
  /// erased — safe because the caller only raises the floor to a slot
  /// every replica has covered by a durable snapshot, so no correct node
  /// will ever need those decisions again.  Queries for pruned instances
  /// are answered with kPruned (a redirect to snapshot fetch), never with
  /// silence — a rejoiner must not stall waiting for a reply that cannot
  /// come.  Monotonic: a lower floor than the current one is a no-op.
  void set_floor(InstanceId floor) {
    if (floor <= floor_) return;
    floor_ = floor;
    decided_.erase(decided_.begin(), decided_.lower_bound(floor));
    acceptors_.erase(acceptors_.begin(), acceptors_.lower_bound(floor));
    proposers_.erase(proposers_.begin(), proposers_.lower_bound(floor));
  }
  InstanceId floor() const noexcept { return floor_; }

  /// Handler for incoming kPruned redirects: "the peer has pruned this
  /// instance — stop querying the log and fetch a snapshot instead."
  void set_on_pruned(std::function<void(InstanceId)> h) {
    on_pruned_ = std::move(h);
  }

 private:
  struct Proposer {
    bool active = false;
    Value my_value{};
    std::uint64_t ballot = 0;
    // Current round state.
    std::set<ProcessId> promises;
    std::set<ProcessId> accepteds;
    bool accepting = false;  // phase 2 entered
    Value round_value{};
    std::uint64_t best_accepted_ballot = 0;
    bool adopted = false;
  };

  struct Acceptor {
    std::uint64_t promised = 0;
    bool has_accepted = false;
    std::uint64_t accepted_ballot = 0;
    Value accepted_value{};
  };

  std::uint64_t make_ballot(std::uint64_t round) const {
    return round * 256 + self_ + 1;  // distinct per proposer, increasing
  }

  void start_round(InstanceId instance) {
    auto& p = proposers_[instance];
    const auto group = groups_(instance);
    if (!group) {
      // Cannot resolve the group yet: retry after a delay.
      net_.set_timer(self_, retry_delay_,
                     [this, instance] { on_timer(instance); });
      return;
    }
    p.ballot = make_ballot(p.ballot / 256 + 1);
    p.promises.clear();
    p.accepteds.clear();
    p.accepting = false;
    p.adopted = false;
    p.best_accepted_ballot = 0;
    PaxosMsg<Value> m;
    m.type = PaxosMsg<Value>::Type::kPrepare;
    m.instance = instance;
    m.ballot = p.ballot;
    for (ProcessId q : *group) net_.send(self_, q, m);
    // Re-arm the retry timer (randomized backoff defuses proposer duels).
    net_.set_timer(self_,
                   retry_delay_ + backoff_rng_.below(retry_delay_ + 1),
                   [this, instance] { on_timer(instance); });
  }

  void on_timer(InstanceId instance) {
    auto it = proposers_.find(instance);
    if (it == proposers_.end() || !it->second.active) return;
    if (decided_.contains(instance)) return;
    start_round(instance);  // new, higher ballot
  }

  /// Enters a decision into the log and ends the instance's proposer and
  /// acceptor records: once decided, every message for the instance but
  /// a kDecide is answered from the log, propose() and on_timer() return
  /// early, and a kDecide finds the entry present — so nothing reads the
  /// records again.  Returns the log's entry, or nullptr when `instance`
  /// was already decided.  `v` may live in the erased records (a
  /// proposer's round_value), so it is copied into the log first.
  const Value* enter_decision(InstanceId instance, const Value& v) {
    const auto [it, fresh] = decided_.try_emplace(instance, v);
    if (!fresh) return nullptr;
    proposers_.erase(instance);
    acceptors_.erase(instance);
    return &it->second;
  }

  void decide(InstanceId instance, const Value& v) {
    const Value* d = enter_decision(instance, v);
    if (!d) return;
    // Disseminate to all nodes — learners are everyone, not just the
    // acceptor group (every replica applies every decided operation).
    PaxosMsg<Value> m;
    m.type = PaxosMsg<Value>::Type::kDecide;
    m.instance = instance;
    m.value = *d;
    net_.send_all(self_, m);
    on_decide_(instance, *d);
  }

  void on_message(ProcessId from, const PaxosMsg<Value>& m) {
    using T = typename PaxosMsg<Value>::Type;
    if (m.type == T::kPruned) {
      if (on_pruned_) on_pruned_(m.instance);
      return;
    }
    // Below the log floor nothing is served from the log: the decision is
    // covered by a snapshot every replica acked, so redirect the asker
    // there (kPruned), and discard stale kDecides rather than regrow the
    // pruned map.
    if (m.instance < floor_) {
      if (m.type != T::kDecide) {
        PaxosMsg<Value> r;
        r.type = T::kPruned;
        r.instance = m.instance;
        net_.send(self_, from, r);
      }
      return;
    }
    // Catch-up: any traffic for an already-decided instance is answered
    // with the decision (heals dropped kDecide messages).
    if (m.type != T::kDecide) {
      auto d = decided_.find(m.instance);
      if (d != decided_.end()) {
        PaxosMsg<Value> r;
        r.type = T::kDecide;
        r.instance = m.instance;
        r.value = d->second;
        r.is_reply = true;
        net_.send(self_, from, r);
        return;
      }
    }
    switch (m.type) {
      case T::kPrepare: {
        // Participate only once the group is resolvable and includes us —
        // guarantees every acceptor of an instance agrees on the group.
        const auto group = groups_(m.instance);
        if (!group || !contains(*group, self_)) {
          reply_nack(from, m.instance, m.ballot);
          return;
        }
        Acceptor& a = acceptors_[m.instance];
        if (m.ballot <= a.promised) {
          reply_nack(from, m.instance, m.ballot);
          return;
        }
        a.promised = m.ballot;
        PaxosMsg<Value> r;
        r.type = T::kPromise;
        r.instance = m.instance;
        r.ballot = m.ballot;
        r.has_accepted = a.has_accepted;
        r.accepted_ballot = a.accepted_ballot;
        r.accepted_value = a.accepted_value;
        net_.send(self_, from, r);
        return;
      }

      case T::kPromise: {
        auto it = proposers_.find(m.instance);
        if (it == proposers_.end()) return;
        Proposer& p = it->second;
        if (!p.active || m.ballot != p.ballot || p.accepting) return;
        p.promises.insert(from);
        if (m.has_accepted && m.accepted_ballot > p.best_accepted_ballot) {
          p.best_accepted_ballot = m.accepted_ballot;
          p.round_value = m.accepted_value;
          p.adopted = true;
        }
        const auto group = groups_(m.instance);
        if (!group) return;
        if (p.promises.size() * 2 > group->size()) {
          // Majority: phase 2 with the highest accepted value, or ours.
          p.accepting = true;
          if (!p.adopted) p.round_value = p.my_value;
          PaxosMsg<Value> acc;
          acc.type = T::kAccept;
          acc.instance = m.instance;
          acc.ballot = p.ballot;
          acc.value = p.round_value;
          for (ProcessId q : *group) net_.send(self_, q, acc);
        }
        return;
      }

      case T::kAccept: {
        const auto group = groups_(m.instance);
        if (!group || !contains(*group, self_)) {
          reply_nack(from, m.instance, m.ballot);
          return;
        }
        Acceptor& a = acceptors_[m.instance];
        if (m.ballot < a.promised) {
          reply_nack(from, m.instance, m.ballot);
          return;
        }
        a.promised = m.ballot;
        a.has_accepted = true;
        a.accepted_ballot = m.ballot;
        a.accepted_value = m.value;
        PaxosMsg<Value> r;
        r.type = T::kAccepted;
        r.instance = m.instance;
        r.ballot = m.ballot;
        net_.send(self_, from, r);
        return;
      }

      case T::kAccepted: {
        auto it = proposers_.find(m.instance);
        if (it == proposers_.end()) return;
        Proposer& p = it->second;
        if (!p.active || m.ballot != p.ballot || !p.accepting) return;
        p.accepteds.insert(from);
        const auto group = groups_(m.instance);
        if (!group) return;
        if (p.accepteds.size() * 2 > group->size()) {
          decide(m.instance, p.round_value);
        }
        return;
      }

      case T::kNack:
        // Higher ballot or unresolved group on the other side; the retry
        // timer will start a fresh round.
        return;

      case T::kQuery:
        // We have not decided this instance (a decided one was answered by
        // the catch-up branch above) — nothing to report.
        return;

      case T::kPruned:
        return;  // handled before the switch; unreachable

      case T::kDecide: {
        if (enter_decision(m.instance, m.value)) {
          last_decide_was_reply_ = m.is_reply;
          on_decide_(m.instance, m.value);
          last_decide_was_reply_ = false;
        }
        return;
      }
    }
  }

  void reply_nack(ProcessId to, InstanceId instance, std::uint64_t ballot) {
    PaxosMsg<Value> r;
    r.type = PaxosMsg<Value>::Type::kNack;
    r.instance = instance;
    r.ballot = ballot;
    net_.send(self_, to, r);
  }

  static bool contains(const std::vector<ProcessId>& v, ProcessId p) {
    for (ProcessId q : v) {
      if (q == p) return true;
    }
    return false;
  }

  Net& net_;
  ProcessId self_;
  GroupResolver groups_;
  DecideHandler on_decide_;
  std::uint64_t retry_delay_;
  Rng backoff_rng_;
  // Undecided instances only: enter_decision() ends both records.
  std::map<InstanceId, Proposer> proposers_;
  std::map<InstanceId, Acceptor> acceptors_;
  std::map<InstanceId, Value> decided_;
  InstanceId floor_ = 0;  ///< instances below this are pruned (set_floor)
  std::function<void(InstanceId)> on_pruned_;
  bool last_decide_was_reply_ = false;
};

}  // namespace tokensync
