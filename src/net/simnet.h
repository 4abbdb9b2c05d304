// Deterministic discrete-event message-passing network simulator.
//
// The paper's Sec. 7 calls for broadcast-based token protocols; this
// substrate provides the asynchronous network they run on: point-to-point
// messages with randomized per-message delays, probabilistic drops and
// duplication, programmable partitions, crash-stop faults, per-node timers
// and callbacks, and a net-level fault schedule.  Everything is driven by
// one seeded Rng plus a FIFO tie-break on equal timestamps, so a run is a
// pure function of (seed, the sequence of API calls): two runs with the
// same seed and the same deterministic protocol code produce the same
// delivery order, the same drops, the same fault timing — byte-identical
// traces (the property tests/scenario_test.cc asserts end-to-end).
//
// Fault model (what the seed covers and what it does not):
//   * delays       — uniform in [min_delay, max_delay] per message, drawn
//                    from the seeded Rng; per-link overrides via
//                    set_link_delay() (e.g. one slow WAN link);
//   * drops        — each send independently dropped with probability
//                    drop_num/drop_den (link-level loss, fair-lossy: a
//                    retransmitting sender eventually gets through);
//   * duplication  — each surviving send duplicated with probability
//                    dup_num/dup_den; the copy gets an independent delay
//                    (protocols must be idempotent at the receiver);
//   * partitions   — partition(groups) keeps only intra-group links up;
//                    heal() restores full connectivity.  Partitions apply
//                    at SEND time: messages already in flight when the
//                    partition starts are still delivered (they had left
//                    the sender's NIC);
//   * crash-stop   — crash(node): the node neither sends nor receives from
//                    that point on; in-flight messages TO it are dropped
//                    at delivery time, its timers and callbacks never fire.
//
// Fault schedules are ordinary events: schedule(delay, fn) runs fn at a
// simulated time regardless of node state (the "adversary's hand" —
// scenarios use it to flip partitions and crash replicas).  Node
// callbacks are skipped while their node is crashed: a call_at or
// script_at entry (a client submitting over time) runs on any later
// incarnation, while a set_timer closure (a protocol engine's timer,
// capturing the engine) dies at the node's next restart.
//
// Two event sources feed step().  The event heap holds what is in
// flight: messages, control events and every node callback scheduled
// while the run is going.  The client script — node-local callbacks
// registered with script_at before the first step — waits beside it in
// one vector sorted once by (time, tie), so a script of tens of
// thousands of submits costs no heap slot until it fires.  step() pops
// whichever source's head has the smaller (time, tie); both draw ties
// from the same sequence, so the pop order is the one a single heap of
// both would give.
//
// SimNet is templated on the wire-message type; each protocol defines its
// own message struct and registers a delivery handler per node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/wire.h"

namespace tokensync {

/// Simulation parameters.  Aggregate by design: scenario code uses
/// designated initializers and only names the knobs it cares about.
struct NetConfig {
  std::uint64_t seed = 1;
  std::uint64_t min_delay = 1;    ///< inclusive, simulated time units
  std::uint64_t max_delay = 10;   ///< inclusive
  std::uint64_t drop_num = 0;     ///< drop probability drop_num/drop_den
  std::uint64_t drop_den = 100;
  std::uint64_t dup_num = 0;      ///< duplication probability dup_num/dup_den
  std::uint64_t dup_den = 100;
};

/// Network statistics (benchmarks and scenario reports include these).
/// Byte counters follow the wire-size model of common/wire.h: bytes_sent
/// mirrors `sent` (every send pays its bytes, dropped or not — the bytes
/// left the sender's NIC), bytes_delivered mirrors `delivered` (a
/// duplicated message is paid for on each delivery).
struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;     ///< loss + partition + crashed receiver
  std::uint64_t duplicated = 0;  ///< extra copies injected
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

template <typename Msg>
class SimNet {
 public:
  using MsgType = Msg;
  using Handler = std::function<void(ProcessId from, const Msg&)>;
  using Callback = std::function<void()>;
  /// Returns true iff the link from->to is currently up (checked at send
  /// time, after the partition check).
  using LinkFilter = std::function<bool(ProcessId from, ProcessId to,
                                        std::uint64_t now)>;

  SimNet(std::size_t n, NetConfig cfg)
      : cfg_(cfg), rng_(cfg.seed),
        aux_rng_(cfg.seed ^ 0x9e3779b97f4a7c15ull), handlers_(n),
        crashed_(n, false), incarnation_(n, 0) {}

  std::size_t num_nodes() const noexcept { return handlers_.size(); }
  std::uint64_t now() const noexcept { return now_; }
  const NetStats& stats() const noexcept { return stats_; }

  void set_handler(ProcessId node, Handler h) {
    handlers_.at(node) = std::move(h);
  }
  void set_link_filter(LinkFilter f) { link_filter_ = std::move(f); }

  /// Byzantine node hook (ISSUE 9): returns the message `node` actually
  /// puts on the wire toward `to`, or nullopt to send the original
  /// unmodified.  Checked per destination at send time, BEFORE the
  /// loss/duplication rolls, so retransmissions re-fork consistently —
  /// a deterministic forker makes the equivocation itself deterministic.
  using Forker = std::function<std::optional<Msg>(ProcessId to, const Msg&)>;

  /// Arms `forker` on every send originating at `node` — the simulation
  /// stand-in for a node whose protocol stack lies on the wire (e.g. an
  /// equivocating Bracha origin signing two payloads for one slot).  The
  /// node's own in-process state is untouched: only its outgoing copies
  /// fork.
  void set_equivocator(ProcessId node, Forker forker) {
    equivocators_[node] = std::move(forker);
  }

  /// Overrides the delay distribution of the directed link from->to.
  void set_link_delay(ProcessId from, ProcessId to, std::uint64_t min_delay,
                      std::uint64_t max_delay) {
    TS_EXPECTS(min_delay <= max_delay);
    link_delay_[{from, to}] = {min_delay, max_delay};
  }

  /// Crash-stop: the node neither sends nor receives from now on.
  void crash(ProcessId node) { crashed_.at(node) = true; }
  bool is_crashed(ProcessId node) const { return crashed_.at(node); }

  /// Crash-RECOVER extension of the crash-stop model: the node may send
  /// and receive again from now on, as a new incarnation.  Messages TO it
  /// were dropped while it was down and its earlier incarnations' timers
  /// never fire, so it comes back with an empty inbox and no timers — the
  /// recovery subsystem (net/recovery.h) is responsible for rebuilding
  /// its state from a snapshot plus the retained log suffix.
  void restart(ProcessId node) {
    crashed_.at(node) = false;
    ++incarnation_[node];
  }

  /// Partitions the network into the given groups: a link is up iff both
  /// endpoints are in the same group.  Nodes not listed in any group end
  /// up isolated (their own singleton component).  Applies to sends from
  /// now on; in-flight messages are unaffected.
  void partition(const std::vector<std::vector<ProcessId>>& groups) {
    group_of_.assign(num_nodes(), kIsolated);
    std::uint32_t g = 0;
    for (const auto& members : groups) {
      for (ProcessId p : members) group_of_.at(p) = g;
      ++g;
    }
  }

  /// Removes any partition; all links are up again.
  void heal() { group_of_.clear(); }

  bool partitioned() const noexcept { return !group_of_.empty(); }

  /// True iff the directed link from->to is currently up (partition only;
  /// the user link filter is consulted separately at send time).
  /// Self-sends are always up — an isolated node is its own singleton
  /// component, not cut off from itself.
  bool link_up(ProcessId from, ProcessId to) const {
    if (group_of_.empty() || from == to) return true;
    return group_of_[from] != kIsolated && group_of_[from] == group_of_[to];
  }

  /// Sends m from `from` to `to` (self-sends allowed: delivered like any
  /// other message).  Drops, duplication and partitions apply.
  void send(ProcessId from, ProcessId to, Msg m) {
    TS_EXPECTS(from < num_nodes() && to < num_nodes());
    if (crashed_[from]) return;
    if (!equivocators_.empty()) {
      if (auto it = equivocators_.find(from); it != equivocators_.end()) {
        if (auto forked = it->second(to, m)) m = *std::move(forked);
      }
    }
    ++stats_.sent;
    stats_.bytes_sent += wire_size_of(m);
    if (!link_up(from, to)) {
      ++stats_.dropped;
      return;
    }
    if (link_filter_ && !link_filter_(from, to, now_)) {
      ++stats_.dropped;
      return;
    }
    // Auxiliary-class traffic (relay recovery, see common/wire.h) draws
    // its loss/duplication/delay randomness from the second Rng stream:
    // primary-lane messages see the exact same draw sequence whether or
    // not aux traffic exists, which is what keeps committed histories
    // byte-identical between full and compact relay modes.
    const bool aux = is_aux_msg(m);
    Rng& rng = aux ? aux_rng_ : rng_;
    if (cfg_.drop_num > 0 && rng.chance(cfg_.drop_num, cfg_.drop_den)) {
      ++stats_.dropped;
      return;
    }
    const bool duplicate =
        cfg_.dup_num > 0 && rng.chance(cfg_.dup_num, cfg_.dup_den);
    if (!duplicate) {
      push_message(from, to, std::move(m), aux);
      return;
    }
    ++stats_.duplicated;
    push_message(from, to, m, aux);
    push_message(from, to, std::move(m), aux);
  }

  /// Sends m to every node (including the sender).
  void send_all(ProcessId from, const Msg& m) {
    for (ProcessId to = 0; to < num_nodes(); ++to) send(from, to, m);
  }

  /// Arms a protocol timer: fn runs at now + delay on `node` unless the
  /// node is crashed then or has been restarted since (file comment).
  void set_timer(ProcessId node, std::uint64_t delay, Callback fn) {
    push_node_event(node, delay, false, incarnation_.at(node), std::move(fn));
  }

  /// set_timer for auxiliary-class protocol engines (relay recovery):
  /// identical semantics, but the event draws its tie-break from the aux
  /// sequence so arming it cannot reorder primary events.
  void set_timer_aux(ProcessId node, std::uint64_t delay, Callback fn) {
    push_node_event(node, delay, true, incarnation_.at(node), std::move(fn));
  }

  /// Schedules a client callback (a submit, a deadline tick) at now +
  /// delay on `node`; silently dropped if the node is crashed by then,
  /// but run on a node restarted since.
  void call_at(ProcessId node, std::uint64_t delay, Callback fn) {
    TS_EXPECTS(node < num_nodes());
    push_node_event(node, delay, false, kAnyIncarnation, std::move(fn));
  }

  /// Registers fn at now + delay on `node` in the client script: call_at's
  /// semantics (the same tie draw; dropped if the node has crashed by
  /// then), but the entry waits in the script vector instead of the event
  /// heap.  A script is registered whole before the run starts.
  void script_at(ProcessId node, std::uint64_t delay, Callback fn) {
    TS_EXPECTS(node < num_nodes());
    TS_EXPECTS(!started_);
    script_.push_back(
        ScriptEntry{now_ + delay, next_tie(false), node, std::move(fn)});
  }

  /// Schedules a net-level control action at now + delay — runs
  /// unconditionally (fault schedules: partitions, crashes, heals).
  void schedule(std::uint64_t delay, Callback fn) {
    push_event(Event{now_ + delay, next_tie(false), Event::kControl, 0, 0,
                     Msg{}, 0, std::move(fn)});
  }

  /// Delivers the next event — the heap's or the script's, whichever
  /// comes first by (time, tie); false when both are empty.
  bool step() {
    if (!started_) sort_script();
    if (next_ < order_.size() &&
        (queue_.empty() || Later{}(queue_.top(), order_[next_]))) {
      fire_script();
      return true;
    }
    if (queue_.empty()) return false;
    const std::uint32_t slot = queue_.top().slot;
    queue_.pop();
    // Move the event out and free its slot BEFORE dispatch: handlers
    // schedule new events, which may reuse the slot or grow the slab.
    Event e = std::move(slab_[slot]);
    free_.push_back(slot);
    now_ = e.time;
    switch (e.kind) {
      case Event::kControl:
        e.fn();
        return true;
      case Event::kNode:
        if (!crashed_[e.to] && (e.incarnation == kAnyIncarnation ||
                                e.incarnation == incarnation_[e.to])) {
          e.fn();
        }
        return true;
      case Event::kMsg:
        if (crashed_[e.to]) {
          ++stats_.dropped;
          return true;
        }
        ++stats_.delivered;
        stats_.bytes_delivered += wire_size_of(e.msg);
        if (handlers_[e.to]) handlers_[e.to](e.from, e.msg);
        return true;
    }
    return true;  // unreachable
  }

  /// Runs until quiescence or `max_events`; returns events processed.
  std::size_t run(std::size_t max_events = 1u << 22) {
    std::size_t processed = 0;
    while (processed < max_events && step()) ++processed;
    return processed;
  }

  bool idle() const noexcept { return queue_.empty() && script_.empty(); }

  /// Event slots allocated so far: the high-water mark of simultaneously
  /// queued heap events, since a dispatched event's slot is reused.
  /// Script entries never take a slot.
  std::size_t event_slots() const noexcept { return slab_.size(); }

 private:
  static constexpr std::uint32_t kIsolated = 0xffffffffu;
  /// A call_at entry's incarnation: any incarnation of its node runs it.
  static constexpr std::uint64_t kAnyIncarnation = ~std::uint64_t{0};

  struct Event {
    enum Kind : std::uint8_t { kMsg, kNode, kControl };

    std::uint64_t time;
    std::uint64_t tie;  // FIFO tiebreak for equal timestamps
    Kind kind;
    ProcessId from;
    ProcessId to;
    Msg msg;
    std::uint64_t incarnation;  // kNode: the arming incarnation, or any
    Callback fn;
  };
  /// What the heap orders: an event's (time, tie) and its slab slot (in
  /// the script's order, the entry's index).  (time, tie) is unique per
  /// event, so the pop sequence is fixed by the keys alone — sifting
  /// moves 24 bytes, never a Msg or a Callback.
  struct Key {
    std::uint64_t time;
    std::uint64_t tie;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.tie > b.tie;
    }
  };

  /// One script_at registration.  56 bytes, no Msg: a closure that fits
  /// std::function's inline buffer costs nothing more.
  struct ScriptEntry {
    std::uint64_t time;
    std::uint64_t tie;
    ProcessId node;
    Callback fn;
  };

  /// Orders the script once, at the first step: by (time, tie) keys that
  /// index the entries, so the sort never moves a Callback.
  void sort_script() {
    started_ = true;
    order_.reserve(script_.size());
    for (std::uint32_t i = 0; i < script_.size(); ++i) {
      order_.push_back(Key{script_[i].time, script_[i].tie, i});
    }
    std::sort(order_.begin(), order_.end(),
              [](const Key& a, const Key& b) { return Later{}(b, a); });
  }

  /// Fires the script's head.  The callback is moved out before it runs,
  /// so the last entry can free the script's storage first: a run's
  /// memory peaks later, at the end-of-run audit, where a kept vector
  /// would still count.
  void fire_script() {
    const Key k = order_[next_++];
    ScriptEntry& e = script_[k.slot];
    const ProcessId node = e.node;
    Callback fn = std::move(e.fn);
    if (next_ == order_.size()) {
      std::vector<ScriptEntry>().swap(script_);
      std::vector<Key>().swap(order_);
      next_ = 0;
    }
    now_ = k.time;
    if (!crashed_[node]) fn();
  }

  void push_event(Event e) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(e));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(e);
    }
    queue_.push(Key{slab_[slot].time, slab_[slot].tie, slot});
  }

  void push_node_event(ProcessId node, std::uint64_t delay, bool aux,
                       std::uint64_t incarnation, Callback fn) {
    push_event(Event{now_ + delay, next_tie(aux), Event::kNode, node, node,
                     Msg{}, incarnation, std::move(fn)});
  }

  void push_message(ProcessId from, ProcessId to, Msg m, bool aux) {
    std::uint64_t lo = cfg_.min_delay, hi = cfg_.max_delay;
    if (!link_delay_.empty()) {
      if (const auto it = link_delay_.find({from, to});
          it != link_delay_.end()) {
        lo = it->second.first;
        hi = it->second.second;
      }
    }
    const std::uint64_t delay = (aux ? aux_rng_ : rng_).range(lo, hi);
    push_event(Event{now_ + delay, next_tie(aux), Event::kMsg, from, to,
                     std::move(m), 0, {}});
  }

  /// Two disjoint tie-break sequences (primary even, aux odd): the
  /// relative order of equal-time PRIMARY events is a pure function of
  /// primary activity alone, so aux traffic cannot reorder them.
  std::uint64_t next_tie(bool aux) {
    return aux ? (aux_tie_++ * 2 + 1) : (pri_tie_++ * 2);
  }

  NetConfig cfg_;
  Rng rng_;
  Rng aux_rng_;
  std::uint64_t now_ = 0;
  std::uint64_t pri_tie_ = 0;
  std::uint64_t aux_tie_ = 0;
  std::vector<Handler> handlers_;
  std::vector<bool> crashed_;
  std::vector<std::uint64_t> incarnation_;  // restarts so far, per node
  LinkFilter link_filter_;
  std::map<ProcessId, Forker> equivocators_;
  std::vector<std::uint32_t> group_of_;  // empty = no partition
  std::map<std::pair<ProcessId, ProcessId>,
           std::pair<std::uint64_t, std::uint64_t>>
      link_delay_;
  // The event queue: events live in a slab (freed slots are reused), and
  // a binary heap of keys orders them by (time, insertion order).
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_;
  std::priority_queue<Key, std::vector<Key>, Later> queue_;
  // The client script: entries in registration order, and from the first
  // step on their (time, tie) keys sorted, with `next_` the cursor.  Both
  // vectors are freed when the last entry fires.
  std::vector<ScriptEntry> script_;
  std::vector<Key> order_;
  std::size_t next_ = 0;
  bool started_ = false;
  NetStats stats_;
};

}  // namespace tokensync
