// Snapshot catch-up protocol — how a rejoining (or fresh) replica gets
// back into the cluster (DESIGN.md §13, the ISSUE 7 tentpole).
//
// Three auxiliary-class messages:
//
//   kSnapRequest  rejoiner -> peer   "send me your newest snapshot with
//                                     next_slot >= min_slot";
//   kSnapReply    peer -> rejoiner   the serialized snapshot (or
//                                     has_snapshot = false) plus the
//                                     peer's current commit frontier —
//                                     the rejoiner's catch-up target;
//   kSnapMark     replica -> peers   "I hold a durable snapshot at this
//                                     boundary" — the acknowledgement
//                                     lattice pruning reads.
//
// The PRUNE FLOOR is min over live replicas of their newest known mark
// (a replica's own mark included).  Since a replica's mark never exceeds
// its delivery frontier, and every peer's knowledge of that mark only
// lags it, no live replica is ever asked for a slot below its own floor
// by another LIVE replica — the kPruned redirect (dyntoken/paxos.h) can
// only reach a rejoiner, whose recovery path answers it by fetching a
// snapshot at a higher boundary instead of stalling (the
// prune-then-query edge case the recovery tests pin).
//
// Request rotation: one peer per attempt, starting at self + 1,
// skipping self and crashed nodes, re-armed by an auxiliary retry timer
// until the node reports itself caught up.  All
// traffic and timers are auxiliary-class (is_aux_wire), so in a run
// where nobody rejoins, snapshotting + pruning leave the primary event
// schedule — and therefore the committed history — bit-for-bit
// unchanged (the snapshot-invariance test).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/wire.h"
#include "exec/snapshot.h"

namespace tokensync {

/// Recovery knobs of a replica runtime (ScenarioConfig forwards these).
struct RecoveryConfig {
  /// Cut a snapshot every this many slots (at boundaries where
  /// (slot + 1) % interval == 0); 0 disables snapshotting.
  std::uint64_t snapshot_interval = 0;
  /// Truncate the consensus log below the all-replica snapshot floor.
  bool prune = false;
  /// This node is (re)joining: start from a fetched snapshot + log
  /// suffix instead of proposing from slot 0.
  bool recover = false;
};

/// Recovery-lane wire message.  Auxiliary-class: see the file comment.
template <ConcurrentTokenSpec S>
struct RecoveryMsg {
  enum class Type : std::uint8_t {
    kSnapRequest,  ///< rejoiner -> peer: min acceptable boundary
    kSnapReply,    ///< peer -> rejoiner: snapshot bytes + frontier
    kSnapMark,     ///< replica -> peers: durable-snapshot ack
  };

  Type type = Type::kSnapRequest;
  std::uint64_t min_slot = 0;          ///< kSnapRequest
  bool has_snapshot = false;           ///< kSnapReply
  std::vector<std::uint8_t> bytes;     ///< kSnapReply: serialized snapshot
  std::uint64_t frontier = 0;          ///< kSnapReply: server's frontier
  std::uint64_t slot = 0;              ///< kSnapMark: boundary acked

  std::uint64_t wire_size() const {
    return kWireHeaderBytes + 8 + 8 + bytes.size();
  }
};

template <ConcurrentTokenSpec S>
struct is_aux_wire<RecoveryMsg<S>> : std::true_type {};

/// A replica's retained snapshots, keyed by boundary (next_slot).
/// Monotone append; old snapshots are kept (they are the only thing a
/// very-stale rejoiner can still be served once the log is pruned, and
/// the audit compares hashes at the rejoiner's install boundary).
template <ConcurrentTokenSpec S>
class SnapshotStore {
 public:
  void add(Snapshot<S> snap) {
    const std::uint64_t at = snap.next_slot;
    snaps_.insert_or_assign(at, std::move(snap));
  }

  /// Newest snapshot with next_slot <= `slot`, or nullptr.
  const Snapshot<S>* latest_at_or_below(std::uint64_t slot) const {
    auto it = snaps_.upper_bound(slot);
    if (it == snaps_.begin()) return nullptr;
    return &std::prev(it)->second;
  }

  /// Newest snapshot with next_slot in [min_slot, max_slot], or nullptr.
  const Snapshot<S>* newest_in(std::uint64_t min_slot,
                               std::uint64_t max_slot) const {
    const Snapshot<S>* best = latest_at_or_below(max_slot);
    if (!best || best->next_slot < min_slot) return nullptr;
    return best;
  }

  /// Content hash of the snapshot cut exactly at `slot`, if retained.
  std::optional<std::uint64_t> hash_at(std::uint64_t slot) const {
    const auto it = snaps_.find(slot);
    if (it == snaps_.end()) return std::nullopt;
    return it->second.content_hash();
  }

  /// The snapshot with the highest boundary, or nullptr.  On a block
  /// replica that is its previous cut or the snapshot it installed:
  /// the next cut's applied-id merge base (DESIGN.md §13.1).
  const Snapshot<S>* newest() const {
    return snaps_.empty() ? nullptr : &snaps_.rbegin()->second;
  }

  std::size_t size() const noexcept { return snaps_.size(); }
  std::uint64_t newest_slot() const noexcept {
    return snaps_.empty() ? 0 : snaps_.rbegin()->first;
  }

 private:
  std::map<std::uint64_t, Snapshot<S>> snaps_;
};

/// One replica's recovery endpoint: the snapshot store, the serve side
/// of kSnapRequest, the mark lattice behind the prune floor, and the
/// fetch state machine a rejoiner drives.  `NetT` is the recovery
/// lane's facade (LaneNet over the shared SimNet).
template <ConcurrentTokenSpec S, typename NetT>
class RecoveryEndpoint {
 public:
  using Msg = RecoveryMsg<S>;
  /// Server side: the node's current commit frontier (delivered slots).
  using FrontierFn = std::function<std::uint64_t()>;
  /// Client side: a kSnapReply arrived (only while fetching).
  using OnReply = std::function<void(bool has_snapshot,
                                     const std::vector<std::uint8_t>& bytes,
                                     std::uint64_t frontier)>;

  /// Retry tick of the snapshot fetch.
  static constexpr std::uint64_t kRetryDelay = 40;

  RecoveryEndpoint(NetT& net, ProcessId self, FrontierFn frontier,
                   OnReply on_reply)
      : net_(net), self_(self), frontier_(std::move(frontier)),
        on_reply_(std::move(on_reply)), marks_(net.num_nodes(), 0) {
    net_.set_handler(self_, [this](ProcessId from, const Msg& m) {
      on_message(from, m);
    });
  }

  // --- snapshot retention + the mark lattice ---

  SnapshotStore<S>& store() noexcept { return store_; }
  const SnapshotStore<S>& store() const noexcept { return store_; }

  /// Records our own durable snapshot at `slot` and tells every peer.
  void mark(std::uint64_t slot) {
    marks_[self_] = std::max(marks_[self_], slot);
    Msg m;
    m.type = Msg::Type::kSnapMark;
    m.slot = slot;
    for (ProcessId p = 0; p < net_.num_nodes(); ++p) {
      if (p != self_) net_.send(self_, p, m);
    }
  }

  /// The all-replica snapshot floor: min over LIVE replicas of their
  /// newest known mark (see the file comment's safety argument).  A
  /// never-marked live replica holds the floor at 0.
  std::uint64_t prune_floor() const {
    std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
    for (ProcessId p = 0; p < net_.num_nodes(); ++p) {
      if (p != self_ && net_.is_crashed(p)) continue;
      floor = std::min(floor, marks_[p]);
    }
    return floor == std::numeric_limits<std::uint64_t>::max() ? 0 : floor;
  }

  // --- the rejoiner's fetch state machine ---

  /// Starts (or tightens) a snapshot fetch: only boundaries >= min_slot
  /// are acceptable from here on (a kPruned redirect raises the bar).
  /// Idempotent; the retry timer rotates through live peers until the
  /// node calls done().
  void begin(std::uint64_t min_slot) {
    min_slot_ = std::max(min_slot_, min_slot);
    if (!fetching_) {
      fetching_ = true;
      attempts_ = 0;
    }
    request();
    arm_timer();
  }

  /// The node is caught up (or installed what it needs): stop retrying.
  void done() { fetching_ = false; }

  std::uint64_t snap_requests_sent() const noexcept { return requests_; }

  /// Test hook: refuse to serve snapshots newer than this boundary (the
  /// rejoin-with-stale-snapshot variant forces a stale first install).
  void set_max_served_slot(std::uint64_t slot) { max_served_ = slot; }

 private:
  void on_message(ProcessId from, const Msg& m) {
    switch (m.type) {
      case Msg::Type::kSnapRequest: {
        Msg r;
        r.type = Msg::Type::kSnapReply;
        r.frontier = frontier_();
        if (const Snapshot<S>* snap =
                store_.newest_in(m.min_slot, max_served_)) {
          r.has_snapshot = true;
          r.bytes = snap->serialize();
        }
        // Reply even without a snapshot: the frontier alone gives a
        // from-empty rejoiner its catch-up target (interval = 0 runs
        // replay the whole retained log).
        net_.send(self_, from, r);
        return;
      }
      case Msg::Type::kSnapReply:
        if (fetching_ && on_reply_) {
          on_reply_(m.has_snapshot, m.bytes, m.frontier);
        }
        return;
      case Msg::Type::kSnapMark:
        marks_[from] = std::max(marks_[from], m.slot);
        return;
    }
  }

  void request() {
    const std::size_t n = net_.num_nodes();
    ProcessId target =
        static_cast<ProcessId>((self_ + 1 + attempts_) % n);
    for (std::size_t hop = 0;
         hop < n && (target == self_ || net_.is_crashed(target)); ++hop) {
      target = static_cast<ProcessId>((target + 1) % n);
    }
    if (target == self_) return;  // nobody to ask; timer retries
    Msg m;
    m.type = Msg::Type::kSnapRequest;
    m.min_slot = min_slot_;
    ++attempts_;
    ++requests_;
    net_.send(self_, target, m);
  }

  void arm_timer() {
    if (timer_armed_) return;
    timer_armed_ = true;
    net_.set_timer(self_, kRetryDelay, [this] { on_timer(); });
  }

  void on_timer() {
    timer_armed_ = false;
    if (!fetching_) return;
    request();
    arm_timer();
  }

  NetT& net_;
  ProcessId self_;
  FrontierFn frontier_;
  OnReply on_reply_;
  SnapshotStore<S> store_;
  std::vector<std::uint64_t> marks_;  ///< newest known mark per replica
  bool fetching_ = false;
  bool timer_armed_ = false;
  std::uint64_t min_slot_ = 0;
  std::size_t attempts_ = 0;
  std::uint64_t max_served_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t requests_ = 0;
};

}  // namespace tokensync
