// Compact relay — op-ID consensus values with recover-on-miss
// (DESIGN.md §12, the ISSUE 6 tentpole).
//
// The observation (Compact Blocks / Graphene style): by the time a block
// reaches consensus, almost every replica already holds its operations —
// the proposer announced them at cut time, the ERB fast lane floods its
// own payloads, and the local TxPool keeps what this replica itself
// pooled.  So the consensus lanes need not re-ship full (signed)
// payloads through propose/accept/learn; they order thin references
//
//     {block_id, vector<OpId>}        (OpId = hash(origin, seq), 8 bytes)
//
// and each replica reconstructs the committed block from what it has.
// The rare miss — an announcement lost to the lossy link, a partition
// that ate the broadcast — is healed by an explicit round-trip:
//
//   kAnnounce  proposer -> peers   full TaggedOps, once, at cut time;
//   kGetOps    replica  -> peer    "send me these ids" (block-correlated);
//   kOps       peer     -> replica the requested ops, from its store.
//
// Recovery is timer-driven and bounded-then-fallback: a replica first
// asks the block's proposer, then rotates through the remaining live
// peers; after `fallback_after` unanswered attempts it requests the
// ENTIRE block's ids (the short-block fallback — one reply carries every
// payload), and keeps retrying that until resolved.  On fair-lossy links
// retransmission terminates; profiles that crash replicas do not also
// drop messages (sched/scenario.cc), so the announcing proposer's store
// — or any peer that already reconstructed — can always answer.  The
// retry loop itself (rotation, fallback, timer) is the shared
// RecoverOnMiss helper (net/recover_on_miss.h) — the multi-proposer
// sub-block exchange runs the identical loop over its own enums.
//
// Scheduling isolation: RelayMsg is auxiliary-class (is_aux_wire), so
// every announcement, request, reply and retry timer draws from SimNet's
// second Rng/tie-break stream (common/wire.h).  The primary lanes see an
// IDENTICAL event schedule whether relay traffic exists or not, which is
// why committed histories are byte-identical between RelayMode::kFull
// and RelayMode::kCompact — reconstruction only delays a block's local
// APPLY, never its committed content or slot order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/opid_table.h"
#include "common/wire.h"
#include "net/recover_on_miss.h"

namespace tokensync {

/// Consensus-value relay policy of a replica runtime.
enum class RelayMode : std::uint8_t {
  kFull,     ///< consensus values carry full op payloads (the baseline)
  kCompact,  ///< consensus values carry op-IDs; recover-on-miss heals gaps
};

inline const char* to_string(RelayMode m) {
  return m == RelayMode::kFull ? "full" : "compact";
}

/// Relay-lane wire message; `B` is the relayed op type (a ledger
/// BatchOp).  Auxiliary-class: see the file comment.
template <typename B>
struct RelayMsg {
  enum class Type : std::uint8_t {
    kAnnounce,  ///< proposer -> peers: a cut block's full TaggedOps
    kGetOps,    ///< replica -> peer: ids this replica is missing
    kOps,       ///< peer -> replica: the requested TaggedOps it has
  };

  Type type = Type::kAnnounce;
  std::uint64_t block_id = 0;      ///< kGetOps/kOps fetch correlation
  std::vector<OpId> ids;           ///< kGetOps: requested ids
  std::vector<TaggedOp<B>> ops;    ///< kAnnounce/kOps payloads

  std::uint64_t wire_size() const {
    std::uint64_t bytes = kWireHeaderBytes + 8 + 8 * ids.size();
    for (const TaggedOp<B>& t : ops) bytes += t.wire_size();
    return bytes;
  }
};

template <typename B>
struct is_aux_wire<RelayMsg<B>> : std::true_type {};

/// One replica's relay endpoint: the id-keyed op store fed by local
/// intake and announcements, the kAnnounce/kGetOps/kOps protocol, and
/// the bounded-retry miss tracker.  `NetT` is the relay lane's facade
/// (LaneNet over the shared SimNet).
template <typename B, typename NetT>
class RelayEndpoint {
 public:
  using Msg = RelayMsg<B>;
  /// Invoked whenever the store grows from the network (announcement or
  /// kOps reply) — the node retries parked reconstructions.
  using OnGrow = std::function<void()>;

  RelayEndpoint(NetT& net, ProcessId self, OnGrow on_grow,
                std::uint64_t retry_delay = 40, int fallback_after = 3)
      : net_(net), self_(self), on_grow_(std::move(on_grow)),
        recover_(net, self,
                 /*have=*/[this](OpId id) { return store_.contains(id); },
                 /*send=*/
                 [this](ProcessId target, std::uint64_t block_id,
                        const std::vector<OpId>& ids) {
                   Msg m;
                   m.type = Msg::Type::kGetOps;
                   m.block_id = block_id;
                   m.ids = ids;
                   net_.send(self_, target, m);
                 },
                 retry_delay, fallback_after) {
    net_.set_handler(self_, [this](ProcessId from, const Msg& m) {
      on_message(from, m);
    });
    net_.set_timer_handler(self_,
                           [this](std::uint64_t) { recover_.on_timer(); });
  }

  /// Proposer intake: remember the ops locally (to serve kGetOps — and
  /// to reconstruct our own proposals) and announce them to every peer.
  void announce(const std::vector<TaggedOp<B>>& ops) {
    for (const TaggedOp<B>& t : ops) store_.try_emplace(t.id, t.op);
    if (!announce_enabled_) return;  // test hook: force universal misses
    Msg m;
    m.type = Msg::Type::kAnnounce;
    m.ops = ops;
    for (ProcessId p = 0; p < net_.num_nodes(); ++p) {
      if (p != self_) net_.send(self_, p, m);
    }
  }

  /// O(1) store lookup; nullptr when this replica has never seen `id`.
  /// Valid until the store next grows.
  const B* find(OpId id) const { return store_.find(id); }

  /// Starts (or refreshes) recovery of `block_id`: `missing` are the ids
  /// this replica lacks, `all_ids` the block's full id list (the
  /// short-block fallback request).  Idempotent while recovery is in
  /// flight — the retry timer drives subsequent attempts.
  void fetch(std::uint64_t block_id, ProcessId proposer,
             std::vector<OpId> missing, std::vector<OpId> all_ids) {
    recover_.fetch(block_id, proposer, std::move(missing),
                   std::move(all_ids));
  }

  /// The node reconstructed `block_id`; stop retrying.
  void cancel(std::uint64_t block_id) { recover_.cancel(block_id); }

  bool idle() const noexcept { return recover_.idle(); }

  /// Blocks that entered recover-on-miss (at least one kGetOps sent).
  std::uint64_t miss_recoveries() const noexcept {
    return recover_.miss_recoveries();
  }
  /// kGetOps requests sent (recoveries × retries).
  std::uint64_t get_ops_sent() const noexcept {
    return recover_.requests_sent();
  }
  /// Recoveries that escalated to the short-block (full id list) request.
  std::uint64_t fallbacks() const noexcept { return recover_.fallbacks(); }

  /// Test hook: with announcements off, every peer misses every op and
  /// ALL reconstruction goes through the kGetOps round-trip.
  void set_announce_enabled(bool enabled) { announce_enabled_ = enabled; }

 private:
  void on_message(ProcessId from, const Msg& m) {
    switch (m.type) {
      case Msg::Type::kAnnounce:
      case Msg::Type::kOps:
        for (const TaggedOp<B>& t : m.ops) store_.try_emplace(t.id, t.op);
        if (!m.ops.empty() && on_grow_) on_grow_();
        return;
      case Msg::Type::kGetOps: {
        Msg reply;
        reply.type = Msg::Type::kOps;
        reply.block_id = m.block_id;
        for (OpId id : m.ids) {
          if (const B* op = store_.find(id)) {
            reply.ops.push_back(TaggedOp<B>{id, *op});
          }
        }
        // A partial reply still makes progress; an empty one would only
        // add chatter — the requester's rotation finds a better peer.
        if (!reply.ops.empty()) net_.send(self_, from, reply);
        return;
      }
    }
  }

  NetT& net_;
  ProcessId self_;
  OnGrow on_grow_;
  bool announce_enabled_ = true;
  OpIdMap<B> store_;
  RecoverOnMiss<NetT> recover_;  // after store_: its Have reads store_
};

}  // namespace tokensync
