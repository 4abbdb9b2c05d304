// Eager reliable broadcast (crash-stop model) with per-sender FIFO
// delivery — the dissemination layer for the consensus-free asset
// transfer (Sec. 7 / Collins et al., DSN'20 style).
//
// Reliable broadcast properties (crash model):
//   validity      — a correct broadcaster's message is eventually
//                   delivered by every correct node;
//   no duplication, no creation;
//   agreement     — if any correct node delivers m, all correct nodes do
//                   (achieved by eager re-broadcast on first delivery).
// FIFO: messages from the same origin are delivered in sequence order.
//
// Every message a node forwards is retransmitted by its RetransmitOutbox
// (bcast/outbox.h) until every live peer has acked, so delivery survives
// probabilistic message drops (retransmission gives eventual delivery on
// fair links).  A node's own copy needs no ack: ERB delivers it in-call.
//
// A node keeps only in-flight state: out-of-order messages until they
// deliver, and the outbox's retransmit copies.  Duplicates are recognised
// by the per-origin delivered frontier, so neither memory nor the
// retransmit walk grows with the number of messages delivered so far.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "bcast/outbox.h"
#include "net/simnet.h"

namespace tokensync {

/// Wire message for ErbNode.
template <typename Payload>
struct ErbMsg {
  enum class Type : std::uint8_t { kData, kAck } type = Type::kData;
  ProcessId origin = 0;
  std::uint64_t seq = 0;
  Payload payload{};

  /// Acks are header-only; only kData carries the payload's bytes (the
  /// type/origin/seq fields ride inside the framing constant).
  std::uint64_t wire_size() const {
    return kWireHeaderBytes +
           (type == Type::kData ? wire_size_of(payload) : 0);
  }
};

/// One node of the FIFO eager reliable broadcast.
///
/// `NetT` defaults to the plain SimNet carrying ErbMsg<Payload> — the
/// standalone configuration (at_bcast, the dedicated tests).  Any type
/// with the same send/send_all/set_handler/set_timer surface works
/// (set_timer takes the closure to run, which captures the outbox); the
/// hybrid replica runtime passes a LaneNet (net/lane_mux.h) so the ERB
/// fast lane and the Paxos consensus lane share ONE simulated network.
template <typename Payload, typename NetT = SimNet<ErbMsg<Payload>>>
class ErbNode {
 public:
  using Net = NetT;
  using Msg = ErbMsg<Payload>;
  using Deliver = std::function<void(ProcessId origin, std::uint64_t seq,
                                     const Payload&)>;

  ErbNode(Net& net, ProcessId self, Deliver deliver)
      : net_(net), self_(self), deliver_(std::move(deliver)),
        outbox_(net, self), next_deliver_(net.num_nodes(), 0) {
    net_.set_handler(self_, [this](ProcessId from, const Msg& m) {
      on_message(from, m);
    });
  }

  /// FIFO-broadcasts payload from this node; returns its sequence number.
  std::uint64_t broadcast(Payload p) {
    const std::uint64_t seq = next_seq_++;
    store_and_forward(Msg{Msg::Type::kData, self_, seq, std::move(p)});
    return seq;
  }

  /// Messages delivered so far (origin, seq) — for test assertions.
  std::uint64_t delivered_count() const noexcept { return delivered_n_; }

  /// Per-origin FIFO frontier: the next sequence number this node will
  /// deliver from `origin` (== how many of its messages are delivered).
  /// Test/observability accessor.  Note the hybrid replica
  /// (net/hybrid_replica.h) deliberately does NOT read this for its
  /// merge-barrier cut: it mirrors delivered counts in its own deliver
  /// callback, because next_deliver_ is incremented only AFTER the
  /// callback returns — reading it from inside delivery would be
  /// off by one.
  std::uint64_t frontier(ProcessId origin) const {
    return next_deliver_.at(origin);
  }

  /// Messages still awaiting at least one peer ack (retransmission is
  /// live while this is non-zero; quiescence tests pin it to 0).
  std::size_t unacked() const noexcept { return outbox_.size(); }

  /// Per-message state held right now: undelivered out-of-order messages
  /// plus retransmit copies.  Delivered, fully acked messages leave
  /// nothing behind, so a quiescent node retains 0 however long it ran.
  std::size_t retained() const noexcept {
    return undelivered_.size() + outbox_.size();
  }

 private:
  using Key = std::pair<ProcessId, std::uint64_t>;

  /// Dedup without a delivered-message archive: below the origin's FIFO
  /// frontier means delivered; otherwise the message is either buffered
  /// out of order or (only while its delivery callback runs) held as a
  /// retransmit copy.
  bool seen(const Key& key) const {
    return key.second < next_deliver_[key.first] ||
           undelivered_.contains(key) || outbox_.contains(key);
  }

  void store_and_forward(const Msg& m) {
    const Key key{m.origin, m.seq};
    if (seen(key)) return;
    undelivered_.emplace(key, m);
    outbox_.send_all(key, m, /*self_acks=*/false);
    try_deliver(m.origin);
  }

  void on_message(ProcessId from, const Msg& m) {
    if (m.type == Msg::Type::kAck) {
      outbox_.ack(Key{m.origin, m.seq}, from);
      return;
    }
    // Ack back to the forwarder so it can stop retransmitting to us.
    net_.send(self_, from, Msg{Msg::Type::kAck, m.origin, m.seq, {}});
    store_and_forward(m);
  }

  void try_deliver(ProcessId origin) {
    // FIFO: deliver contiguous sequence numbers only.
    for (;;) {
      auto it = undelivered_.find(Key{origin, next_deliver_[origin]});
      if (it == undelivered_.end()) return;
      // Detach the message before the callback: it stays alive until the
      // callback returns, and a callback that re-enters broadcast() (and
      // so this loop) no longer finds it, so it cannot deliver it twice.
      const auto node = undelivered_.extract(it);
      deliver_(origin, node.key().second, node.mapped().payload);
      ++delivered_n_;
      ++next_deliver_[origin];
    }
  }

  Net& net_;
  ProcessId self_;
  Deliver deliver_;
  std::uint64_t next_seq_ = 0;
  /// Received but not yet deliverable (a gap below it in its origin's
  /// sequence); an in-order message passes through immediately.
  std::map<Key, Msg> undelivered_;
  /// In flight: forwarded and not yet acked by every live peer.
  RetransmitOutbox<Key, Msg, Net> outbox_;
  std::vector<std::uint64_t> next_deliver_;
  std::uint64_t delivered_n_ = 0;
};

}  // namespace tokensync
