// Bracha reliable broadcast (Byzantine model, n >= 3f + 1) with
// per-origin FIFO delivery — the CN-1 dissemination lane for the
// Byzantine tier (DESIGN.md §15).
//
// Phases per (origin, seq):
//   SEND  — the origin disseminates its payload to all;
//   ECHO  — on first SEND (or via amplification), echo to all; on
//           collecting ⌈(n+f+1)/2⌉ ECHOs for one payload, go READY;
//   READY — on f+1 READYs for a payload (amplification), send ECHO and
//           READY too; on 2f+1 READYs, the slot completes.
//
// Guarantees with at most f Byzantine nodes:
//   agreement — all correct nodes deliver the same payload for a given
//     (origin, seq) or none do, even if the origin equivocates: two
//     2f+1 READY quorums for different payloads would need
//     2(2f+1) − f > n distinct readiers, and a correct node readies a
//     slot at most once;
//   integrity — only a payload the origin put under its own (origin,
//     seq) label can gather an echo quorum (SENDs count only from the
//     origin; with signatures this is the sig check).
// FIFO: completed slots are handed to the application in per-origin
// sequence order behind a frontier, mirroring ErbNode so the hybrid
// replica can swap fast lanes without changing its cut logic.
//
// Liveness under loss: every phase message this node originates (its
// SEND, its per-slot ECHO and READY) goes through the RetransmitOutbox
// ErbNode uses too (bcast/outbox.h), which retransmits it until acked
// by every live node; crashed peers are written off via the simulator's
// crash oracle.  Retransmission covers the node's own copy too — Bracha
// nodes receive their own sends through the network (no local
// short-circuit), and a dropped self-SEND would otherwise silently
// remove the origin's echo from the quorum it may be needed for.
//
// Equivocation (ISSUE 9 respend defense): a Byzantine origin sending
// different payloads for one slot cannot split delivery (agreement
// above), but it IS caught: any correct node that sees two distinct
// payloads for a slot — via the origin's SEND or via another node's
// ECHO/READY of what the origin sent it — assembles a canonical
// ConflictProof and fires the OnConflict hook once per slot.  Payload
// authenticity is modeled, not computed: in this simulation only the
// origin (or SimNet's set_equivocator hook acting on the origin's
// outgoing link) can put a payload under the origin's label, standing
// in for an origin signature carried by every SEND/ECHO/READY — the
// kOpAuthBytes term in wire_size() accounts for it.  Detection does not
// change the protocol (the majority branch still delivers); it feeds
// the layer above (quarantine + proof relay in net/hybrid_replica.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "bcast/outbox.h"
#include "common/wire.h"
#include "net/simnet.h"

namespace tokensync {

/// Wire message; Payload must be totally ordered (used as a map key).
template <typename Payload>
struct BrachaMsg {
  enum class Type : std::uint8_t { kSend, kEcho, kReady, kAck };
  Type type = Type::kSend;
  /// For kAck only: which phase is being acked — acks are keyed by
  /// (acked, origin, seq) so a SEND ack cannot silence an ECHO
  /// retransmission.
  Type acked = Type::kSend;
  ProcessId origin = 0;
  std::uint64_t seq = 0;
  Payload payload{};

  /// Acks are header-only; every phase message carries the payload plus
  /// the origin's signature over it (kOpAuthBytes) — that signature is
  /// what lets an ECHO/READY stand as equivocation evidence.
  std::uint64_t wire_size() const {
    return kWireHeaderBytes +
           (type == Type::kAck ? 0 : wire_size_of(payload) + kOpAuthBytes);
  }
};

/// Evidence that one origin signed two different payloads for the same
/// slot — the double-spend proof the respend defense relays and
/// quarantines on.  Canonical form: payload_a < payload_b, so every
/// correct replica that assembles a proof for a slot assembles the SAME
/// record and proofs compare byte-for-byte across replicas.
template <typename Payload>
struct ConflictProof {
  OpId op_id = 0;
  ProcessId origin = 0;
  std::uint64_t seq = 0;
  Payload payload_a{};
  Payload payload_b{};

  /// Both conflicting payloads travel with their origin signatures —
  /// that pair of signatures over distinct bytes IS the proof.
  std::uint64_t wire_size() const {
    return 8 + 4 + 8 + wire_size_of(payload_a) + wire_size_of(payload_b) +
           2 * kOpAuthBytes;
  }

  friend bool operator==(const ConflictProof&, const ConflictProof&) =
      default;
};

/// One node of FIFO Bracha reliable broadcast.
///
/// `NetT` defaults to the plain SimNet carrying BrachaMsg<Payload> — the
/// standalone configuration (tests/bracha_test.cc, tests/bcast_test.cc).
/// Any type with the same send/send_all/set_handler/set_timer surface
/// works (set_timer takes the closure to run, which captures the outbox);
/// the hybrid replica passes a LaneNet (net/lane_mux.h) so the
/// Bracha fast lane shares ONE simulated network with the consensus and
/// relay lanes.
template <typename Payload, typename NetT = SimNet<BrachaMsg<Payload>>>
class BrachaNode {
 public:
  using Net = NetT;
  using Msg = BrachaMsg<Payload>;
  using Deliver = std::function<void(ProcessId origin, std::uint64_t seq,
                                     const Payload&)>;
  using OnConflict = std::function<void(const ConflictProof<Payload>&)>;

  BrachaNode(Net& net, ProcessId self, std::size_t f, Deliver deliver,
             OnConflict on_conflict = {})
      : net_(net), self_(self), f_(f), deliver_(std::move(deliver)),
        on_conflict_(std::move(on_conflict)), outbox_(net, self),
        next_deliver_(net.num_nodes(), 0) {
    TS_EXPECTS(net_.num_nodes() >= 3 * f_ + 1);
    net_.set_handler(self_, [this](ProcessId from, const Msg& m) {
      on_message(from, m);
    });
  }

  /// FIFO-broadcasts payload from this node; returns its sequence
  /// number.  Unlike ErbNode, the local copy is NOT delivered in-call —
  /// delivery waits for the 2f+1 READY quorum, own node included.
  std::uint64_t broadcast(Payload p) {
    const std::uint64_t seq = next_seq_++;
    reliable_send_all(
        Msg{Msg::Type::kSend, Msg::Type::kSend, self_, seq, std::move(p)});
    return seq;
  }

  /// Slots handed to the application so far.
  std::uint64_t delivered_count() const noexcept { return delivered_n_; }

  /// Per-origin FIFO frontier: the next sequence number this node will
  /// deliver from `origin` (ErbNode-compatible surface; the same
  /// incremented-after-callback caveat applies).
  std::uint64_t frontier(ProcessId origin) const {
    return next_deliver_.at(origin);
  }

  /// Phase messages still awaiting at least one peer ack (quiescence
  /// tests pin it to 0 once every slot has delivered everywhere).
  std::size_t unacked() const noexcept { return outbox_.size(); }

 private:
  using Slot = std::pair<ProcessId, std::uint64_t>;  // (origin, seq)
  // (phase, origin, seq) — one reliably-sent message per key.
  using OutKey = std::tuple<std::uint8_t, ProcessId, std::uint64_t>;

  struct SlotState {
    bool echoed = false;
    bool readied = false;
    bool complete = false;           // 2f+1 READY quorum reached
    bool conflict_reported = false;
    std::optional<Payload> decided;  // set with `complete`
    // Distinct senders per payload for each phase.
    std::map<Payload, std::set<ProcessId>> echoes;
    std::map<Payload, std::set<ProcessId>> readies;
    // Distinct origin-signed payloads seen for this slot (via the
    // origin's SEND or anyone's ECHO/READY) — 2+ entries is a proof.
    std::set<Payload> evidence;
  };

  std::size_t echo_quorum() const {
    // ⌈(n + f + 1) / 2⌉: any two echo quorums intersect in a correct
    // node.
    return (net_.num_nodes() + f_ + 2) / 2;
  }

  /// Broadcasts m and retransmits it to every node (self included — see
  /// the header comment) until acked.  The outbox holds only unacked
  /// messages, so it cannot deduplicate on its own; nothing needs it to:
  /// each key is sent at most once in the node's lifetime.  A kSend key
  /// carries a fresh seq from the monotone next_seq_, and an ECHO or
  /// READY key is sent only behind its slot's `echoed` / `readied` flag,
  /// which is set first and never cleared (slots_ is not pruned).
  void reliable_send_all(Msg m) {
    const OutKey key{static_cast<std::uint8_t>(m.type), m.origin, m.seq};
    TS_ASSERT(!outbox_.contains(key));
    outbox_.send_all(key, std::move(m), /*self_acks=*/true);
  }

  void on_message(ProcessId from, const Msg& m) {
    if (m.type == Msg::Type::kAck) {
      const OutKey key{static_cast<std::uint8_t>(m.acked), m.origin, m.seq};
      outbox_.ack(key, from);
      return;
    }
    // Ack back so the sender can stop retransmitting this phase to us.
    net_.send(self_, from,
              Msg{Msg::Type::kAck, m.type, m.origin, m.seq, {}});

    const Slot slot{m.origin, m.seq};
    SlotState& st = slots_[slot];
    switch (m.type) {
      case Msg::Type::kSend:
        // Only the origin's SEND counts (a Byzantine non-origin cannot
        // forge it here; with signatures this is the sig check).
        if (from != m.origin) return;
        note_evidence(m, st);
        send_echo(slot, m.payload, st);
        break;

      case Msg::Type::kEcho: {
        note_evidence(m, st);
        auto& senders = st.echoes[m.payload];
        senders.insert(from);
        if (senders.size() >= echo_quorum()) {
          send_ready(slot, m.payload, st);
        }
        break;
      }

      case Msg::Type::kReady: {
        note_evidence(m, st);
        auto& senders = st.readies[m.payload];
        senders.insert(from);
        if (senders.size() >= f_ + 1) {
          // Amplification: join the READY wave (also echo if we
          // haven't).
          send_echo(slot, m.payload, st);
          send_ready(slot, m.payload, st);
        }
        if (senders.size() >= 2 * f_ + 1 && !st.complete) {
          st.complete = true;
          st.decided = m.payload;
          try_deliver(m.origin);
        }
        break;
      }

      case Msg::Type::kAck:
        break;  // handled above
    }
  }

  void send_echo(const Slot& slot, const Payload& p, SlotState& st) {
    if (st.echoed) return;
    st.echoed = true;
    reliable_send_all(Msg{Msg::Type::kEcho, Msg::Type::kEcho, slot.first,
                          slot.second, p});
  }

  void send_ready(const Slot& slot, const Payload& p, SlotState& st) {
    if (st.readied) return;
    st.readied = true;
    reliable_send_all(Msg{Msg::Type::kReady, Msg::Type::kReady, slot.first,
                          slot.second, p});
  }

  /// Records an origin-signed payload sighting; two distinct payloads
  /// for one slot assemble the canonical proof and fire OnConflict once.
  void note_evidence(const Msg& m, SlotState& st) {
    st.evidence.insert(m.payload);
    if (st.evidence.size() < 2 || st.conflict_reported) return;
    st.conflict_reported = true;
    if (!on_conflict_) return;
    ConflictProof<Payload> proof;
    proof.op_id = make_op_id(m.origin, m.seq);
    proof.origin = m.origin;
    proof.seq = m.seq;
    proof.payload_a = *st.evidence.begin();
    proof.payload_b = *st.evidence.rbegin();
    on_conflict_(proof);
  }

  void try_deliver(ProcessId origin) {
    // FIFO: hand over contiguous completed slots only.
    for (;;) {
      auto it = slots_.find(Slot{origin, next_deliver_[origin]});
      if (it == slots_.end() || !it->second.complete) return;
      deliver_(origin, it->first.second, *it->second.decided);
      ++delivered_n_;
      ++next_deliver_[origin];
    }
  }

  Net& net_;
  ProcessId self_;
  std::size_t f_;
  Deliver deliver_;
  OnConflict on_conflict_;
  std::uint64_t next_seq_ = 0;
  std::map<Slot, SlotState> slots_;
  /// In flight only: fully acked messages are erased.
  RetransmitOutbox<OutKey, Msg, Net> outbox_;
  std::vector<std::uint64_t> next_deliver_;
  std::uint64_t delivered_n_ = 0;
};

}  // namespace tokensync
