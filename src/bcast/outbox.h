// Retransmit-until-acked outbox — the one retransmit policy of the
// broadcast lanes (ErbNode in erb.h, BrachaNode in bracha.h).
//
// Each reliably broadcast message is held, under the key its acks name,
// until every node it waits on acked it.  One one-shot timer per node,
// armed only while something is held (so a quiescent cluster drains),
// resends each held message to the nodes still missing it: delivery
// survives any drops on fair links.  Crashed peers are written off via
// the simulator's crash oracle, standing in for the crash-stop model's
// perfect failure detector (else one crashed peer keeps every timer
// armed forever).  The walk is in key order, each message to its missing
// nodes in ascending order, so the send sequence — and every seeded Rng
// draw behind it — is fixed by the set of held messages alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace tokensync {

/// `Net` is the node's net (a SimNet or a lane facade).  The timer is a
/// closure capturing this outbox, so it neither copies nor moves.
template <typename Key, typename Msg, typename Net>
class RetransmitOutbox {
 public:
  static constexpr std::uint64_t kRetransmitEvery = 50;  ///< timer period

  RetransmitOutbox(Net& net, ProcessId self) : net_(net), self_(self) {}
  RetransmitOutbox(const RetransmitOutbox&) = delete;
  RetransmitOutbox& operator=(const RetransmitOutbox&) = delete;

  /// Sends `m` to every node and holds it under `key` until every peer
  /// acked it — and this node too when `self_acks` (a node that takes
  /// its own sends from the network).  `key` must not be held already.
  void send_all(const Key& key, Msg m, bool self_acks) {
    std::vector<ProcessId> missing;
    for (ProcessId p = 0; p < net_.num_nodes(); ++p) {
      if (self_acks || p != self_) missing.push_back(p);
    }
    net_.send_all(self_, m);
    if (!missing.empty()) {
      held_.emplace(key, Held{std::move(m), std::move(missing)});
    }
    arm_timer();
  }

  void ack(const Key& key, ProcessId from) {
    const auto it = held_.find(key);
    if (it == held_.end()) return;
    std::erase(it->second.missing, from);
    if (it->second.missing.empty()) held_.erase(it);
  }

  bool contains(const Key& key) const { return held_.contains(key); }
  /// Messages still awaiting at least one ack.
  std::size_t size() const noexcept { return held_.size(); }

 private:
  struct Held {
    Msg msg;
    std::vector<ProcessId> missing;  ///< ascending
  };

  void arm_timer() {
    if (timer_armed_) return;
    timer_armed_ = true;
    net_.set_timer(self_, kRetransmitEvery, [this] { on_timer(); });
  }

  void on_timer() {
    timer_armed_ = false;
    for (auto it = held_.begin(); it != held_.end();) {
      auto& [msg, missing] = it->second;
      std::erase_if(missing,
                    [this](ProcessId p) { return net_.is_crashed(p); });
      if (missing.empty()) {
        it = held_.erase(it);
        continue;
      }
      for (ProcessId p : missing) net_.send(self_, p, msg);
      ++it;
    }
    if (!held_.empty()) arm_timer();
  }

  Net& net_;
  ProcessId self_;
  bool timer_armed_ = false;
  std::map<Key, Held> held_;  ///< ordered: the walk is the send order
};

}  // namespace tokensync
