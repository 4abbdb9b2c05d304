// Lane multiplexing — several broadcast protocols on ONE simulated
// network.
//
// The synchronization-tiered replica (net/hybrid_replica.h) runs the
// eager reliable broadcast (bcast/erb.h, the CN = 1 fast lane), the
// Paxos-backed total-order broadcast (atbcast/total_order.h, the CN > 1
// consensus lane) and — under compact relay (net/recover_on_miss.h) —
// the op recovery lane side by side on the same cluster.  SimNet
// carries ONE wire-message type and ONE message handler per node, so
// the protocol engines cannot all register directly.  This header
// supplies the multiplexer:
//
//   * LaneMsg<Ls...> — the variant wire type: every message on the
//     shared network is exactly one lane's message;
//   * LaneNet<Sub, Base> — the per-node facade each engine binds to.  It
//     presents exactly the SimNet surface the engines use (send,
//     send_all, set_handler, set_timer, num_nodes, now, is_crashed),
//     wrapping outgoing messages into the variant.  Timers are closures
//     and need no routing back: a lane whose message type is
//     auxiliary-class (is_aux_wire, common/wire.h) arms them through
//     set_timer_aux, keeping relay timers out of the primary tie-break
//     sequence;
//   * LaneMux<Ls...> — owns the lane facades for one node and installs
//     the real SimNet handler that dispatches on the variant alternative.
//
// Fault semantics are untouched: drops, duplication, partitions and
// crashes happen on the BASE net, so all lanes see the same network
// weather — exactly what the hybrid runtime's fault matrix needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <variant>

#include "common/ids.h"
#include "common/wire.h"
#include "net/simnet.h"

namespace tokensync {

/// The multiplexed wire type.  Default-constructs to the first lane's
/// message (SimNet events require a default), which is harmless:
/// defaulted messages never travel.
template <typename... Ls>
using LaneMsg = std::variant<Ls...>;

/// Per-node, per-lane facade over the shared base net: `Sub` selects the
/// variant alternative on send.
template <typename Sub, typename Base>
class LaneNet {
 public:
  using Handler = std::function<void(ProcessId from, const Sub&)>;
  using Callback = typename Base::Callback;

  explicit LaneNet(Base& base) : base_(base) {}

  std::size_t num_nodes() const noexcept { return base_.num_nodes(); }
  std::uint64_t now() const noexcept { return base_.now(); }
  bool is_crashed(ProcessId p) const { return base_.is_crashed(p); }

  void send(ProcessId from, ProcessId to, Sub m) {
    base_.send(from, to, wrap(std::move(m)));
  }
  void send_all(ProcessId from, const Sub& m) {
    base_.send_all(from, wrap(m));
  }
  void set_timer(ProcessId node, std::uint64_t delay, Callback fn) {
    if constexpr (is_aux_wire_v<Sub>) {
      base_.set_timer_aux(node, delay, std::move(fn));
    } else {
      base_.set_timer(node, delay, std::move(fn));
    }
  }

  /// The engines register through this exactly as they would on a
  /// SimNet; the mux's base handler dispatches back through it.  The
  /// node argument is accepted for interface compatibility (a facade is
  /// per-node, so it is always the owner).
  void set_handler(ProcessId /*node*/, Handler h) { handler_ = std::move(h); }

  void dispatch(ProcessId from, const Sub& m) const {
    if (handler_) handler_(from, m);
  }

 private:
  typename Base::MsgType wrap(Sub m) const {
    return typename Base::MsgType(std::in_place_type<Sub>, std::move(m));
  }

  Base& base_;
  Handler handler_;
};

/// One node's set of lane facades plus the base-net dispatch glue.
/// Construct it BEFORE the protocol engines (they bind to the facades),
/// and keep it alive as long as they are (the facades hold their
/// handlers).
///
/// `Base` is any net presenting the SimNet surface with
/// `MsgType = LaneMsg<Ls...>` — a real SimNet (the `LaneMux` alias
/// below) or another facade such as the shard router's per-group
/// GroupNet (net/shard_group.h), which lets a whole lane STACK ride one
/// group of a partitioned cluster.
template <typename Base, typename... Ls>
class BasicLaneMux {
 public:
  static constexpr std::size_t kLanes = sizeof...(Ls);
  static_assert(kLanes >= 2, "a mux needs at least two lanes");

  using Msg = LaneMsg<Ls...>;
  using Net = Base;
  template <std::size_t I>
  using LaneT = LaneNet<std::variant_alternative_t<I, Msg>, Net>;
  using NetA = LaneT<0>;
  using NetB = LaneT<1>;

  BasicLaneMux(Net& net, ProcessId self) : lanes_(LaneNet<Ls, Net>(net)...) {
    net.set_handler(self, [this](ProcessId from, const Msg& m) {
      dispatch_msg(from, m, std::index_sequence_for<Ls...>{});
    });
  }

  BasicLaneMux(const BasicLaneMux&) = delete;
  BasicLaneMux& operator=(const BasicLaneMux&) = delete;

  template <std::size_t I>
  LaneT<I>& lane() noexcept {
    return std::get<I>(lanes_);
  }
  NetA& lane_a() noexcept { return std::get<0>(lanes_); }
  NetB& lane_b() noexcept { return std::get<1>(lanes_); }

 private:
  template <std::size_t... Is>
  void dispatch_msg(ProcessId from, const Msg& m,
                    std::index_sequence<Is...>) {
    ((m.index() == Is
          ? std::get<Is>(lanes_).dispatch(from, *std::get_if<Is>(&m))
          : void(0)),
     ...);
  }

  std::tuple<LaneNet<Ls, Net>...> lanes_;
};

/// The common case: the lanes multiplex directly onto a SimNet whose
/// wire type is their variant.  (All pre-shard runtimes use this form.)
template <typename... Ls>
using LaneMux = BasicLaneMux<SimNet<LaneMsg<Ls...>>, Ls...>;

}  // namespace tokensync
