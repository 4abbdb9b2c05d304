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
//   * LaneNet<Sub, Base> — the one per-node facade, for a lane or a
//     shard group (net/shard_group.h).  It presents exactly the SimNet
//     surface the engines use (send, send_all, set_handler, set_timer,
//     set_timer_aux, num_nodes, now, is_crashed), wrapping outgoing
//     messages into its base's wire: the variant, or GroupMsg{tag, m}.
//     Timers are closures and need no routing back: a lane whose message
//     type is auxiliary-class (is_aux_wire, common/wire.h) arms them
//     through set_timer_aux, keeping relay timers out of the primary
//     tie-break sequence;
//   * BasicLaneMux<Base, Ls...> — owns the lane facades for one node and
//     installs the base net's handler that dispatches on the variant
//     alternative; its base is a SimNet (LaneMux) or a group's facade.
//
// Fault semantics are untouched: drops, duplication, partitions and
// crashes happen on the BASE net, so all lanes see the same network
// weather — exactly what the hybrid runtime's fault matrix needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <tuple>
#include <type_traits>
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

/// One message of one replica group on the shared net.  The tag rides
/// the wire header (it does not add payload bytes — kWireHeaderBytes
/// already charges routing metadata).
template <typename Sub>
struct GroupMsg {
  std::uint32_t group = 0;
  Sub inner{};

  std::uint64_t wire_size() const { return wire_size_of(inner); }
};

/// Scheduling class forwards to the wrapped lane message: a group's
/// relay/recovery traffic stays auxiliary, its consensus traffic stays
/// primary (the §12.4 invariance argument, per group).
template <typename Sub>
bool is_aux_msg(const GroupMsg<Sub>& m) {
  return is_aux_msg(m.inner);
}

/// Per-node facade over the shared base net.  A send wraps into the
/// base's wire: GroupMsg{tag, m} (the sharded node passes each group's
/// index as `tag`), else the variant alternative `Sub`.
template <typename Sub, typename Base>
class LaneNet {
 public:
  using MsgType = Sub;
  using Handler = std::function<void(ProcessId from, const Sub&)>;
  using Callback = typename Base::Callback;

  explicit LaneNet(Base& base, std::uint32_t tag = 0)
      : base_(base), tag_(tag) {}

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
  void set_timer_aux(ProcessId node, std::uint64_t delay, Callback fn) {
    base_.set_timer_aux(node, delay, std::move(fn));
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
    if constexpr (std::is_same_v<typename Base::MsgType, GroupMsg<Sub>>) {
      return GroupMsg<Sub>{tag_, std::move(m)};
    } else {
      return typename Base::MsgType(std::in_place_type<Sub>, std::move(m));
    }
  }

  Base& base_;
  std::uint32_t tag_;
  Handler handler_;
};

/// One node's set of lane facades plus the base-net dispatch glue.
/// Construct it BEFORE the protocol engines (they bind to the facades),
/// and keep it alive as long as they are (the facades hold their
/// handlers).
///
/// `Base` is any net presenting the SimNet surface with
/// `MsgType = LaneMsg<Ls...>` — a real SimNet (the `LaneMux` alias
/// below) or a shard group's LaneNet over the group-tagged wire
/// (net/shard_group.h), which lets a whole lane STACK ride one group of
/// a partitioned cluster.
template <typename Base, typename... Ls>
class BasicLaneMux {
 public:
  static constexpr std::size_t kLanes = sizeof...(Ls);
  static_assert(kLanes >= 2, "a mux needs at least two lanes");

  using Msg = LaneMsg<Ls...>;
  using Net = Base;
  template <std::size_t I>
  using LaneT = LaneNet<std::variant_alternative_t<I, Msg>, Net>;

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
