// Wire-size model and relay identities — the vocabulary of ISSUE 6's
// compact relay.
//
// Every message that crosses the simulated network has a wire size: a
// constant per-message framing header plus payload-proportional bytes.
// SimNet accumulates these into NetStats::bytes_sent / bytes_delivered,
// which is the metric the compact relay moves (DESIGN.md §12).  The model
// is deliberately simple and uniform:
//
//   * kWireHeaderBytes    — per-message framing: transport header, MAC,
//                           message type/route fields.  Constant, so a
//                           protocol that sends fewer messages pays fewer
//                           header bytes — this is what the batched ERB
//                           lane amortizes;
//   * kOpAuthBytes        — per-operation authentication: a 64-byte owner
//                           signature plus a 32-byte verification key
//                           (token operations are client-signed, so a
//                           relayed op always carries its proof — unless a
//                           batch of SAME-ORIGIN ops shares one signature,
//                           the fast-lane batching lever);
//   * wire_size_of(m)     — the customization point: uses m.wire_size()
//                           when the type provides one, sizeof(m) as the
//                           flat-struct fallback (exact for POD leaf ops
//                           like Erc20Op), and the held alternative's size
//                           for std::variant wire types (lane muxing adds
//                           no modeled overhead beyond the header already
//                           counted by the alternative).
//
// Relay identity: an OpId names one client operation cluster-wide — the
// splitmix-style hash of (origin replica, intake sequence number).  The
// submitting replica's id makes OpIds unique across replicas even when
// the same account submits at several of them; the hash keeps ids a
// fixed 8 bytes on the wire regardless of what they name.
//
// Traffic classes: relay recovery traffic (the op exchange's pushes
// and kGet round-trips, net/recover_on_miss.h) must not perturb the
// PRIMARY schedule — committed histories have to stay byte-identical
// between full and compact relay modes.  Types tagged via
// is_aux_wire<> draw their delays/drops from a second, independently
// seeded Rng stream inside SimNet and use a disjoint tie-break
// sequence, so the primary lanes' event schedule is bit-for-bit the
// same whether or not relay traffic exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/ids.h"

namespace tokensync {

/// Per-message framing constant (transport header + MAC + type/route).
inline constexpr std::uint64_t kWireHeaderBytes = 64;

/// Per-operation authentication: 64-byte signature + 32-byte public key.
inline constexpr std::uint64_t kOpAuthBytes = 96;

/// Cluster-wide operation identity (8 bytes on the wire).
using OpId = std::uint64_t;

/// OpId of the `seq`-th operation taken in at replica `origin`.
inline OpId make_op_id(ProcessId origin, std::uint64_t seq) {
  std::size_t h = 0x517cc1b727220a95ull;
  hash_combine(h, origin);
  hash_combine(h, seq);
  return static_cast<OpId>(h);
}

/// True when T models its own wire size.
template <typename T>
concept HasWireSize = requires(const T& t) {
  { t.wire_size() } -> std::convertible_to<std::uint64_t>;
};

template <typename T>
std::uint64_t wire_size_of(const T& m);

template <typename... Ts>
std::uint64_t wire_size_of(const std::variant<Ts...>& m) {
  return std::visit([](const auto& sub) { return wire_size_of(sub); }, m);
}

template <typename T>
std::uint64_t wire_size_of(const T& m) {
  if constexpr (HasWireSize<T>) {
    return m.wire_size();
  } else {
    // Flat-struct fallback: exact for POD leaf payloads (ops, scalars).
    return static_cast<std::uint64_t>(sizeof(T));
  }
}

/// An operation together with its relay identity — the unit pushed,
/// requested and shipped by the compact relay's payload exchange.
template <typename B>
struct TaggedOp {
  OpId id = 0;
  B op;

  std::uint64_t wire_size() const { return 8 + wire_size_of(op); }

  friend bool operator==(const TaggedOp&, const TaggedOp&) = default;
};

/// Auxiliary-class marker: specialize to true for wire types whose
/// traffic must not perturb the primary schedule (relay recovery).
template <typename T>
struct is_aux_wire : std::false_type {};

template <typename T>
inline constexpr bool is_aux_wire_v = is_aux_wire<T>::value;

/// Class of a concrete message instance; for variants, the class of the
/// held alternative.
template <typename T>
bool is_aux_msg(const T&) {
  return is_aux_wire_v<T>;
}

template <typename... Ts>
bool is_aux_msg(const std::variant<Ts...>& m) {
  return std::visit(
      [](const auto& sub) {
        return is_aux_wire_v<std::decay_t<decltype(sub)>>;
      },
      m);
}

}  // namespace tokensync
