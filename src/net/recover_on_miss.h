// Payload exchange with recover-on-miss — the one dissemination lane of
// both reference-ordering designs: the compact relay (DESIGN.md §12),
// whose items are TaggedOps, and the multi-proposer sub-block lane
// (DESIGN.md §16), whose items are SubBlocks.
//
// Both designs let consensus order thin references (op ids, sub-block
// ids) instead of payloads, so both need the same lane beside it: every
// replica keeps an id-keyed store of the items it holds, pushes its own
// items to every peer eagerly, and heals the rare miss — a reference
// committed before its payload arrived, because the push was lost to
// drops, a partition or a crash — with an explicit request round-trip:
//
//   kPush   holder  -> peers    its items, eagerly;
//   kGet    replica -> peer     "send me these ids" (fetch-correlated);
//   kItems  peer    -> replica  the requested items it holds.
//
// The fetch loop is timer-driven and bounded-then-fallback:
//
//   * ask the reference's PROPOSER first (it certainly holds the payload
//     it referenced), then rotate round-robin over the remaining peers
//     (anyone that already reconstructed can serve), skipping self and
//     crashed nodes;
//   * after kFallbackAfter unanswered attempts, escalate from the
//     missing subset to the reference's ENTIRE id list, so one reply
//     restores everything at once (the short fallback);
//   * keep every in-flight fetch on one shared retry timer until the
//     owner cancels it (the ordered map makes the retry sweep
//     deterministic).
//
// Retries are unbounded, so recovery terminates on fair-lossy links as
// long as one live replica holds the payload: the proposer while it is
// up, and after it crashes anyone that already stored the payload
// (minority_crash does not also drop messages, sched/scenario.cc, so
// the proposer's pushes arrived).
//
// Traffic class: the op relay is auxiliary-class (is_aux_wire, below),
// so its pushes, requests, replies and retry timers draw from SimNet's
// second Rng/tie-break stream (common/wire.h) and the primary schedule
// is identical whether relay traffic exists or not — which is why
// committed histories are byte-identical between RelayMode::kFull and
// RelayMode::kCompact.  The sub-block lane stays PRIMARY-class: which
// references a proposal carries legitimately depends on publish arrival
// order (net/multi_proposer.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/opid_table.h"
#include "common/wire.h"

namespace tokensync {

/// Consensus-value relay policy of the block and hybrid runtimes.
enum class RelayMode : std::uint8_t {
  kFull,     ///< consensus values carry full op payloads (the baseline)
  kCompact,  ///< consensus values carry op-IDs; recover-on-miss heals gaps
};

inline const char* to_string(RelayMode m) {
  return m == RelayMode::kFull ? "full" : "compact";
}

/// The exchange lane's wire message; `Item` is the exchanged payload
/// (a TaggedOp or a SubBlock).
template <typename Item>
struct ExchangeMsg {
  enum class Type : std::uint8_t {
    kPush,   ///< holder -> peers: its items, eagerly
    kGet,    ///< replica -> peer: ids this replica is missing
    kItems,  ///< peer -> replica: the requested items it holds
  };

  Type type = Type::kPush;
  std::uint64_t key = 0;    ///< kGet/kItems fetch correlation
  std::vector<OpId> ids;    ///< kGet: requested ids
  std::vector<Item> items;  ///< kPush/kItems payloads

  std::uint64_t wire_size() const {
    std::uint64_t bytes = kWireHeaderBytes + 8 + 8 * ids.size();
    for (const Item& item : items) bytes += item.wire_size();
    return bytes;
  }
};

/// The op relay is auxiliary-class (file comment); the sub-block lane
/// keeps the primary default.
template <typename B>
struct is_aux_wire<ExchangeMsg<TaggedOp<B>>> : std::true_type {};

/// One replica's end of the exchange: the id-keyed store fed by local
/// intake and the network, the kPush/kGet/kItems protocol, and the
/// bounded-retry fetch loop.  `NetT` is the lane's facade (LaneNet over
/// the shared SimNet).
template <typename Item, typename NetT>
class PayloadExchange {
 public:
  using Msg = ExchangeMsg<Item>;
  /// Invoked once per item that arrives from the network (push or
  /// reply) and is new to the store, right after it is stored.
  using OnStore = std::function<void(const Item&)>;

  /// Retry tick of the fetch loop.
  static constexpr std::uint64_t kRetryDelay = 40;
  /// Unanswered attempts before a fetch requests the full id list.
  static constexpr int kFallbackAfter = 3;

  PayloadExchange(NetT& net, ProcessId self, OnStore on_store)
      : net_(net), self_(self), on_store_(std::move(on_store)) {
    net_.set_handler(self_, [this](ProcessId from, const Msg& m) {
      on_message(from, m);
    });
  }

  /// This replica's own `items`: stored (to serve kGet and to
  /// reconstruct its own references) and pushed to every peer in one
  /// message.  Re-publishing a stored item only pushes it again.
  void publish(std::span<const Item> items) {
    for (const Item& item : items) store_.try_emplace(id_of(item), item);
    if (!publish_enabled_) return;  // test hook: force universal misses
    Msg m;
    m.type = Msg::Type::kPush;
    m.items.assign(items.begin(), items.end());
    for (ProcessId p = 0; p < net_.num_nodes(); ++p) {
      if (p != self_) net_.send(self_, p, m);
    }
  }

  /// O(1) store lookup; nullptr when this replica has never seen `id`.
  /// Valid until the store next grows.
  const Item* find(OpId id) const { return store_.find(id); }

  /// Starts recovery of `key` (the parked reference): `missing` are the
  /// ids this replica lacks, `all` the reference's full id list (the
  /// short fallback request).  Idempotent while recovery is in flight —
  /// the retry timer drives subsequent attempts.
  void fetch(std::uint64_t key, ProcessId proposer,
             std::vector<OpId> missing, std::vector<OpId> all) {
    const auto [it, fresh] = fetches_.try_emplace(key);
    if (!fresh) return;
    Fetch& f = it->second;
    f.proposer = proposer;
    f.missing = std::move(missing);
    f.all = std::move(all);
    ++miss_recoveries_;
    request(key, f);
    arm_timer();
  }

  /// The owner resolved `key`; stop retrying it.
  void cancel(std::uint64_t key) { fetches_.erase(key); }

  bool idle() const noexcept { return fetches_.empty(); }

  /// References that entered recover-on-miss (at least one kGet sent).
  std::uint64_t miss_recoveries() const noexcept { return miss_recoveries_; }
  /// kGet requests sent (recoveries × retries).
  std::uint64_t requests_sent() const noexcept { return requests_sent_; }
  /// Recoveries that escalated to the full-id-list fallback request.
  std::uint64_t fallbacks() const noexcept { return fallbacks_; }

  /// Test hook: with publishing off, every peer misses every item and
  /// ALL reconstruction goes through the kGet round-trip.
  void set_publish_enabled(bool enabled) { publish_enabled_ = enabled; }

 private:
  struct Fetch {
    ProcessId proposer = 0;
    std::vector<OpId> missing;
    std::vector<OpId> all;
    int attempts = 0;
  };

  static OpId id_of(const Item& item) {
    if constexpr (requires { item.id(); }) {
      return item.id();
    } else {
      return item.id;
    }
  }

  void on_message(ProcessId from, const Msg& m) {
    switch (m.type) {
      case Msg::Type::kPush:
      case Msg::Type::kItems:
        for (const Item& item : m.items) {
          if (store_.try_emplace(id_of(item), item) && on_store_) {
            on_store_(item);
          }
        }
        return;
      case Msg::Type::kGet: {
        Msg reply;
        reply.type = Msg::Type::kItems;
        reply.key = m.key;
        for (OpId id : m.ids) {
          if (const Item* item = store_.find(id)) reply.items.push_back(*item);
        }
        // A partial reply still makes progress; an empty one would only
        // add chatter — the requester's rotation finds a better peer.
        if (!reply.items.empty()) net_.send(self_, from, reply);
        return;
      }
    }
  }

  void request(std::uint64_t key, Fetch& f) {
    std::erase_if(f.missing, [this](OpId id) { return store_.contains(id); });
    if (f.missing.empty()) return;  // the owner's store callback cancels it
    // Target rotation: the proposer first (it certainly has the
    // payload), then round-robin over the remaining peers, skipping
    // self and crashed nodes.
    const std::size_t n = net_.num_nodes();
    ProcessId target = static_cast<ProcessId>(
        (f.proposer + static_cast<std::size_t>(f.attempts)) % n);
    for (std::size_t hop = 0;
         hop < n && (target == self_ || net_.is_crashed(target)); ++hop) {
      target = static_cast<ProcessId>((target + 1) % n);
    }
    if (target == self_) return;  // nobody left to ask
    if (f.attempts == kFallbackAfter) ++fallbacks_;
    Msg m;
    m.type = Msg::Type::kGet;
    m.key = key;
    m.ids = f.attempts >= kFallbackAfter ? f.all : f.missing;
    ++f.attempts;
    ++requests_sent_;
    net_.send(self_, target, std::move(m));
  }

  /// The lane timer fired: re-drive every in-flight fetch and re-arm
  /// while any remain.
  void on_timer() {
    timer_armed_ = false;
    for (auto& [key, f] : fetches_) request(key, f);
    if (!fetches_.empty()) arm_timer();
  }

  void arm_timer() {
    if (timer_armed_) return;
    timer_armed_ = true;
    net_.set_timer(self_, kRetryDelay, [this] { on_timer(); });
  }

  NetT& net_;
  ProcessId self_;
  OnStore on_store_;
  bool publish_enabled_ = true;
  bool timer_armed_ = false;
  OpIdMap<Item> store_;
  std::map<std::uint64_t, Fetch> fetches_;  // ordered: deterministic retry
  std::uint64_t miss_recoveries_ = 0;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace tokensync
