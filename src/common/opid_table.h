// OpIdSet / OpIdMap<V> — flat open-addressing tables keyed by OpId.
//
// Every replica runtime keeps OpId-keyed bookkeeping on its per-op apply
// path: the exactly-once filters (net/block_replica.h,
// net/multi_proposer.h), the TxPool intake index (exec/txpool.h) and the
// relay and sub-block payload stores.  Their callers only insert, test
// membership, find, take the size and clear — none erases an id or
// iterates the keys — so one power-of-two slot array serves them all:
//
//   * linear probing from a Fibonacci-hashed home slot (the top bits of
//     id × 2^64/φ).  OpIds are splitmix hashes already, but tests pass
//     small literals and patterned ids, and the multiply spreads those
//     too;
//   * the array doubles before it passes half full, so a probe always
//     ends at an empty slot, an insert allocates nothing (amortized), and
//     teardown is one free;
//   * key 0 marks an empty slot, so the id 0 — make_op_id can yield it —
//     is kept outside the array (a flag in the set, a position in the
//     map).
//
// OpIdMap keeps its values densely in insertion order; find() points
// into that array, so the pointer is valid only until the next insert.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/wire.h"

namespace tokensync {

namespace detail {

struct NoPayload {};

/// The probing routine OpIdSet and OpIdMap share: slots of {key,
/// payload}, where OpIdMap's payload is the value's position and the
/// set's is empty (so its slot is the bare 8-byte key).
template <typename Payload>
class OpIdSlots {
 public:
  struct Slot {
    OpId key = 0;  ///< 0 = empty
    [[no_unique_address]] Payload payload{};
  };

  /// Nonzero keys stored.
  std::size_t used() const noexcept { return used_; }

  /// The slot holding `id` (≠ 0), or nullptr.
  const Slot* find(OpId id) const noexcept {
    if (used_ == 0) return nullptr;
    const Slot& s = slots_[probe(id)];
    return s.key == id ? &s : nullptr;
  }

  /// The slot holding `id` (≠ 0), claimed for it when absent; `second`
  /// is true iff it was claimed now (the caller fills the payload).
  std::pair<Slot*, bool> claim(OpId id) {
    if (!slots_.empty()) {
      Slot& s = slots_[probe(id)];
      if (s.key == id) return {&s, false};
      if (2 * (used_ + 1) <= slots_.size()) return {take(s, id), true};
    }
    grow();
    return {take(slots_[probe(id)], id), true};
  }

  /// Empties every slot; the array keeps its size.
  void clear() noexcept {
    for (Slot& s : slots_) s = Slot{};
    used_ = 0;
  }

 private:
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;

  /// The slot holding `id`, or the empty slot where the walk from its
  /// home slot ends (there always is one: the array is never full).
  std::size_t probe(OpId id) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>((id * kFibonacci) >> shift_);
    while (slots_[i].key != id && slots_[i].key != 0) i = (i + 1) & mask;
    return i;
  }

  Slot* take(Slot& s, OpId id) noexcept {
    s.key = id;
    ++used_;
    return &s;
  }

  void grow() {
    const std::size_t n = slots_.empty() ? kMinSlots : 2 * slots_.size();
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (const Slot& s : old) {
      if (s.key != 0) slots_[probe(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64;
  std::size_t used_ = 0;
};

static_assert(sizeof(OpIdSlots<NoPayload>::Slot) == sizeof(OpId),
              "a set slot is the bare key");

}  // namespace detail

/// A set of OpIds: insert, membership, size, clear.
class OpIdSet {
 public:
  /// Adds `id`; true iff it was not present.
  bool insert(OpId id) {
    if (id == 0) return !std::exchange(has_zero_, true);
    return slots_.claim(id).second;
  }

  bool contains(OpId id) const noexcept {
    return id == 0 ? has_zero_ : slots_.find(id) != nullptr;
  }

  std::size_t size() const noexcept {
    return slots_.used() + (has_zero_ ? 1 : 0);
  }

  void clear() noexcept {
    slots_.clear();
    has_zero_ = false;
  }

 private:
  detail::OpIdSlots<detail::NoPayload> slots_;
  bool has_zero_ = false;
};

/// An OpId-keyed map whose values sit densely in insertion order.
template <typename V>
class OpIdMap {
 public:
  /// Inserts V(args...) under `id` iff `id` is absent; true iff it
  /// inserted.  A present id constructs, copies and moves nothing.
  template <typename... Args>
  bool try_emplace(OpId id, Args&&... args) {
    std::uint32_t* pos = &zero_pos_;
    if (id == 0) {
      if (zero_pos_ != kAbsent) return false;
    } else {
      const auto [slot, fresh] = slots_.claim(id);
      if (!fresh) return false;
      pos = &slot->payload;
    }
    TS_ASSERT(values_.size() < kAbsent);
    *pos = static_cast<std::uint32_t>(values_.size());
    values_.emplace_back(std::forward<Args>(args)...);
    return true;
  }

  /// The value under `id`, or nullptr; valid until the next insert.
  const V* find(OpId id) const noexcept {
    if (id == 0) return zero_pos_ == kAbsent ? nullptr : &values_[zero_pos_];
    const auto* slot = slots_.find(id);
    return slot ? &values_[slot->payload] : nullptr;
  }

  bool contains(OpId id) const noexcept { return find(id) != nullptr; }

  std::size_t size() const noexcept { return values_.size(); }

  /// Every value, in insertion order.
  const std::vector<V>& values() const noexcept { return values_; }

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  detail::OpIdSlots<std::uint32_t> slots_;
  std::uint32_t zero_pos_ = kAbsent;
  std::vector<V> values_;
};

}  // namespace tokensync
