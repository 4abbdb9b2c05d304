// Snapshot<Spec> — a deterministic, equality-comparable cut of a
// replica at a slot boundary (DESIGN.md §13, the ISSUE 7 tentpole).
//
// Because ReplayEngine state is a pure function of the committed block
// sequence (DESIGN.md §10), a snapshot needs no fuzzy "fuzzy point in
// time": cut at slot boundary B, it is
//
//   * next_slot        — the watermark: every slot < B is covered;
//   * state            — the sequential ledger image after slot B-1;
//   * origin_frontier  — the total-order broadcast's per-origin
//                        delivered-nonce frontier (exact, because each
//                        origin's nonces deliver in order —
//                        total_order.h), which REPLACES the unbounded
//                        (origin, nonce) dedup set with one integer per
//                        replica;
//   * applied_ids      — the OpIds applied in slots < B (sorted), the
//                        double-submit dedup set a rejoiner must carry
//                        forward so a client resubmission of an already
//                        committed op cannot apply twice.
//
// Every replica cutting at the same boundary therefore produces the
// same snapshot — content_hash() equality across replicas IS the
// snapshot correctness check the recovery tests assert.
//
// Serialization is a flat little-endian byte stream via ByteWriter /
// ByteReader; per-spec state encoding is the StateCodec<State>
// customization point (specialized for the token family in
// exec/exec_specs.h).  The content hash is 64-bit FNV-1a over the
// encoding (common/hash.h, as for history digests), so "same hash"
// means "same bytes" means "same cut".
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "atomic/ledger.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/wire.h"

namespace tokensync {

/// Little-endian append-only encoder for snapshot bytes.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xff);
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian decoder (TS_EXPECTS on overrun — a
/// malformed snapshot is a programming error in this model, not an
/// adversarial input).
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& in) : in_(in) {}

  std::uint8_t u8() {
    TS_EXPECTS(pos_ + 1 <= in_.size());
    return in_[pos_++];
  }
  std::uint32_t u32() {
    TS_EXPECTS(pos_ + 4 <= in_.size());
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    TS_EXPECTS(pos_ + 8 <= in_.size());
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    }
    return v;
  }
  bool exhausted() const noexcept { return pos_ == in_.size(); }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

/// Per-state-type codec customization point.  Specialize with
///   static void encode(ByteWriter&, const State&);
///   static State decode(ByteReader&);
/// The token family's specializations live in exec/exec_specs.h.
template <typename State>
struct StateCodec;

template <ConcurrentTokenSpec S>
struct Snapshot {
  using SeqState = typename S::SeqState;

  std::uint64_t next_slot = 0;
  SeqState state{};
  std::vector<std::uint64_t> origin_frontier;
  std::vector<OpId> applied_ids;  ///< sorted (canonical encoding)

  friend bool operator==(const Snapshot&, const Snapshot&) = default;

  std::vector<std::uint8_t> serialize() const {
    ByteWriter w;
    w.u64(next_slot);
    StateCodec<SeqState>::encode(w, state);
    w.u64(origin_frontier.size());
    for (std::uint64_t f : origin_frontier) w.u64(f);
    TS_EXPECTS(std::is_sorted(applied_ids.begin(), applied_ids.end()));
    w.u64(applied_ids.size());
    for (OpId id : applied_ids) w.u64(id);
    return w.take();
  }

  static Snapshot deserialize(const std::vector<std::uint8_t>& bytes) {
    ByteReader r(bytes);
    Snapshot s;
    s.next_slot = r.u64();
    s.state = StateCodec<SeqState>::decode(r);
    s.origin_frontier.resize(r.u64());
    for (auto& f : s.origin_frontier) f = r.u64();
    s.applied_ids.resize(r.u64());
    for (auto& id : s.applied_ids) id = r.u64();
    TS_EXPECTS(r.exhausted());
    return s;
  }

  /// FNV-1a over the encoding: equal across replicas that cut the same
  /// boundary of the same committed prefix.
  std::uint64_t content_hash() const { return fnv1a(serialize()); }
};

}  // namespace tokensync
