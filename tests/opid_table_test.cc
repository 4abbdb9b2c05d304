// OpIdSet and OpIdMap (common/opid_table.h) against std::unordered_set
// and std::unordered_map: seeded random operations over many capacity
// doublings, with keys drawn from the families a missing special case
// or a weak slot mix would trip over — 0 (the empty-slot marker),
// UINT64_MAX, ids with only high bits set (i << 32, i << 48), multiples
// of power-of-two capacities, small literals and real make_op_id ids.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/opid_table.h"
#include "common/rng.h"
#include "common/wire.h"

namespace tokensync {
namespace {

/// One key from a random family; `span` bounds the index inside the
/// family, so keys repeat and inserts often hit present ids.
OpId draw_key(Rng& rng, std::uint64_t span) {
  const std::uint64_t i = rng.below(span);
  switch (rng.below(7)) {
    case 0:
      return rng.chance(1, 2) ? 0 : UINT64_MAX;
    case 1:
      return i << 32;
    case 2:
      return i << 48;
    case 3:  // a multiple of a capacity from 16 to 32768 slots
      return i << (4 + rng.below(12));
    case 4:
      return i;
    case 5:
      return UINT64_MAX - i;
    default:
      return make_op_id(static_cast<ProcessId>(i % 4), i);
  }
}

/// A value that counts how often it is built from a payload and how
/// often it is copied (moves, as in the value array's growth, are free).
struct Counted {
  static inline std::size_t built = 0;
  static inline std::size_t copies = 0;

  std::uint64_t v = 0;

  explicit Counted(std::uint64_t x) : v(x) { ++built; }
  Counted(const Counted& o) : v(o.v) { ++copies; }
  Counted(Counted&& o) noexcept : v(o.v) {}
};

TEST(OpIdSet, MatchesUnorderedSetOverRandomOps) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    OpIdSet set;
    std::unordered_set<OpId> ref;
    // ~18k inserts per half, ~3.5k of them of present ids: the table
    // grows from 16 to 32768 slots (eleven doublings), is cleared half
    // way, keeping its array, and fills again.
    for (int step = 0; step < 60000; ++step) {
      if (step == 30000) {
        set.clear();
        ref.clear();
      }
      const OpId k = draw_key(rng, 20000);
      if (rng.below(10) < 6) {
        ASSERT_EQ(set.insert(k), ref.insert(k).second)
            << "seed " << seed << " step " << step << " key " << k;
      } else {
        ASSERT_EQ(set.contains(k), ref.contains(k))
            << "seed " << seed << " step " << step << " key " << k;
      }
      ASSERT_EQ(set.size(), ref.size());
    }
    for (const OpId k : ref) ASSERT_TRUE(set.contains(k)) << k;
  }
}

TEST(OpIdMap, MatchesUnorderedMapAndKeepsInsertionOrder) {
  for (const std::uint64_t seed : {4u, 5u}) {
    Rng rng(seed);
    OpIdMap<Counted> map;
    std::unordered_map<OpId, std::uint64_t> ref;
    std::vector<std::uint64_t> order;
    for (int step = 0; step < 60000; ++step) {
      const OpId k = draw_key(rng, 20000);
      const std::uint64_t v = rng.next();
      const std::size_t built = Counted::built;
      const std::size_t copies = Counted::copies;
      switch (rng.below(3)) {
        case 0: {  // built in place from the payload, only when fresh
          const bool fresh = ref.try_emplace(k, v).second;
          ASSERT_EQ(map.try_emplace(k, v), fresh) << "key " << k;
          EXPECT_EQ(Counted::built, built + (fresh ? 1 : 0));
          EXPECT_EQ(Counted::copies, copies);
          if (fresh) order.push_back(v);
          break;
        }
        case 1: {  // copied from an lvalue, only when fresh
          const Counted c(v);
          const bool fresh = ref.try_emplace(k, v).second;
          ASSERT_EQ(map.try_emplace(k, c), fresh) << "key " << k;
          EXPECT_EQ(Counted::copies, copies + (fresh ? 1 : 0));
          if (fresh) order.push_back(v);
          break;
        }
        default: {
          const Counted* got = map.find(k);
          const auto it = ref.find(k);
          ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << k;
          if (got) {
            ASSERT_EQ(got->v, it->second) << "key " << k;
          }
          ASSERT_EQ(map.contains(k), it != ref.end());
        }
      }
      ASSERT_EQ(map.size(), ref.size());
    }
    // ~30k keys (16 → 65536 slots): after every doubling each key still
    // finds its own value, and the values come back in insertion order.
    for (const auto& [k, v] : ref) {
      const Counted* got = map.find(k);
      ASSERT_NE(got, nullptr) << k;
      EXPECT_EQ(got->v, v);
    }
    ASSERT_EQ(map.values().size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(map.values()[i].v, order[i]) << "position " << i;
    }
  }
}

}  // namespace
}  // namespace tokensync
