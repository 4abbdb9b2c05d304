// Tests for the discrete-event network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "net/simnet.h"

namespace tokensync {
namespace {

struct Ping {
  int id = 0;
};

TEST(SimNet, DeliversInTimeOrder) {
  NetConfig cfg;
  cfg.seed = 1;
  cfg.min_delay = 1;
  cfg.max_delay = 5;
  SimNet<Ping> net(2, cfg);
  std::vector<int> got;
  net.set_handler(1, [&](ProcessId, const Ping& p) { got.push_back(p.id); });
  for (int i = 0; i < 50; ++i) net.send(0, 1, Ping{i});
  net.run();
  EXPECT_EQ(got.size(), 50u);
  // Delivery respects simulated time monotonically (checked implicitly by
  // run()); with random delays order may be permuted.
  std::vector<int> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(SimNet, DropsApproximatelyAtConfiguredRate) {
  NetConfig cfg;
  cfg.seed = 7;
  cfg.drop_num = 30;  // 30%
  SimNet<Ping> net(2, cfg);
  int delivered = 0;
  net.set_handler(1, [&](ProcessId, const Ping&) { ++delivered; });
  for (int i = 0; i < 2000; ++i) net.send(0, 1, Ping{i});
  net.run();
  EXPECT_GT(delivered, 1200);
  EXPECT_LT(delivered, 1600);
  EXPECT_EQ(net.stats().dropped + static_cast<std::uint64_t>(delivered),
            2000u);
}

TEST(SimNet, CrashedNodesNeitherSendNorReceive) {
  SimNet<Ping> net(3, NetConfig{});
  int got1 = 0, got2 = 0;
  net.set_handler(1, [&](ProcessId, const Ping&) { ++got1; });
  net.set_handler(2, [&](ProcessId, const Ping&) { ++got2; });
  net.crash(1);
  net.send(0, 1, Ping{1});  // to crashed: dropped at delivery
  net.send(1, 2, Ping{2});  // from crashed: never sent
  net.run();
  EXPECT_EQ(got1, 0);
  EXPECT_EQ(got2, 0);
}

TEST(SimNet, PartitionFilterBlocksLinks) {
  SimNet<Ping> net(2, NetConfig{});
  int got = 0;
  net.set_handler(1, [&](ProcessId, const Ping&) { ++got; });
  net.set_link_filter([](ProcessId from, ProcessId to, std::uint64_t) {
    return !(from == 0 && to == 1);  // one-way partition
  });
  net.send(0, 1, Ping{1});
  net.run();
  EXPECT_EQ(got, 0);
}

TEST(SimNet, TimersFireAtRequestedDelay) {
  SimNet<Ping> net(1, NetConfig{});
  std::vector<std::uint64_t> fired;
  net.set_timer_handler(0, [&](std::uint64_t id) {
    fired.push_back(id);
    EXPECT_EQ(net.now(), 10 * (id + 1));
  });
  net.set_timer(0, 10, 0);
  net.set_timer(0, 20, 1);
  net.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1}));
}

TEST(SimNet, DeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    NetConfig cfg;
    cfg.seed = seed;
    cfg.min_delay = 1;
    cfg.max_delay = 20;
    SimNet<Ping> net(2, cfg);
    std::vector<int> got;
    net.set_handler(1,
                    [&](ProcessId, const Ping& p) { got.push_back(p.id); });
    for (int i = 0; i < 100; ++i) net.send(0, 1, Ping{i});
    net.run();
    return got;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));  // delays actually vary
}

TEST(SimNet, HandlerGrowsTheEventSlabDuringDispatch) {
  // One delivery fans out into 2000 sends while its handler still reads
  // the message: the dispatched event must already live outside the slab
  // the sends grow.
  SimNet<Ping> net(2, NetConfig{.seed = 3, .min_delay = 1, .max_delay = 4});
  std::vector<int> got;
  net.set_handler(0, [&](ProcessId, const Ping& p) {
    for (int i = 1; i <= 2000; ++i) net.send(0, 1, Ping{p.id + i});
    got.push_back(p.id);
  });
  net.set_handler(1, [&](ProcessId, const Ping& p) { got.push_back(p.id); });
  net.send(1, 0, Ping{1000});
  // A callback fanning out the same way keeps its captures alive too.
  const std::vector<int> ids(500, 7);
  net.call_at(0, 2, [&net, &got, ids] {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      net.call_at(0, 1, [&got] { got.push_back(-1); });
    }
    got.push_back(ids.back());
  });
  net.run();
  EXPECT_GE(net.event_slots(), 2000u);
  ASSERT_EQ(got.size(), 2u + 2000u + 500u);
  std::vector<int> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::count(sorted.begin(), sorted.end(), -1), 500);
  EXPECT_EQ(std::count(sorted.begin(), sorted.end(), 7), 1);
  for (int i = 0; i <= 2000; ++i) {
    EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), 1000 + i));
  }
}

TEST(SimNet, SlotsAreReusedAcrossInterleavedPushesAndPops) {
  // A random interleaving of schedules and single steps, checked against
  // a reference queue ordered by (time, insertion order).
  SimNet<Ping> net(1, NetConfig{});
  Rng rng(77);
  std::vector<std::pair<std::uint64_t, int>> pending;  // (time, id)
  std::vector<int> fired, expected;
  std::size_t peak = 0;
  int next_id = 0;
  for (int round = 0; round < 3000; ++round) {
    if (pending.empty() || rng.chance(1, 2)) {
      const int id = next_id++;
      const std::uint64_t delay = rng.range(0, 6);
      pending.emplace_back(net.now() + delay, id);
      net.call_at(0, delay, [&fired, id] { fired.push_back(id); });
      peak = std::max(peak, pending.size());
    } else {
      const auto first = std::min_element(pending.begin(), pending.end());
      expected.push_back(first->second);
      pending.erase(first);
      ASSERT_TRUE(net.step());
    }
  }
  EXPECT_EQ(fired, expected);
  // Every slot freed by a pop was handed to a later push.
  EXPECT_EQ(net.event_slots(), peak);
}

TEST(SimNet, EqualTimePrimaryAndAuxEventsPopInTieOrder) {
  // Primary events draw even ties, aux events odd ones, each sequence in
  // push order; at equal time the smaller tie pops first.
  SimNet<Ping> net(1, NetConfig{});
  std::vector<std::uint64_t> fired;
  net.set_timer_handler(0, [&](std::uint64_t id) { fired.push_back(id); });
  net.set_timer(0, 5, 0);      // tie 0
  net.set_timer(0, 5, 1);      // tie 2
  net.set_timer_aux(0, 5, 2);  // tie 1
  net.set_timer(0, 5, 3);      // tie 4
  net.set_timer_aux(0, 5, 4);  // tie 3
  net.set_timer_aux(0, 5, 5);  // tie 5
  net.set_timer(0, 3, 6);      // earlier time wins over any tie
  net.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{6, 0, 2, 1, 4, 3, 5}));
}

}  // namespace
}  // namespace tokensync
