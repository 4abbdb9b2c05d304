// Tests for the discrete-event network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
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
  for (const std::uint64_t id : {0, 1}) {
    net.set_timer(0, 10 * (id + 1), [&net, &fired, id] {
      fired.push_back(id);
      EXPECT_EQ(net.now(), 10 * (id + 1));
    });
  }
  net.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1}));
}

TEST(SimNet, TimersOfAnEarlierIncarnationNeverFire) {
  // Node 0 crashes at 5 and restarts at 10.  Its timers armed before the
  // crash and due at 20 die with the incarnation that armed them; client
  // entries due at 20 (call_at, script_at) and a timer armed after the
  // restart run.
  SimNet<Ping> net(1, NetConfig{});
  std::string fired;
  const auto note = [&fired](char what) {
    return [&fired, what] { fired.push_back(what); };
  };
  net.set_timer(0, 20, note('t'));
  net.set_timer_aux(0, 20, note('x'));
  net.call_at(0, 20, note('c'));
  net.script_at(0, 20, note('s'));
  net.schedule(5, [&net] { net.crash(0); });
  net.schedule(10, [&net, &note] {
    net.restart(0);
    net.set_timer(0, 10, note('n'));
  });
  EXPECT_EQ(net.run(), 7u);
  EXPECT_EQ(fired, "csn");
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
  const auto note = [&fired](std::uint64_t id) {
    return [&fired, id] { fired.push_back(id); };
  };
  net.set_timer(0, 5, note(0));      // tie 0
  net.set_timer(0, 5, note(1));      // tie 2
  net.set_timer_aux(0, 5, note(2));  // tie 1
  net.set_timer(0, 5, note(3));      // tie 4
  net.set_timer_aux(0, 5, note(4));  // tie 3
  net.set_timer_aux(0, 5, note(5));  // tie 5
  net.set_timer(0, 3, note(6));      // earlier time wins over any tie
  net.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{6, 0, 2, 1, 4, 3, 5}));
}

// --- The client script (script_at): a sorted cursor beside the heap.

/// One observed firing: (kind, node, id, now).
using Fired = std::tuple<char, ProcessId, std::uint64_t, std::uint64_t>;

/// A mixed run on a lossy, duplicating 3-node net: a client script of
/// 300 entries registered out of time order, interleaved with control
/// events (a crash and a restart); each entry sends a message and arms a
/// primary and an aux timer at the same tick, and some schedule an
/// in-run call_at.  Handlers forward messages and timers re-send, so the
/// heap carries real traffic between script entries.  `scripted` picks
/// how the script is registered: script_at, or call_at (the reference).
/// Returns every firing and now() after every step.
std::pair<std::vector<Fired>, std::vector<std::uint64_t>> mixed_run(
    bool scripted) {
  constexpr std::size_t kN = 3;
  SimNet<Ping> net(kN, NetConfig{.seed = 19, .min_delay = 1, .max_delay = 4,
                                 .drop_num = 10, .dup_num = 10});
  std::vector<Fired> fired;
  for (ProcessId p = 0; p < kN; ++p) {
    net.set_handler(p, [&net, &fired, p](ProcessId, const Ping& m) {
      fired.emplace_back('m', p, m.id, net.now());
      if (m.id % 3 == 0 && m.id < 5000) {
        net.send(p, (p + 1) % kN, Ping{m.id + 1});
      }
    });
  }
  const auto timer = [&net, &fired](ProcessId p, std::uint64_t id) {
    return [&net, &fired, p, id] {
      fired.emplace_back('t', p, id, net.now());
      if (id % 4 == 0) net.send(p, (p + 2) % kN, Ping{static_cast<int>(id)});
    };
  };
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    if (i == 100) net.schedule(40, [&net] { net.crash(2); });
    if (i == 200) net.schedule(90, [&net] { net.restart(2); });
    const auto node = static_cast<ProcessId>(rng.below(kN));
    const std::uint64_t t = rng.range(0, 150);
    auto fn = [&net, &fired, &timer, node, i] {
      fired.emplace_back('c', node, i, net.now());
      net.send(node, (node + 1) % kN, Ping{3 * i});
      const auto id = 2 * static_cast<std::uint64_t>(i);
      net.set_timer(node, 3, timer(node, id));
      net.set_timer_aux(node, 3, timer(node, id + 1));
      if (i % 7 == 0) {
        net.call_at(node, 2, [&net, &fired, node, i] {
          fired.emplace_back('a', node, i, net.now());
        });
      }
    };
    if (scripted) {
      net.script_at(node, t, fn);
    } else {
      net.call_at(node, t, fn);
    }
  }
  std::vector<std::uint64_t> nows;
  while (net.step()) nows.push_back(net.now());
  return {fired, nows};
}

TEST(SimNetScript, FiresTheSequenceCallAtWould) {
  const auto heap = mixed_run(false);
  const auto script = mixed_run(true);
  ASSERT_GT(heap.first.size(), 1000u);
  EXPECT_EQ(heap.first, script.first);
  EXPECT_EQ(heap.second, script.second);
  // The crash window dropped some of node 2's entries, in both runs.
  const auto calls = std::count_if(
      script.first.begin(), script.first.end(),
      [](const Fired& f) { return std::get<0>(f) == 'c'; });
  EXPECT_GT(calls, 0);
  EXPECT_LT(calls, 300);
}

TEST(SimNetScript, OutOfOrderRegistrationFiresInTimeThenTieOrder) {
  SimNet<Ping> net(1, NetConfig{});
  std::vector<std::pair<int, std::uint64_t>> fired;  // (id, now)
  const std::uint64_t times[] = {5, 3, 5, 1, 3, 9, 0};
  for (int id = 0; id < 7; ++id) {
    net.script_at(0, times[id], [&net, &fired, id] {
      fired.emplace_back(id, net.now());
    });
  }
  net.run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, std::uint64_t>>{
                       {6, 0}, {3, 1}, {1, 3}, {4, 3}, {0, 5}, {2, 5},
                       {5, 9}}));
}

TEST(SimNetScript, EntriesOfACrashedNodeAreDroppedUntilItRestarts) {
  SimNet<Ping> net(2, NetConfig{});
  std::vector<std::uint64_t> fired;
  for (const std::uint64_t t : {5, 10, 12, 20, 30}) {
    net.script_at(1, t, [&net, &fired] { fired.push_back(net.now()); });
  }
  net.script_at(0, 11, [&net, &fired] { fired.push_back(100 + net.now()); });
  net.schedule(7, [&net] { net.crash(1); });
  net.schedule(15, [&net] { net.restart(1); });
  EXPECT_EQ(net.run(), 8u);  // six entries and two control events
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{5, 111, 20, 30}));
}

TEST(SimNetScript, ScriptEntriesKeepTheNetBusyAndCountAsEvents) {
  SimNet<Ping> net(1, NetConfig{});
  int fired = 0;
  EXPECT_TRUE(net.idle());
  for (std::uint64_t t = 1; t <= 5; ++t) {
    net.script_at(0, t, [&fired] { ++fired; });
  }
  EXPECT_FALSE(net.idle());  // only script entries remain
  EXPECT_EQ(net.run(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(net.idle());
  EXPECT_EQ(net.run(), 3u);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(net.idle());
  EXPECT_FALSE(net.step());
}

TEST(SimNetScript, EventSlotsCountOnlyHeapEvents) {
  // 2000 scripted entries, each putting one message in flight that lands
  // before the next entry fires: one slot serves the whole run.
  SimNet<Ping> net(2, NetConfig{.seed = 4, .min_delay = 1, .max_delay = 3});
  int delivered = 0;
  net.set_handler(1, [&delivered](ProcessId, const Ping&) { ++delivered; });
  for (std::uint64_t i = 0; i < 2000; ++i) {
    net.script_at(0, 10 * i, [&net] { net.send(0, 1, Ping{}); });
  }
  EXPECT_EQ(net.event_slots(), 0u);
  EXPECT_EQ(net.run(), 4000u);
  EXPECT_EQ(delivered, 2000);
  EXPECT_EQ(net.event_slots(), 1u);
}

TEST(SimNetScript, RegistrationAfterTheFirstStepIsRefused) {
  SimNet<Ping> net(1, NetConfig{});
  net.script_at(0, 1, [] {});
  ASSERT_TRUE(net.step());
  EXPECT_DEATH(net.script_at(0, 5, [] {}), "precondition failed: !started_");
}

}  // namespace
}  // namespace tokensync
