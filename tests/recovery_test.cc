// The recovery-subsystem acceptance suite (ISSUE 7):
//   * snapshot codec — serialize/deserialize roundtrips bit-exactly, and
//     any field mutation moves the content hash;
//   * crash_rejoin end to end — the rebuilt replica installs a fetched
//     snapshot, replays the retained log suffix, and commits a history
//     byte-identical to every correct replica's suffix from its install
//     boundary (with the snapshot hash pinned to the reference's retained
//     hash at the same boundary), with and without pruning;
//   * rejoin-from-empty — snapshot_interval = 0 leaves nothing to
//     install: the rejoiner replays the WHOLE retained log from slot 0;
//   * the stale-snapshot variant — a stale first install is superseded;
//   * compact relay — a snapshot's nonce frontier is the one its boundary
//     slot was delivered with, even while later slots are delivered
//     behind a parked head;
//   * edge cases — rejoin inside an active partition, cuts after an
//     install (every later cut of the rejoiner hashes equal to a
//     survivor's at the same boundary, across a racing double submit),
//     rejoin exactly at a fully-covering boundary (zero catch-up ops), a
//     snapshot cut racing a deadline block cut across replay thread
//     counts, and prune-then-query (the kPruned redirect re-aims the
//     fetch instead of stalling);
//   * snapshot invariance — all recovery traffic is auxiliary-class, so
//     in a run where nobody rejoins the committed history is invariant
//     to snapshot_interval and prune;
//   * retained-log figures — retained bytes and pruned slots pinned as
//     integers per block workload × fault × cadence × prune, and a
//     rejoiner's own, which count from its install slot up;
//   * the double-submit guard — an OpId resubmitted against a replica
//     whose history already applied it is refused at intake, and a
//     racing resubmission through a SECOND replica (two blocks carrying
//     the same id) applies exactly once everywhere;
//   * hybrid terminal snapshots — converged + finalized hybrid replicas
//     produce equal terminal_snapshot() content hashes.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_specs.h"
#include "exec/snapshot.h"
#include "net/block_replica.h"
#include "net/hybrid_replica.h"
#include "net/recovery.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

ScenarioConfig rejoin_cfg(std::uint64_t interval, bool prune,
                          std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20BlockStorm;
  cfg.fault = FaultProfile::kCrashRejoin;
  cfg.seed = seed;
  cfg.num_replicas = 4;
  cfg.intensity = 4;
  cfg.snapshot_interval = interval;
  cfg.prune = prune;
  return cfg;
}

Erc20State small_state(std::size_t n = 8, Amount balance = 100,
                       Amount allowance = 2) {
  return Erc20State(
      std::vector<Amount>(n, balance),
      std::vector<std::vector<Amount>>(n, std::vector<Amount>(n, allowance)));
}

// ---------------------------------------------------------------------------
// Snapshot codec.
// ---------------------------------------------------------------------------

TEST(SnapshotCodec, RoundtripsAndHashCoversExactlyTheCore) {
  using Snap = Snapshot<Erc20LedgerSpec>;
  Snap s;
  s.next_slot = 12;
  s.state = small_state(4, 50, 3);
  s.origin_frontier = {3, 0, 7, 2};
  s.applied_ids = {make_op_id(0, 0), make_op_id(1, 4), make_op_id(2, 1)};
  std::sort(s.applied_ids.begin(), s.applied_ids.end());

  const std::vector<std::uint8_t> bytes = s.serialize();
  const Snap back = Snap::deserialize(bytes);
  EXPECT_EQ(s, back);
  EXPECT_EQ(s.content_hash(), back.content_hash());

  // The hash is sensitive to every field.
  Snap moved = back;
  moved.next_slot = 13;
  EXPECT_NE(s.content_hash(), moved.content_hash());
  Snap drifted = back;
  drifted.origin_frontier[2] = 8;
  EXPECT_NE(s.content_hash(), drifted.content_hash());
  Snap respent = back;
  respent.state.set_balance(0, 49);
  EXPECT_NE(s.content_hash(), respent.content_hash());
  Snap reapplied = back;
  reapplied.applied_ids[0] = make_op_id(1, 5);
  std::sort(reapplied.applied_ids.begin(), reapplied.applied_ids.end());
  ASSERT_NE(back.applied_ids, reapplied.applied_ids);
  EXPECT_NE(s.content_hash(), reapplied.content_hash());
}

TEST(SnapshotCodec, AllSpecsRoundtrip) {
  {
    Snapshot<Erc721LedgerSpec> s;
    s.next_slot = 3;
    s.state = Erc721State(4, std::vector<AccountId>{0, 1, 2, 1});
    s.state.set_approved(2, 3);
    s.state.set_operator(1, 0, true);
    s.origin_frontier = {1, 1, 0, 0};
    const auto back = Snapshot<Erc721LedgerSpec>::deserialize(s.serialize());
    EXPECT_EQ(s, back);
    EXPECT_EQ(s.content_hash(), back.content_hash());
  }
  {
    Snapshot<Erc777LedgerSpec> s;
    s.next_slot = 5;
    s.state = Erc777State(3, 0, 0);
    s.state.set_balance(0, 40);
    s.state.set_balance(2, 9);
    s.state.set_operator(0, 2, true);
    s.origin_frontier = {2, 0, 1};
    const auto back = Snapshot<Erc777LedgerSpec>::deserialize(s.serialize());
    EXPECT_EQ(s, back);
    EXPECT_EQ(s.content_hash(), back.content_hash());
  }
}

// ---------------------------------------------------------------------------
// crash_rejoin end to end (through the scenario harness, whose block
// extras pin the suffix agreement AND the snapshot-hash match).
// ---------------------------------------------------------------------------

TEST(CrashRejoin, RecoversFromSnapshotPlusSuffix) {
  for (const bool prune : {false, true}) {
    ScenarioConfig cfg = rejoin_cfg(/*interval=*/4, prune);
    const ScenarioReport rep = run_scenario(cfg);
    ASSERT_TRUE(rep.ok()) << "prune=" << prune << ": " << rep.summary();
    EXPECT_GT(rep.snapshot_bytes, 0u);
    EXPECT_GT(rep.committed, 0u);
    if (prune) {
      EXPECT_GT(rep.pruned_slots, 0u);
    }
  }
}

TEST(CrashRejoin, FromEmptyReplaysWholeRetainedLog) {
  // interval = 0: nobody snapshots, so the rejoiner's fetch returns only
  // the frontier and it replays the whole retained log from slot 0.
  ScenarioConfig cfg = rejoin_cfg(/*interval=*/0, /*prune=*/false);
  const ScenarioReport rep = run_scenario(cfg);
  ASSERT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.snapshot_bytes, 0u);
  EXPECT_EQ(rep.pruned_slots, 0u);
  // No install boundary => the catch-up replay covered committed ops
  // (the harness audit already pinned the FULL history match).
  EXPECT_GT(rep.catchup_ops, 0u);
}

TEST(CrashRejoin, StaleFirstInstallIsSuperseded) {
  for (const bool prune : {false, true}) {
    ScenarioConfig cfg = rejoin_cfg(/*interval=*/2, prune, /*seed=*/9);
    cfg.rejoin_stale = true;
    const ScenarioReport rep = run_scenario(cfg);
    ASSERT_TRUE(rep.ok()) << "prune=" << prune << ": " << rep.summary();
  }
}

// Per relay mode, the crash_rejoin history is a pure function of the
// seed and INDEPENDENT of replay_threads.  Across modes the histories
// may legally differ: recovery is the one protocol that BRIDGES the
// lanes — an aux-delivered snapshot reply triggers primary-lane log
// queries, so the primary schedule of a run containing a rejoiner
// inherits the aux stream's timing, which relay mode perturbs.  Each
// mode's run must still pass every audit (the rejoiner byte-matches the
// survivors' suffix), which is the acceptance criterion.
TEST(CrashRejoin, HistoryInvariantAcrossReplayThreadsPerRelayMode) {
  for (const RelayMode mode : {RelayMode::kFull, RelayMode::kCompact}) {
    ScenarioConfig cfg = rejoin_cfg(/*interval=*/4, /*prune=*/true);
    cfg.relay_mode = mode;
    cfg.replay_threads = 1;
    const ScenarioReport base = run_scenario(cfg);
    ASSERT_TRUE(base.ok()) << base.summary();
    for (const std::size_t threads : {2u, 8u}) {
      cfg.replay_threads = threads;
      const ScenarioReport rep = run_scenario(cfg);
      ASSERT_TRUE(rep.ok())
          << "threads=" << threads << ": " << rep.summary();
      EXPECT_EQ(base.history, rep.history) << "threads=" << threads;
      EXPECT_EQ(base.slots, rep.slots);
    }
  }
}

// Under compact relay a parked head lets the broadcast go on delivering
// later slots, so the frontier it holds when the boundary slot APPLIES
// can cover slots at or above the boundary; a rejoiner that adopts that
// as its nonce floor skips them and diverges.  The snapshot must carry
// the frontier of the boundary slot's own delivery.  The cells below are
// those of seeds 1-1500 where an apply-time frontier fails the audit.
TEST(CrashRejoin, CompactSnapshotFrontierIsTheBoundarySlots) {
  struct Cell {
    Workload workload;
    bool stale;
    std::vector<std::uint64_t> seeds;
  };
  const Cell cells[] = {
      {Workload::kErc20BlockStorm, false, {99, 193, 331, 396}},
      {Workload::kErc20BlockStorm, true, {294, 331, 393, 396}},
      {Workload::kMixedBlockEscalate, false, {64, 331}},
      {Workload::kMixedBlockEscalate, true, {64, 331}},
  };
  for (const Cell& cell : cells) {
    for (const std::uint64_t seed : cell.seeds) {
      ScenarioConfig cfg;
      cfg.workload = cell.workload;
      cfg.fault = FaultProfile::kCrashRejoin;
      cfg.seed = seed;
      cfg.relay_mode = RelayMode::kCompact;
      cfg.snapshot_interval = 2;
      cfg.prune = true;
      cfg.rejoin_stale = cell.stale;
      const ScenarioReport rep = run_scenario(cfg);
      EXPECT_TRUE(rep.ok()) << to_string(cell.workload) << " stale="
                            << cell.stale << " seed=" << seed << ": "
                            << rep.summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot invariance: in a run where NOBODY rejoins, the committed
// history must not move when snapshotting/pruning turn on — all recovery
// traffic and timers are auxiliary-class, so the primary schedule is
// untouched.
// ---------------------------------------------------------------------------

TEST(SnapshotInvariance, NonRejoinHistoryIgnoresSnapshotKnobs) {
  for (const FaultProfile f :
       {FaultProfile::kNone, FaultProfile::kLossyDup,
        FaultProfile::kPartitionHeal}) {
    ScenarioConfig cfg;
    cfg.workload = Workload::kErc20BlockStorm;
    cfg.fault = f;
    cfg.seed = 5;
    cfg.intensity = 4;
    const ScenarioReport off = run_scenario(cfg);
    ASSERT_TRUE(off.ok()) << to_string(f) << ": " << off.summary();

    cfg.snapshot_interval = 2;
    cfg.prune = true;
    const ScenarioReport on = run_scenario(cfg);
    ASSERT_TRUE(on.ok()) << to_string(f) << ": " << on.summary();

    EXPECT_EQ(off.history, on.history) << to_string(f);
    EXPECT_EQ(off.history_digest, on.history_digest);
    EXPECT_EQ(off.slots, on.slots);
    EXPECT_GT(on.snapshot_bytes, 0u);
    EXPECT_GT(on.pruned_slots, 0u);
    // Pruning bounds the retained log strictly below the unpruned run's.
    EXPECT_LT(on.retained_log_bytes, off.retained_log_bytes) << to_string(f);
  }
}

// ---------------------------------------------------------------------------
// Retained-log figures at seed 1, default intensity: the reference
// replica's retained decided bytes and pruned slots.  Integers captured
// while the broadcast still kept a decided map of its own; reading them
// from the Paxos log must not move one.  (Interval 0 cuts nothing, so
// prune is moot there.)
// ---------------------------------------------------------------------------

struct RetainedPin {
  Workload workload;
  FaultProfile fault;
  std::uint64_t interval;
  bool prune;
  std::uint64_t retained_log_bytes;
  std::uint64_t pruned_slots;
};

constexpr Workload kStorm = Workload::kErc20BlockStorm;
constexpr Workload kMixed = Workload::kMixedBlockEscalate;
constexpr FaultProfile kNone = FaultProfile::kNone;
constexpr FaultProfile kLossy = FaultProfile::kLossyDup;
constexpr FaultProfile kRejoin = FaultProfile::kCrashRejoin;

constexpr RetainedPin kRetainedPins[] = {
    {kStorm, kNone, 0, false, 9308, 0},   {kStorm, kNone, 2, false, 9308, 0},
    {kStorm, kNone, 2, true, 1920, 16},   {kStorm, kNone, 4, false, 9308, 0},
    {kStorm, kNone, 4, true, 3488, 12},   {kStorm, kLossy, 0, false, 9308, 0},
    {kStorm, kLossy, 2, false, 9308, 0},  {kStorm, kLossy, 2, true, 1920, 16},
    {kStorm, kLossy, 4, false, 9308, 0},  {kStorm, kLossy, 4, true, 1920, 16},
    {kStorm, kRejoin, 0, false, 7368, 0}, {kStorm, kRejoin, 2, false, 7368, 0},
    {kStorm, kRejoin, 2, true, 2456, 10}, {kStorm, kRejoin, 4, false, 7368, 0},
    {kStorm, kRejoin, 4, true, 3488, 8},  {kMixed, kNone, 0, false, 9328, 0},
    {kMixed, kNone, 2, false, 9328, 0},   {kMixed, kNone, 2, true, 784, 18},
    {kMixed, kNone, 4, false, 9328, 0},   {kMixed, kNone, 4, true, 1940, 16},
    {kMixed, kLossy, 0, false, 9328, 0},  {kMixed, kLossy, 2, false, 9328, 0},
    {kMixed, kLossy, 2, true, 784, 18},   {kMixed, kLossy, 4, false, 9328, 0},
    {kMixed, kLossy, 4, true, 1940, 16},  {kMixed, kRejoin, 0, false, 7264, 0},
    {kMixed, kRejoin, 2, false, 7264, 0}, {kMixed, kRejoin, 2, true, 1940, 12},
    {kMixed, kRejoin, 4, false, 7264, 0}, {kMixed, kRejoin, 4, true, 3880, 8},
};

TEST(RetainedLog, FiguresPinnedPerCell) {
  for (const RetainedPin& pin : kRetainedPins) {
    ScenarioConfig cfg;
    cfg.workload = pin.workload;
    cfg.fault = pin.fault;
    cfg.seed = 1;
    cfg.snapshot_interval = pin.interval;
    cfg.prune = pin.prune;
    const ScenarioReport rep = run_scenario(cfg);
    const std::string cell = std::string(to_string(pin.workload)) + " " +
                             to_string(pin.fault) + " interval " +
                             std::to_string(pin.interval) +
                             (pin.prune ? " prune" : "");
    ASSERT_TRUE(rep.ok()) << cell << ": " << rep.summary();
    EXPECT_EQ(rep.retained_log_bytes, pin.retained_log_bytes) << cell;
    EXPECT_EQ(rep.pruned_slots, pin.pruned_slots) << cell;
  }
}

// ---------------------------------------------------------------------------
// Edge cases, hand-rolled on a direct BlockReplicaNode cluster (the
// scenario harness cannot reach inside the run to time these).
// ---------------------------------------------------------------------------

using Node = BlockReplicaNode<Erc20LedgerSpec>;

struct Cluster {
  static constexpr std::size_t kN = 4;
  typename Node::Net net;
  std::vector<std::unique_ptr<Node>> nodes;
  BlockConfig bcfg;
  ExecOptions eopts{.threads = 1};
  RecoveryConfig rcfg;

  explicit Cluster(RecoveryConfig r,
                   NetConfig ncfg = NetConfig{.seed = 11, .min_delay = 1,
                                              .max_delay = 3},
                   std::size_t max_ops = 4)
      : net(kN, ncfg), rcfg(r) {
    bcfg.max_ops = max_ops;
    for (ProcessId p = 0; p < kN; ++p) {
      nodes.push_back(std::make_unique<Node>(net, p, small_state(), bcfg,
                                             eopts, RelayMode::kFull, rcfg));
    }
  }

  /// A deterministic drip of transfers from replica `p` (resolved at
  /// fire time — the rejoin rebuilds nodes).
  void drip(ProcessId p, std::uint64_t from, std::uint64_t until,
            std::uint64_t step) {
    for (std::uint64_t t = from; t <= until; t += step) {
      net.call_at(p, t, [this, p, t] {
        nodes[p]->submit(p, Erc20Op::transfer(
                                static_cast<AccountId>((p + t) % 8), 1));
      });
    }
  }

  void deadlines(std::uint64_t until, std::uint64_t period = 25) {
    for (ProcessId p = 0; p < kN; ++p) {
      for (std::uint64_t t = period; t <= until; t += period) {
        net.call_at(p, t, [this, p] { nodes[p]->on_deadline(); });
      }
    }
  }

  void rejoin(ProcessId p) {
    net.restart(p);
    RecoveryConfig r = rcfg;
    r.recover = true;
    nodes[p] = std::make_unique<Node>(net, p, small_state(), bcfg, eopts,
                                      RelayMode::kFull, r);
  }

  void drain() {
    const std::vector<bool> correct(kN, true);
    EXPECT_TRUE(drain_cluster(net, nodes, correct));
  }
};

/// The rejoin audit's entry-wise comparison (block_extras) gives the
/// rendered strings' verdict on a real rejoiner: true at its install
/// slot, and agreeing with history_from one slot either side of it.
void expect_suffix_audits_agree(const Node& rj, const Node& ref) {
  const std::uint64_t at = rj.install_slot();
  EXPECT_TRUE(rj.same_history(ref, at));
  for (const std::uint64_t from : {at > 0 ? at - 1 : at, at, at + 1}) {
    EXPECT_EQ(rj.same_history(ref, from),
              rj.history() == ref.history_from(from))
        << "from slot " << from;
  }
}

// Rejoin DURING an active partition: the rejoiner's snapshot requests
// vanish into the cut links; the aux retry timer keeps the fetch alive
// until the heal, after which it installs and catches up normally.
TEST(RecoveryEdge, RejoinInsideActivePartitionHealsAfter) {
  RecoveryConfig rcfg;
  rcfg.snapshot_interval = 2;
  Cluster c(rcfg);
  for (ProcessId p = 0; p < 3; ++p) c.drip(p, 5, 200, 7);
  c.deadlines(400);
  c.net.schedule(45, [&c] { c.net.crash(3); });
  c.net.schedule(100, [&c] {
    c.net.partition({{0, 1, 2}, {3}});
  });
  c.net.schedule(120, [&c] { c.rejoin(3); });  // isolated at rejoin time
  c.net.schedule(300, [&c] { c.net.heal(); });
  c.drain();

  const Node& rj = *c.nodes[3];
  EXPECT_FALSE(rj.recovering());
  EXPECT_TRUE(rj.all_settled());
  // The blackout forced retries: strictly more requests than the one
  // first shot.
  EXPECT_GT(rj.recovery().snap_requests_sent(), 1u);
  EXPECT_GT(rj.install_slot(), 0u);
  EXPECT_EQ(rj.history(), c.nodes[0]->history_from(rj.install_slot()));
  expect_suffix_audits_agree(rj, *c.nodes[0]);
  const auto want = c.nodes[0]->recovery().store().hash_at(rj.install_slot());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(*want, rj.installed_snapshot_hash());
}

// Rebuild before the crashed incarnation's timers fire: replica 3
// crashes at 44 with Paxos retry timers pending and is rebuilt at 50,
// before they are due.  They belong to the destroyed engines, so they
// must never fire; the rebuilt replica recovers on its own timers.
TEST(RecoveryEdge, RebuildBeforeTheCrashedIncarnationsTimersFire) {
  RecoveryConfig rcfg;
  rcfg.snapshot_interval = 2;
  Cluster c(rcfg);
  for (ProcessId p = 0; p < 3; ++p) c.drip(p, 5, 200, 7);
  c.drip(3, 5, 40, 7);
  c.deadlines(400);
  c.net.schedule(44, [&c] { c.net.crash(3); });
  c.net.schedule(50, [&c] { c.rejoin(3); });
  c.drain();

  const Node& rj = *c.nodes[3];
  EXPECT_FALSE(rj.recovering());
  EXPECT_TRUE(rj.all_settled());
  expect_suffix_audits_agree(rj, *c.nodes[0]);
}

// Cuts after an install: a cut's applied-id list is the newest retained
// snapshot's list merged with the ids applied since, and on a rejoiner
// that base is the INSTALLED snapshot.  Every boundary the rejoiner cuts
// past its install must hash equal to replica 0's cut there — including
// the cuts after a racing double submit, whose second occurrence the
// apply filter drops and the cut must not list twice.
TEST(RecoveryEdge, CutsAfterInstallHashEqualToSurvivors) {
  RecoveryConfig rcfg;
  rcfg.snapshot_interval = 2;
  Cluster c(rcfg);
  for (ProcessId p = 0; p < 3; ++p) c.drip(p, 5, 300, 7);
  c.deadlines(600);
  c.net.schedule(45, [&c] { c.net.crash(3); });
  c.net.schedule(120, [&c] { c.rejoin(3); });
  // The same identity through two replicas in the same deadline period:
  // both pools accept it, two blocks carry it, one occurrence applies.
  const OpId id = make_op_id(/*origin=*/2, /*seq=*/1000);
  for (ProcessId p = 0; p < 2; ++p) {
    c.net.call_at(p, 221 + p, [&c, p, id] {
      EXPECT_TRUE(c.nodes[p]->submit_tagged(id, 2, Erc20Op::transfer(3, 7)));
    });
  }
  c.drain();

  const Node& rj = *c.nodes[3];
  ASSERT_FALSE(rj.recovering());
  ASSERT_GT(rj.install_slot(), 0u);
  std::size_t submitted = 0;
  for (ProcessId p = 0; p < 3; ++p) submitted += c.nodes[p]->submitted();
  EXPECT_EQ(c.nodes[0]->ops_committed() + 1, submitted);
  EXPECT_EQ(rj.history(), c.nodes[0]->history_from(rj.install_slot()));
  expect_suffix_audits_agree(rj, *c.nodes[0]);

  const auto& mine = rj.recovery().store();
  const auto& ref = c.nodes[0]->recovery().store();
  std::size_t compared = 0;
  for (std::uint64_t b = rj.install_slot() + 1; b <= mine.newest_slot();
       ++b) {
    const auto got = mine.hash_at(b);
    if (!got) continue;
    const auto want = ref.hash_at(b);
    ASSERT_TRUE(want.has_value()) << "boundary " << b;
    EXPECT_EQ(*want, *got) << "boundary " << b;
    ++compared;
  }
  EXPECT_GE(compared, 10u);

  // Without pruning, the rejoiner's Paxos log still holds the decisions
  // below its install slot that reached it before the install; its
  // retained log counts from the install slot up.  Integers captured
  // while the broadcast still kept a decided map of its own.
  EXPECT_EQ(rj.install_slot(), 6u);
  EXPECT_EQ(rj.retained_slots(), 32u);
  EXPECT_EQ(rj.retained_log_bytes(), 14280u);
  EXPECT_EQ(c.nodes[0]->retained_slots(), 38u);
}

// Rejoin exactly at a fully-covering boundary: all traffic stops well
// before the rejoin, so the newest snapshot boundary EQUALS the commit
// frontier — the install covers everything and the catch-up replays
// zero ops.
TEST(RecoveryEdge, RejoinAtCoveringBoundaryReplaysNothing) {
  RecoveryConfig rcfg;
  rcfg.snapshot_interval = 1;  // every boundary is a snapshot
  Cluster c(rcfg);
  for (ProcessId p = 0; p < 3; ++p) c.drip(p, 5, 60, 5);
  c.deadlines(200);
  c.net.schedule(45, [&c] { c.net.crash(3); });
  c.net.schedule(500, [&c] { c.rejoin(3); });  // long after quiescence
  c.drain();

  const Node& rj = *c.nodes[3];
  EXPECT_FALSE(rj.recovering());
  EXPECT_TRUE(rj.all_settled());
  EXPECT_GT(rj.install_slot(), 0u);
  EXPECT_EQ(rj.catchup_ops(), 0u);
  EXPECT_EQ(rj.install_slot(), c.nodes[0]->slots_committed());
  EXPECT_EQ(rj.history(), c.nodes[0]->history_from(rj.install_slot()));
  expect_suffix_audits_agree(rj, *c.nodes[0]);
  EXPECT_TRUE(rj.history().empty());  // nothing after the boundary
}

// A snapshot cut racing a deadline block cut: with interval = 1 every
// committed slot cuts a snapshot in the SAME event as the apply, while
// deadline ticks keep cutting partial blocks.  The committed history
// must stay a pure function of the seed across replay thread counts.
TEST(RecoveryEdge, SnapshotCutRacingDeadlineCutIsThreadInvariant) {
  ScenarioConfig cfg = rejoin_cfg(/*interval=*/1, /*prune=*/true);
  cfg.block_deadline = 10;  // aggressive deadline cuts
  cfg.replay_threads = 1;
  const ScenarioReport base = run_scenario(cfg);
  ASSERT_TRUE(base.ok()) << base.summary();
  for (const std::size_t threads : {2u, 8u}) {
    cfg.replay_threads = threads;
    const ScenarioReport rep = run_scenario(cfg);
    ASSERT_TRUE(rep.ok()) << "threads=" << threads << ": " << rep.summary();
    EXPECT_EQ(base.history, rep.history) << "threads=" << threads;
  }
}

// Prune-then-query: the rejoiner's first install is forced STALE (below
// the prune floor of the live replicas), so its log walk hits kPruned
// redirects — which must re-aim the snapshot fetch at a higher boundary
// and terminate, never stall.
TEST(RecoveryEdge, PrunedQueryRedirectsToFreshSnapshot) {
  RecoveryConfig rcfg;
  rcfg.snapshot_interval = 2;
  rcfg.prune = true;
  Cluster c(rcfg);
  for (ProcessId p = 0; p < 3; ++p) c.drip(p, 5, 300, 5);
  c.deadlines(600);
  c.net.schedule(45, [&c] { c.net.crash(3); });
  c.net.schedule(400, [&c] {
    c.rejoin(3);
    // The first peer the rejoiner asks serves nothing newer than the
    // FIRST boundary — far below the floor the live trio pruned to.
    c.nodes[0]->recovery().set_max_served_slot(2);
  });
  c.drain();

  const Node& rj = *c.nodes[3];
  EXPECT_FALSE(rj.recovering());
  EXPECT_TRUE(rj.all_settled());
  // Pruning really ran on the live replicas...
  EXPECT_GT(c.nodes[0]->pruned_slots(), 0u);
  // ...and the rejoiner needed more than one request (stale install,
  // then the redirect-driven refetch).
  EXPECT_GT(rj.recovery().snap_requests_sent(), 1u);
  EXPECT_GT(rj.install_slot(), 2u);
  EXPECT_EQ(rj.history(), c.nodes[0]->history_from(rj.install_slot()));
  expect_suffix_audits_agree(rj, *c.nodes[0]);
  // The rejoiner's retained log counts from its install slot up, though
  // its Paxos log may hold decisions below it.  Integers captured while
  // the broadcast still kept a decided map of its own.
  EXPECT_EQ(rj.install_slot(), 34u);
  EXPECT_EQ(rj.retained_slots(), 2u);
  EXPECT_EQ(rj.pruned_slots(), 36u);
  EXPECT_EQ(rj.retained_log_bytes(), 660u);
}

// ---------------------------------------------------------------------------
// The double-submit guard (the ISSUE 7 latent-bug fix): dedup must hold
// against the APPLIED history, not just pool residue.
// ---------------------------------------------------------------------------

// Intake half: once an id is in the committed history, submit_tagged
// refuses it on every replica — including one whose pool never held it.
TEST(DoubleSubmit, ResubmissionOfCommittedOpIsRefusedAtIntake) {
  RecoveryConfig rcfg;
  Cluster c(rcfg);
  const OpId id = make_op_id(/*origin=*/0, /*seq=*/0);
  c.net.call_at(0, 5, [&c, id] {
    EXPECT_TRUE(c.nodes[0]->submit_tagged(id, 0, Erc20Op::transfer(1, 5)));
  });
  c.deadlines(100);
  c.drain();

  // Committed everywhere; now retry through a replica whose pool never
  // saw the op (the pre-fix window: pool residue is long drained).
  for (ProcessId p = 0; p < Cluster::kN; ++p) {
    EXPECT_FALSE(c.nodes[p]->submit_tagged(id, 0, Erc20Op::transfer(1, 5)))
        << "replica " << p;
  }
  for (ProcessId p = 0; p < Cluster::kN; ++p) {
    EXPECT_EQ(c.nodes[p]->engine().ledger().snapshot().balance(1), 105u);
  }
}

// Cross-replica half: a client retries the SAME op through a second
// replica before the first commit lands there — both pools accept, two
// blocks carry the id, and the apply-time filter must drop the second
// occurrence at the same slot on every replica: applied exactly once.
TEST(DoubleSubmit, RacingResubmissionThroughSecondReplicaAppliesOnce) {
  RecoveryConfig rcfg;
  // Lossy + duplicating links: the stress the regression rode in on.
  Cluster c(rcfg, NetConfig{.seed = 13, .min_delay = 1, .max_delay = 4,
                            .drop_num = 10, .drop_den = 100,
                            .dup_num = 20, .dup_den = 100});
  const OpId id = make_op_id(/*origin=*/2, /*seq=*/0);
  c.net.call_at(0, 5, [&c, id] {
    EXPECT_TRUE(c.nodes[0]->submit_tagged(id, 2, Erc20Op::transfer(3, 7)));
  });
  // Same identity through replica 1, one tick later: replica 1 has not
  // seen any block yet, so its pool MUST accept (it cannot know), and
  // the id rides two different blocks.
  c.net.call_at(1, 6, [&c, id] {
    c.nodes[1]->submit_tagged(id, 2, Erc20Op::transfer(3, 7));
  });
  c.deadlines(200);
  c.drain();

  for (ProcessId p = 0; p < Cluster::kN; ++p) {
    EXPECT_EQ(c.nodes[p]->history(), c.nodes[0]->history()) << "replica " << p;
    // Applied exactly once: one transfer of 7, not two.
    EXPECT_EQ(c.nodes[p]->engine().ledger().snapshot().balance(3), 107u)
        << "replica " << p;
  }
}

// Scenario-level pin: committed == submitted under crash_rejoin (the
// settlement audit counts every accepted op exactly once even when the
// rejoiner's resubmission window is live).
TEST(DoubleSubmit, CrashRejoinSettlesEveryAcceptedOpExactlyOnce) {
  ScenarioConfig cfg = rejoin_cfg(/*interval=*/4, /*prune=*/true, /*seed=*/3);
  const ScenarioReport rep = run_scenario(cfg);
  ASSERT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.committed, rep.submitted);
}

// ---------------------------------------------------------------------------
// Hybrid terminal snapshots.
// ---------------------------------------------------------------------------

TEST(HybridTerminalSnapshot, ConvergedReplicasHashEqual) {
  using HNode = HybridReplicaNode<Erc20LedgerSpec>;
  typename HNode::Net net(4, NetConfig{.seed = 21, .min_delay = 1,
                                       .max_delay = 3});
  std::vector<std::unique_ptr<HNode>> nodes;
  for (ProcessId p = 0; p < 4; ++p) {
    nodes.push_back(std::make_unique<HNode>(net, p, small_state(),
                                            ExecOptions{.threads = 1}));
  }
  for (ProcessId p = 0; p < 4; ++p) {
    HNode* node = nodes[p].get();
    for (std::uint64_t j = 0; j < 5; ++j) {
      net.call_at(p, 5 + 4 * j, [node, p, j] {
        node->submit(p, Erc20Op::transfer(
                            static_cast<AccountId>((p + 1 + j) % 8), 1));
      });
    }
  }
  const std::vector<bool> correct(4, true);
  EXPECT_TRUE(drain_cluster(net, nodes, correct));
  for (ProcessId p = 0; p < 4; ++p) nodes[p]->finalize();

  const Snapshot<Erc20LedgerSpec> ref = nodes[0]->terminal_snapshot();
  EXPECT_GT(ref.next_slot + nodes[0]->fast_lane_ops(), 0u);
  for (ProcessId p = 1; p < 4; ++p) {
    const Snapshot<Erc20LedgerSpec> snap = nodes[p]->terminal_snapshot();
    EXPECT_EQ(ref.content_hash(), snap.content_hash()) << "replica " << p;
    EXPECT_EQ(ref.next_slot, snap.next_slot) << "replica " << p;
  }
}

}  // namespace
}  // namespace tokensync
