// The Byzantine-tier acceptance suite (ISSUE 9): respend defense on the
// Bracha fast lane.
//
//   * detection matrix — one equivocating respender in the
//     erc20_respend_storm is caught on EVERY correct replica with a
//     byte-identical ConflictProof, across all five fault profiles and
//     replay thread counts {1, 2, 8}, with zero consensus slots and the
//     same committed history in every cell;
//   * at-most-one-branch — exactly one branch of the conflicting pair
//     commits (committed-count + conservation audit), and the history is
//     byte-identical to the equivocator-free run of the same script (the
//     fork changes proofs, never the surviving branch);
//   * quarantine escalation — a proven equivocator's LATER fast-class
//     submissions are stripped of the fast lane and commit through
//     consensus (one slot, everywhere);
//   * equivocator-is-also-proposer — the respender concurrently drives a
//     consensus-lane approve; both lanes settle, the proof still lands;
//   * Bracha-as-fastlane baseline — with zero equivocators the Bracha
//     lane reproduces the ISSUE 5 criterion verbatim: fastlane storm,
//     ZERO consensus slots, byte-identical histories across the fault ×
//     thread matrix, and the SAME history the ERB lane commits.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "exec/exec_specs.h"
#include "net/hybrid_replica.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

ScenarioConfig storm_cfg(FaultProfile f, std::size_t equivocators = 1,
                         std::size_t threads = 1, std::uint64_t seed = 7) {
  ScenarioConfig c;
  c.workload = Workload::kErc20RespendStorm;
  c.fault = f;
  c.seed = seed;
  c.num_replicas = 4;
  c.intensity = 5;
  c.replay_threads = threads;
  c.fast_lane = FastLane::kBracha;
  c.num_equivocators = equivocators;
  return c;
}

void expect_ok(const ScenarioReport& rep) {
  EXPECT_TRUE(rep.agreement) << rep.summary();
  EXPECT_TRUE(rep.conservation) << rep.summary();
  EXPECT_TRUE(rep.settled) << rep.summary();
  for (const std::string& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_GT(rep.committed, 0u);
}

// --- THE criterion: detection everywhere, identical proofs, same history --

TEST(RespendStorm, DetectedOnEveryProfileAndThreadCount) {
  const ScenarioReport ref = run_scenario(storm_cfg(FaultProfile::kNone));
  expect_ok(ref);
  EXPECT_EQ(ref.conflict_proofs, 1u);
  for (FaultProfile f : all_fault_profiles()) {
    for (std::size_t threads : {1, 2, 8}) {
      const ScenarioReport rep =
          run_scenario(storm_cfg(f, /*equivocators=*/1, threads));
      expect_ok(rep);
      // The cross-replica proof-agreement audit ran inside run_scenario
      // (a diverging proof map flips rep.agreement); the counters below
      // certify the reference replica's view.
      EXPECT_EQ(rep.conflict_proofs, 1u) << rep.summary();
      EXPECT_EQ(rep.quarantined_origins, 1u) << rep.summary();
      EXPECT_EQ(rep.equivocation_commits, 1u) << rep.summary();
      EXPECT_EQ(rep.slots, 0u) << rep.summary();
      EXPECT_EQ(rep.history_digest, ref.history_digest)
          << to_string(f) << " threads=" << threads;
    }
  }
}

TEST(RespendStorm, ExactlyOneBranchCommits) {
  // intensity 5, n = 4: three storm replicas submit 3*5 transfers each,
  // the respender submits exactly one (forked) transfer.  At-most-one-
  // branch means the committed count is the SUBMITTED count — the losing
  // branch never enters the history, and conservation (audited by
  // expect_ok) certifies no value was minted by the surviving one.
  const ScenarioReport rep = run_scenario(storm_cfg(FaultProfile::kNone));
  expect_ok(rep);
  EXPECT_EQ(rep.committed, 3u * 5u * 3u + 1u);
  EXPECT_EQ(rep.fast_lane_ops, rep.committed);
  EXPECT_EQ(rep.equivocation_commits, 1u);
}

TEST(RespendStorm, HistoryInvariantToEquivocator) {
  // The fork changes which payload ONE victim sees, never which branch
  // survives (the majority branch holds the only reachable echo quorum),
  // and proof gossip rides the auxiliary wire class — so the committed
  // history is byte-identical with and without the equivocator armed.
  for (FaultProfile f :
       {FaultProfile::kNone, FaultProfile::kLossyDup}) {
    const ScenarioReport honest = run_scenario(storm_cfg(f, 0));
    const ScenarioReport byz = run_scenario(storm_cfg(f, 1));
    expect_ok(honest);
    expect_ok(byz);
    EXPECT_EQ(honest.conflict_proofs, 0u);
    EXPECT_EQ(honest.quarantined_origins, 0u);
    EXPECT_EQ(byz.conflict_proofs, 1u);
    EXPECT_EQ(honest.history, byz.history) << to_string(f);
    EXPECT_EQ(honest.history_digest, byz.history_digest) << to_string(f);
  }
}

TEST(RespendStorm, ByzantineProfileImpliesItsDefaults) {
  // The bare profile spelling — no lane/equivocator knobs — must arm
  // the canonical configuration (Bracha lane, one equivocator).
  ScenarioConfig c;
  c.workload = Workload::kErc20RespendStorm;
  c.fault = FaultProfile::kByzantineEquivocate;
  c.seed = 7;
  c.num_replicas = 4;
  c.intensity = 5;
  const ScenarioReport rep = run_scenario(c);
  expect_ok(rep);
  EXPECT_EQ(rep.fault, "byzantine_equivocate");
  EXPECT_EQ(rep.conflict_proofs, 1u);
  EXPECT_EQ(rep.quarantined_origins, 1u);
  EXPECT_EQ(rep.slots, 0u);
  // Same script, same network profile (clean links) — same history as
  // the explicitly-knobbed kNone run.
  EXPECT_EQ(rep.history_digest,
            run_scenario(storm_cfg(FaultProfile::kNone)).history_digest);
}

// --- direct cluster: quarantine escalation + dual-lane equivocator -------

struct DirectCluster {
  using Node = HybridReplicaNode<Erc20LedgerSpec>;
  using BMsg = BrachaMsg<typename Node::FastBatch>;
  using Msg = typename Node::Net::MsgType;
  static constexpr std::size_t kN = 4;

  typename Node::Net net;
  std::vector<std::unique_ptr<Node>> nodes;

  explicit DirectCluster(std::uint64_t seed)
      : net(kN, make_net_config(FaultProfile::kNone, seed)) {
    const Erc20State initial(
        std::vector<Amount>(kN, 100),
        std::vector<std::vector<Amount>>(kN, std::vector<Amount>(kN, 0)));
    HybridConfig hcfg;
    hcfg.fast_lane = FastLane::kBracha;
    for (ProcessId p = 0; p < kN; ++p) {
      nodes.push_back(std::make_unique<Node>(net, p, initial,
                                             ExecOptions{.threads = 1}, hcfg));
    }
  }

  /// Arms the respend fork: `e`'s FIRST fast-lane SEND shows `victim` a
  /// transfer aimed at a different destination (same (origin, seq), same
  /// wire size — only the payload bytes differ).
  void fork_first_send(ProcessId e, ProcessId victim) {
    net.set_equivocator(
        e, [victim](ProcessId to, const Msg& m) -> std::optional<Msg> {
          if (to != victim) return std::nullopt;
          const auto* bm = std::get_if<BMsg>(&m);
          if (!bm || bm->type != BMsg::Type::kSend || bm->seq != 0) {
            return std::nullopt;
          }
          BMsg fork = *bm;
          Erc20Op& op = fork.payload.ops.front();
          op.dst = static_cast<AccountId>((op.dst + 1) % kN);
          return Msg(std::in_place_type<BMsg>, std::move(fork));
        });
  }

  void drain_and_finalize() {
    const std::vector<bool> correct(kN, true);
    EXPECT_TRUE(drain_cluster(net, nodes, correct));
    for (auto& n : nodes) n->finalize();
  }
};

TEST(Quarantine, ProvenEquivocatorEscalatesToConsensus) {
  DirectCluster c(5);
  c.fork_first_send(/*e=*/3, /*victim=*/0);
  auto* n3 = c.nodes[3].get();
  // The respend itself (forked on the wire), then — long after every
  // replica has installed the proof — a perfectly honest transfer from
  // the same origin.  Quarantine must strip it of the fast lane at
  // submit time and route it through Paxos.
  c.net.call_at(3, 4, [n3] { n3->submit(3, Erc20Op::transfer(1, 2)); });
  c.net.call_at(3, 400, [n3] { n3->submit(3, Erc20Op::transfer(2, 1)); });
  c.drain_and_finalize();
  for (ProcessId p = 0; p < DirectCluster::kN; ++p) {
    ASSERT_EQ(c.nodes[p]->conflict_proofs().size(), 1u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->conflict_proofs(), c.nodes[0]->conflict_proofs());
    EXPECT_TRUE(c.nodes[p]->is_quarantined(3)) << "node " << p;
    // Exactly the escalated transfer went through consensus; both the
    // surviving respend branch and the escalated op are in the history.
    EXPECT_EQ(c.nodes[p]->slots_committed(), 1u) << "node " << p;
    EXPECT_TRUE(c.nodes[p]->all_settled()) << "node " << p;
    EXPECT_EQ(c.nodes[p]->history(), c.nodes[0]->history()) << "node " << p;
    EXPECT_EQ(c.nodes[p]->equivocation_commits(), 1u) << "node " << p;
  }
}

TEST(Quarantine, EquivocatorIsAlsoAProposer) {
  // The Byzantine origin is simultaneously a consensus-lane proposer: an
  // approve races the forked respend.  Detection and the slow lane are
  // independent — the approve commits (one slot), the proof still lands
  // on every replica, and the cluster settles.
  DirectCluster c(11);
  c.fork_first_send(/*e=*/3, /*victim=*/0);
  auto* n3 = c.nodes[3].get();
  c.net.call_at(3, 4, [n3] { n3->submit(3, Erc20Op::transfer(1, 2)); });
  c.net.call_at(3, 6, [n3] { n3->submit(3, Erc20Op::approve(0, 10)); });
  c.drain_and_finalize();
  for (ProcessId p = 0; p < DirectCluster::kN; ++p) {
    ASSERT_EQ(c.nodes[p]->conflict_proofs().size(), 1u) << "node " << p;
    EXPECT_TRUE(c.nodes[p]->is_quarantined(3)) << "node " << p;
    EXPECT_EQ(c.nodes[p]->slots_committed(), 1u) << "node " << p;
    EXPECT_TRUE(c.nodes[p]->all_settled()) << "node " << p;
    EXPECT_EQ(c.nodes[p]->history(), c.nodes[0]->history()) << "node " << p;
  }
}

// --- the Bracha lane as an honest fastlane (ISSUE 5 criterion, lane 3) ---

TEST(BrachaLane, FastlaneStormZeroSlotsAcrossMatrix) {
  auto lane_cfg = [](FaultProfile f, FastLane lane, std::size_t threads) {
    ScenarioConfig c;
    c.workload = Workload::kErc20FastlaneStorm;
    c.fault = f;
    c.seed = 7;
    c.num_replicas = 4;
    c.intensity = 5;
    c.replay_threads = threads;
    c.fast_lane = lane;
    return c;
  };
  // The lane swap never changes WHAT commits: the ERB run's history is
  // the anchor the Bracha matrix must reproduce byte-for-byte.
  const ScenarioReport erb =
      run_scenario(lane_cfg(FaultProfile::kNone, FastLane::kErb, 1));
  expect_ok(erb);
  for (FaultProfile f : all_fault_profiles()) {
    for (std::size_t threads : {1, 2, 8}) {
      const ScenarioReport rep =
          run_scenario(lane_cfg(f, FastLane::kBracha, threads));
      expect_ok(rep);
      EXPECT_EQ(rep.slots, 0u) << rep.summary();
      EXPECT_EQ(rep.conflict_proofs, 0u) << rep.summary();
      EXPECT_EQ(rep.history, erb.history)
          << to_string(f) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace tokensync
