// Scenario driver implementation: the named workload scripts and each
// replica runtime's additions to ClusterHarness's audit.  See scenario.h
// for the model.
#include "sched/scenario.h"

#include <cstdio>
#include <numeric>
#include <utility>
#include <variant>

#include "atbcast/at_bcast.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dyntoken/dyntoken.h"
#include "exec/exec_specs.h"
#include "net/block_replica.h"
#include "net/hybrid_replica.h"
#include "net/multi_proposer.h"
#include "net/shard_group.h"
#include "objects/erc20.h"
#include "objects/erc721.h"
#include "objects/erc777.h"

namespace tokensync {

const char* to_string(FaultProfile f) {
  switch (f) {
    case FaultProfile::kNone: return "none";
    case FaultProfile::kLossyLinks: return "lossy";
    case FaultProfile::kLossyDup: return "lossy_dup";
    case FaultProfile::kPartitionHeal: return "partition_heal";
    case FaultProfile::kMinorityCrash: return "minority_crash";
    case FaultProfile::kCrashRejoin: return "crash_rejoin";
    case FaultProfile::kByzantineEquivocate: return "byzantine_equivocate";
  }
  return "?";
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kErc20TransferStorm: return "erc20_transfer_storm";
    case Workload::kErc721MintTradeRace: return "erc721_mint_trade_race";
    case Workload::kErc777ApproveBurn: return "erc777_approve_burn";
    case Workload::kDynTokenReconfig: return "dyntoken_reconfig";
    case Workload::kAtBcastPayments: return "at_bcast_payments";
    case Workload::kErc20BlockStorm: return "erc20_block_storm";
    case Workload::kMixedBlockEscalate: return "mixed_block_escalate";
    case Workload::kErc20FastlaneStorm: return "erc20_fastlane_storm";
    case Workload::kMixedSyncTiers: return "mixed_sync_tiers";
    case Workload::kErc20ZipfianShards: return "erc20_zipfian_shards";
    case Workload::kErc20RespendStorm: return "erc20_respend_storm";
    case Workload::kErc20MultiproposerStorm:
      return "erc20_multiproposer_storm";
  }
  return "?";
}

const std::vector<FaultProfile>& all_fault_profiles() {
  static const std::vector<FaultProfile> kAll = {
      FaultProfile::kNone, FaultProfile::kLossyLinks, FaultProfile::kLossyDup,
      FaultProfile::kPartitionHeal, FaultProfile::kMinorityCrash};
  return kAll;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      Workload::kErc20TransferStorm, Workload::kErc721MintTradeRace,
      Workload::kErc777ApproveBurn, Workload::kDynTokenReconfig,
      Workload::kAtBcastPayments, Workload::kErc20BlockStorm,
      Workload::kMixedBlockEscalate, Workload::kErc20FastlaneStorm,
      Workload::kMixedSyncTiers, Workload::kErc20ZipfianShards};
  return kAll;
}

std::vector<bool> correct_mask(std::size_t n, FaultProfile f) {
  std::vector<bool> correct(n, true);
  if (f == FaultProfile::kMinorityCrash) {
    const std::size_t minority = (n - 1) / 2;
    for (std::size_t i = 0; i < minority; ++i) correct[n - 1 - i] = false;
  }
  // kCrashRejoin: the crashed replica REJOINS and must fully converge,
  // so it stays in the correct set; its suffix-based agreement audit
  // lives in the block runtime's extras (scenario.cc's block_extras).
  return correct;
}

NetConfig make_net_config(FaultProfile f, std::uint64_t seed) {
  NetConfig cfg{};
  cfg.seed = seed;
  cfg.min_delay = 1;
  cfg.max_delay = 12;
  switch (f) {
    case FaultProfile::kLossyLinks:
      cfg.drop_num = 15;
      break;
    case FaultProfile::kLossyDup:
    case FaultProfile::kCrashRejoin:
      // The rejoin profile keeps lossy_dup's links underneath: recovery
      // must survive drop + duplication, not just the crash itself.
      cfg.drop_num = 10;
      cfg.dup_num = 20;
      break;
    default:
      break;
  }
  return cfg;
}

LatencySummary summarize_latencies(std::vector<std::uint64_t> all) {
  LatencySummary s;
  if (all.empty()) return s;
  std::sort(all.begin(), all.end());
  s.count = all.size();
  s.mean = static_cast<double>(
               std::accumulate(all.begin(), all.end(), std::uint64_t{0})) /
           static_cast<double>(all.size());
  s.p50 = all[all.size() / 2];
  s.p99 = all[(all.size() * 99) / 100];
  s.max = all.back();
  return s;
}

std::uint64_t digest_history(const std::string& h) { return fnv1a(h); }

std::string ScenarioReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s/%s seed=%llu: %s commits=%zu slots=%zu fast=%zu "
                "time=%llu thr=%.2f/kt p50=%llu p99=%llu",
                workload.c_str(), fault.c_str(),
                static_cast<unsigned long long>(seed),
                ok() ? "OK" : "VIOLATION", committed, slots, fast_lane_ops,
                static_cast<unsigned long long>(sim_time), commits_per_ktime,
                static_cast<unsigned long long>(latency.p50),
                static_cast<unsigned long long>(latency.p99));
  return std::string(buf);
}

namespace {

// -------------------------------------------------------------------------
// Script helpers: the checks and literals the workload scripts share.
// -------------------------------------------------------------------------

/// The supply check: the token supply equals `expected`.
auto supply_is(Amount expected) {
  return [expected](const auto& q) -> std::optional<std::string> {
    if (q.total_supply() == expected) return std::nullopt;
    return "supply " + std::to_string(q.total_supply()) +
           " != " + std::to_string(expected);
  };
}

/// The ERC721 owner check: still `tokens` tokens, each owned by one of
/// the `accounts` accounts.
auto owners_valid(std::size_t accounts, std::size_t tokens) {
  return [accounts, tokens](const Erc721State& q)
             -> std::optional<std::string> {
    if (q.num_tokens() != tokens) {
      return "token count changed: " + std::to_string(q.num_tokens());
    }
    for (TokenId t = 0; t < tokens; ++t) {
      if (q.owner_of(t) >= accounts) {
        return "token " + std::to_string(t) + " owned by invalid account " +
               std::to_string(q.owner_of(t));
      }
    }
    return std::nullopt;
  };
}

/// `accounts` ERC20 accounts holding `balance` each, with every pairwise
/// allowance set to `allowance`.
Erc20State erc20_initial(std::size_t accounts, Amount balance,
                         Amount allowance) {
  return Erc20State(std::vector<Amount>(accounts, balance),
                    std::vector<std::vector<Amount>>(
                        accounts, std::vector<Amount>(accounts, allowance)));
}

/// One op of the storm mix over `accounts` accounts: mostly commuting
/// transfers, 4/40 transferFrom, 3/40 approve and a 1/40 totalSupply
/// barrier (the escalation lane inside a block).
Erc20Ledger::BatchOp storm_op(Rng& rng, std::size_t accounts) {
  const auto caller = static_cast<ProcessId>(rng.below(accounts));
  const auto dst = static_cast<AccountId>(rng.below(accounts));
  const auto roll = rng.below(40);
  if (roll == 0) return {caller, Erc20Op::total_supply()};
  if (roll < 4) {
    return {caller, Erc20Op::approve(static_cast<ProcessId>(dst), 2)};
  }
  if (roll < 8) {
    return {caller, Erc20Op::transfer_from(
                        static_cast<AccountId>(rng.below(accounts)), dst, 1)};
  }
  return {caller, Erc20Op::transfer(dst, 1 + rng.below(3))};
}

ExecOptions exec_options(const ScenarioConfig& cfg) {
  return ExecOptions{.threads = cfg.replay_threads};
}

BlockConfig block_config(const ScenarioConfig& cfg) {
  return BlockConfig{.max_ops = cfg.block_max_ops};
}

RecoveryConfig recovery_config(const ScenarioConfig& cfg) {
  return RecoveryConfig{.snapshot_interval = cfg.snapshot_interval,
                        .prune = cfg.prune};
}

HybridConfig hybrid_config(const ScenarioConfig& cfg) {
  return HybridConfig{.relay_mode = cfg.relay_mode,
                      .erb_batch = cfg.erb_batch,
                      .force_consensus = cfg.hybrid_force_consensus,
                      .fast_lane = cfg.fast_lane};
}

// -------------------------------------------------------------------------
// Per-runtime extras: what one runtime adds to ClusterHarness::finish's
// shared audit (scenario.h), and what it arms right after construction.
// -------------------------------------------------------------------------

template <typename Spec>
using LedgerCluster = ClusterHarness<ReplicaNode<LedgerSM<Spec>>>;
template <typename Spec>
using BlockCluster = ClusterHarness<BlockReplicaNode<Spec>>;
using MultiProposerCluster =
    ClusterHarness<MultiProposerNode<Erc20LedgerSpec>>;
using HybridCluster = ClusterHarness<HybridReplicaNode<Erc20LedgerSpec>>;
using ShardCluster = ClusterHarness<ShardedReplicaNode>;

/// kCrashRejoin: the last replica crashes mid-run and is rebuilt as a
/// rejoiner (arm_fault_schedule leaves this profile to the harness —
/// net-level events cannot reconstruct a node).  The new instance starts
/// from the INITIAL state with RecoveryConfig::recover set, so its first
/// act is fetching a snapshot and catching up the log suffix; the old
/// instance's undecided proposals die with it, and so do its pending
/// timers (SimNet::restart starts a new incarnation).
template <typename Spec>
void arm_crash_rejoin(BlockCluster<Spec>& h,
                      const typename Spec::SeqState& initial) {
  const ScenarioConfig& cfg = h.config();
  const auto p = static_cast<ProcessId>(cfg.num_replicas - 1);
  h.arm_rejoin(p, [&h, &cfg, p, initial] {
    RecoveryConfig rcfg = recovery_config(cfg);
    rcfg.recover = true;
    h.replace(p, std::make_unique<BlockReplicaNode<Spec>>(
                     h.net(), p, initial, block_config(cfg),
                     exec_options(cfg), cfg.relay_mode, rcfg));
    if (cfg.rejoin_stale && cfg.snapshot_interval > 0) {
      // Stale-snapshot variant: the first peer the rejoiner asks
      // ((p + 1) % n, recovery.h's rotation) serves nothing newer than
      // the FIRST boundary, so the first install is stale and the
      // recovery path must supersede it (via the kPruned redirect when
      // pruning outran the stale boundary, or by replaying the longer
      // suffix otherwise).
      h.node((p + 1) % cfg.num_replicas)
          .recovery()
          .set_max_served_slot(cfg.snapshot_interval);
    }
  });
}

/// Block runtime: the recovery counters, and the crash-rejoin audit.  The
/// rejoiner's log STARTS at its snapshot install boundary, so it must
/// match the reference's log SUFFIX from that boundary entry for entry
/// (compared in place), and its installed snapshot hash must equal the
/// reference's retained hash at the same boundary (same cut of the same
/// committed prefix, so the same bytes and the same hash).
template <typename Spec>
void block_extras(ScenarioReport& rep, const BlockCluster<Spec>& h) {
  const auto& ref = h.node(h.reference());
  rep.snapshot_bytes = ref.snapshot_bytes();
  rep.pruned_slots = ref.pruned_slots();
  rep.retained_log_bytes = ref.retained_log_bytes();
  if (!h.rejoiner()) return;
  const auto& r = h.node(*h.rejoiner());
  rep.catchup_ops = r.catchup_ops();
  if (r.recovering() || !r.all_settled()) {
    rep.settled = false;
    rep.violations.push_back("rejoiner still recovering or unsettled");
  }
  const std::uint64_t at = r.install_slot();
  if (!r.same_history(ref, at)) {
    rep.agreement = false;
    rep.violations.push_back(
        "rejoiner history diverges from the reference suffix at slot " +
        std::to_string(at));
  }
  if (at > 0) {
    const auto want = ref.recovery().store().hash_at(at);
    if (!want || *want != r.installed_snapshot_hash()) {
      rep.agreement = false;
      rep.violations.push_back(
          "rejoiner snapshot hash mismatch at boundary " +
          std::to_string(at));
    }
  }
}

/// Multi-proposer runtime: the DAG-cut counters.  The dedup counter is a
/// pure function of the committed reference sequence, so agreement
/// extends to it.
void multi_proposer_extras(ScenarioReport& rep,
                           const MultiProposerCluster& h) {
  const auto& ref = h.node(h.reference());
  if (rep.slots > 0) {
    rep.subblocks_per_slot = static_cast<double>(ref.subblocks_applied()) /
                             static_cast<double>(rep.slots);
  }
  rep.dup_refs_dropped = ref.dup_refs_dropped();
  for (std::size_t p = 0; p < h.size(); ++p) {
    if (h.correct(p) &&
        h.node(p).dup_refs_dropped() != rep.dup_refs_dropped) {
      rep.agreement = false;
      rep.violations.push_back("replica " + std::to_string(p) +
                               " dup_refs_dropped diverges");
    }
  }
}

/// Hybrid runtime: the lane and proof counters, and the proof-agreement
/// audit (DESIGN.md §15): "every correct replica detects the
/// equivocation" is literal map equality — same keys, byte-identical
/// canonical proofs.
void hybrid_extras(ScenarioReport& rep, const HybridCluster& h) {
  const std::size_t r = h.reference();
  const auto& ref = h.node(r);
  rep.fast_lane_ops = ref.fast_lane_ops();
  rep.conflict_proofs = ref.conflict_proofs().size();
  rep.quarantined_origins = ref.num_quarantined();
  rep.equivocation_commits = ref.equivocation_commits();
  for (std::size_t p = 0; p < h.size(); ++p) {
    if (!h.correct(p) || p == r) continue;
    if (h.node(p).conflict_proofs() != ref.conflict_proofs()) {
      rep.agreement = false;
      rep.violations.push_back("replica " + std::to_string(p) +
                               " conflict-proof set diverges");
    }
  }
}

/// Network-level equivocation (DESIGN.md §15.2): the highest-id replicas run
/// HONEST node code, but SimNet forks their outgoing Bracha SENDs —
/// exactly one victim receives a conflicting payload for the same
/// (origin, seq), the classic same-funds-different-recipient respend.
/// The fork shape is deliberate: the original payload still reaches the
/// echo quorum through the origin plus the non-victim correct replicas,
/// so that branch delivers under every fault profile, while the forked
/// branch (at most one echo) can never assemble a quorum — detection
/// fires everywhere, delivery never splits.  The forker draws nothing
/// from the primary Rng stream, so the schedule is untouched.
void arm_equivocators(HybridCluster& h) {
  using Node = HybridReplicaNode<Erc20LedgerSpec>;
  using BMsg = BrachaMsg<Node::FastBatch>;
  using Msg = Node::Net::MsgType;
  const std::size_t n = h.config().num_replicas;
  const std::size_t k = std::min(h.config().num_equivocators, n);
  for (std::size_t i = 0; i < k; ++i) {
    const auto e = static_cast<ProcessId>(n - 1 - i);
    const auto victim = static_cast<ProcessId>((e + 1) % n);
    h.net().set_equivocator(
        e, [victim, n](ProcessId to, const Msg& m) -> std::optional<Msg> {
          if (to != victim) return std::nullopt;
          const auto* bm = std::get_if<BMsg>(&m);
          if (!bm || bm->type != BMsg::Type::kSend ||
              bm->payload.ops.empty() ||
              bm->payload.ops.front().kind != Erc20Op::Kind::kTransfer) {
            return std::nullopt;
          }
          BMsg fork = *bm;
          Erc20Op& op = fork.payload.ops.front();
          op.dst = static_cast<AccountId>((op.dst + 1) % n);
          return Msg(std::in_place_type<BMsg>, std::move(fork));
        });
  }
}

/// Sharded runtime: global conservation ACROSS groups, on every correct
/// replica — all protocol records terminal (nothing in flight), every
/// account owned by exactly one group, and the owned balances summing to
/// the initial supply; a half-applied cross-shard transfer or a migration
/// leak breaks one of the three.  The same pass checks that the 2PC
/// driver reacted to every record's committed stage (ShardAudit::
/// reactions_complete) — the invariant that lets it read only the txids
/// each applied block carries.  Then the group and 2PC counters.
void shard_extras(ScenarioReport& rep, const ShardCluster& h) {
  const ShardedReplicaNode& ref = h.node(h.reference());
  const Amount expected = ref.expected_supply();
  for (std::size_t p = 0; p < h.size(); ++p) {
    if (!h.correct(p)) continue;
    const ShardAudit a = h.node(p).audit();
    const std::string who = "replica " + std::to_string(p);
    if (!a.quiescent) {
      rep.conservation = false;
      rep.violations.push_back(who +
                               ": transfers still in flight at quiescence");
    }
    if (!a.partitioned) {
      rep.conservation = false;
      rep.violations.push_back(who + ": account ownership not a partition");
    }
    if (a.owned_total != expected) {
      rep.conservation = false;
      rep.violations.push_back(who + ": supply " +
                               std::to_string(a.owned_total) + " != " +
                               std::to_string(expected));
    }
    if (!a.reactions_complete) {
      rep.violations.push_back(
          who + ": driver missed a committed stage transition");
    }
  }
  const ShardAudit a = ref.audit();
  rep.groups = ref.num_groups();
  rep.group_slots_max = ref.max_group_slots();
  rep.cross_shard_ops = a.cross_done;
  rep.cross_shard_aborts = a.cross_aborted;
  rep.migrations = a.migrations;
}

// -------------------------------------------------------------------------
// Replicated-ledger workloads: ReplicaNode<LedgerSM<Spec>> clusters, one
// command per consensus slot.
// -------------------------------------------------------------------------

// ERC20 transfer storm: every replica streams payments to rotating
// destinations while an allowance ring (p approves p+1) feeds periodic
// transferFrom spends — per-account commutation in the workload, global
// total order underneath.
ScenarioReport run_erc20_transfer_storm(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  LedgerCluster<Erc20Spec> h(
      cfg, LedgerSM<Erc20Spec>(erc20_initial(n, kInitial, 0)));

  for (ProcessId p = 0; p < n; ++p) {
    h.submit_at(p, 4 + p,
                Erc20Op::approve(static_cast<ProcessId>((p + 1) % n), 50));
  }
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < n; ++p) {
      const std::uint64_t t = 15 + 13 * j + 3 * p;
      if (j % 3 == 2) {
        // Spender p draws on its ring allowance from p-1's account.
        h.submit_at(p, t,
                    Erc20Op::transfer_from(
                        static_cast<AccountId>((p + n - 1) % n), p, 2));
      } else {
        h.submit_at(p, t,
                    Erc20Op::transfer(
                        static_cast<AccountId>((p + 1 + j) % n),
                        1 + static_cast<Amount>(j % 3)));
      }
    }
  }
  return h.finish(supply_is(kInitial * n));
}

// ERC721 mint/trade race: the treasury (account 0) mints by transferring
// its tokens out; freshly minted tokens are then put up for a trade race
// — the owner approves two spenders and both race transferFrom, with the
// total order picking the winner (EIP-721 clears the approval on
// transfer, so the loser deterministically gets FALSE).
ScenarioReport run_erc721_mint_trade_race(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const std::size_t m = 2 * n;  // tokens, all owned by the treasury
  LedgerCluster<Erc721Spec> h(
      cfg, LedgerSM<Erc721Spec>(Erc721State(n, std::vector<AccountId>(m, 0))));

  for (std::size_t j = 0; j < m; ++j) {
    const auto dst = static_cast<AccountId>(1 + (j % (n - 1)));
    h.submit_at(0, 6 + 7 * j,
                Erc721Op::transfer_from(0, dst, static_cast<TokenId>(j)));
  }
  const std::size_t races = std::min(cfg.intensity, m);
  for (std::size_t r = 0; r < races; ++r) {
    const auto owner = static_cast<ProcessId>(1 + (r % (n - 1)));
    const auto tok = static_cast<TokenId>(r);
    const auto racer_a = static_cast<ProcessId>((owner + 1) % n);
    const auto racer_b = static_cast<ProcessId>((owner + 2) % n);
    h.submit_at(owner, 120 + 20 * r, Erc721Op::approve(racer_a, tok));
    h.submit_at(owner, 122 + 20 * r,
                Erc721Op::set_approval_for_all(racer_b, true));
    h.submit_at(racer_a, 132 + 20 * r,
                Erc721Op::transfer_from(owner, racer_a, tok));
    h.submit_at(racer_b, 133 + 20 * r,
                Erc721Op::transfer_from(owner, racer_b, tok));
  }
  return h.finish(owners_valid(n, m));
}

// ERC777 approve/burn contention: the issuer authorizes two operators
// that race operatorSend against the issuer account while recipients burn
// (send to the sink account n-1); a mid-run revocation flips later sends
// of the revoked operator to FALSE — deterministically, because the
// revoke is totally ordered against the sends.
ScenarioReport run_erc777_approve_burn(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kSupply = 1000;
  LedgerCluster<Erc777Spec> h(
      cfg, LedgerSM<Erc777Spec>(Erc777State(n, /*deployer=*/0, kSupply)));

  const auto burn_sink = static_cast<AccountId>(n - 1);
  h.submit_at(0, 5, Erc777Op::authorize_operator(1));
  h.submit_at(0, 7, Erc777Op::authorize_operator(2));
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    h.submit_at(1, 15 + 11 * j, Erc777Op::operator_send(0, 1, 7));
    h.submit_at(2, 16 + 11 * j, Erc777Op::operator_send(0, 2, 7));
    h.submit_at(1, 20 + 11 * j, Erc777Op::send(burn_sink, 3));
  }
  h.submit_at(0, 90, Erc777Op::revoke_operator(1));
  return h.finish(supply_is(kSupply));
}

// -------------------------------------------------------------------------
// dyntoken issuer reconfiguration: approvals grow and shrink account 0's
// spender group mid-stream (the paper's dynamic σ_q(a)), spenders race
// inside an epoch, and a revoked spender deterministically aborts.
// -------------------------------------------------------------------------

ScenarioReport run_dyntoken_reconfig(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 50;
  ClusterHarness<DynTokenNode> h(cfg, std::vector<Amount>(n, kInitial));

  // Fast-path payments from every owner (consensus-free singleton groups).
  for (ProcessId p = 0; p < n; ++p) {
    h.submit_at(p, 6 + p,
                DynOp::transfer(static_cast<AccountId>((p + 1) % n), 5));
  }
  // Epoch 1: issuer approves p1; p1 spends under the 2-member group.
  h.submit_at(0, 20, DynOp::approve(1, 20));
  h.submit_at(1, 40, DynOp::transfer_from(0, 1, 10));
  // Epoch 2: group grows to {0,1,2}; p1 and p2 race the same account.
  h.submit_at(0, 60, DynOp::approve(2, 15));
  h.submit_at(1, 80, DynOp::transfer_from(0, 3, 5));
  h.submit_at(2, 81, DynOp::transfer_from(0, 2, 15));
  // Epoch 3: revocation — p1's remaining allowance drops to 0, so its
  // next spend aborts identically on every replica.
  h.submit_at(0, 100, DynOp::approve(1, 0));
  h.submit_at(1, 110, DynOp::transfer_from(0, 1, 5));
  // Background fast-path load, scaled by intensity (p3.. stay quiet so
  // the minority-crash profile never needs a crashed group member).
  const std::size_t movers = std::min<std::size_t>(n, 3);
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < movers; ++p) {
      h.submit_at(p, 130 + 9 * j + p,
                  DynOp::transfer(static_cast<AccountId>((p + 1 + j) % n), 1));
    }
  }
  return h.finish(supply_is(kInitial * n));
}

// -------------------------------------------------------------------------
// Consensus-free asset transfer over reliable broadcast: the CN = 1 end
// of the hierarchy.  The audited "history" is the converged final state
// (AtBcastNode::history).
// -------------------------------------------------------------------------

ScenarioReport run_at_bcast_payments(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  ClusterHarness<AtBcastNode> h(cfg, std::vector<Amount>(n, kInitial));

  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < n; ++p) {
      const auto dst = static_cast<AccountId>((p + 1 + j) % n);
      const Amount v = 1 + j % 2;
      h.at(p, 8 + 9 * j + 2 * p,
           [dst, v](AtBcastNode& node) { node.submit_transfer(dst, v); });
    }
  }
  // The node keeps no total: the supply is its balances' sum.
  const Amount expected = kInitial * n;
  return h.finish(
      [expected](const AtBcastNode& node) -> std::optional<std::string> {
        Amount supply = 0;
        for (const Amount b : node.balances()) supply += b;
        if (supply == expected) return std::nullopt;
        return "supply " + std::to_string(supply) + " != " +
               std::to_string(expected);
      });
}

// -------------------------------------------------------------------------
// Block-pipeline workloads (ISSUE 4): batched total-order replication
// with deterministic parallel replay.  Distributed like the ISSUE 2
// workloads (live fault axis), but each consensus slot carries a whole
// block (exec/block.h) that every replica replays through its
// ReplayEngine (exec/replay_engine.h) with cfg.replay_threads workers.
// The committed history — block lines in slot order — must be a pure
// function of (workload, fault, seed, intensity, block knobs),
// independent of replay_threads.
// -------------------------------------------------------------------------

// ERC20 block storm: every replica pools a seeded stream of the storm
// mix.  16 accounts across 4 replicas keep the intra-block conflict graph
// wide, so the replay waves actually fan out.
ScenarioReport run_erc20_block_storm(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 16;
  const Amount kInitial = 100;
  const Erc20State initial = erc20_initial(kAccts, kInitial, 2);
  BlockCluster<Erc20LedgerSpec> h(cfg, initial, block_config(cfg),
                                  exec_options(cfg), cfg.relay_mode,
                                  recovery_config(cfg));
  if (cfg.fault == FaultProfile::kCrashRejoin) arm_crash_rejoin(h, initial);

  Rng rng(cfg.seed * 977 + 13);
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      const std::uint64_t base = 10 + 17 * j + 4 * p;
      for (std::uint64_t k = 0; k < 3; ++k) {
        const auto b = storm_op(rng, kAccts);
        h.submit_at(p, base + k, b.caller, b.op);
      }
    }
  }
  return h.finish(supply_is(kInitial * kAccts),
                  block_extras<Erc20LedgerSpec>);
}

// -------------------------------------------------------------------------
// Multi-proposer workload (ISSUE 10): the leaderless pipeline
// (net/multi_proposer.h).  Every replica cuts and publishes sub-blocks
// concurrently; consensus orders thin reference vectors; commits flatten
// the referenced DAG cut deterministically.  The script submits a FIXED
// total op count round-robin across the num_proposers proposer replicas
// at a fixed PER-REPLICA cadence, so raising P shrinks the intake span
// (and with it the covering-proposal slot count) ~1/P — the E26 axis.
// -------------------------------------------------------------------------

// ERC20 multi-proposer storm: the block storm's op mix over a FIXED total
// op count — intensity * 16 ops round-robin across the P proposer
// replicas, each ingesting one op per kCadence ticks.  The per-replica
// rate is what a single proposer would carry at P = 1, so the aggregate
// rate grows with P and the storm span shrinks ~1/P.  The *16 total keeps
// every lane's share divisible by the default sub-block size at P in
// {1, 2, 4}: each lane ends on a full size cut, so the P axis compares
// pipelines, not leftover deadline-cut waits.
ScenarioReport run_erc20_multiproposer_storm(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 16;
  constexpr std::uint64_t kCadence = 6;
  const Amount kInitial = 100;
  const MultiProposerConfig mcfg{.num_proposers = cfg.num_proposers,
                                 .subblock_max_ops = cfg.subblock_max_ops};
  MultiProposerCluster h(cfg, erc20_initial(kAccts, kInitial, 2), mcfg,
                         exec_options(cfg));

  const std::size_t proposers =
      std::clamp<std::size_t>(cfg.num_proposers, 1, cfg.num_replicas);
  const std::size_t total_ops = cfg.intensity * 16;
  std::vector<std::uint64_t> next_at(proposers, 10);
  Rng rng(cfg.seed * 977 + 13);
  for (std::size_t i = 0; i < total_ops; ++i) {
    const auto p = static_cast<ProcessId>(i % proposers);
    const std::uint64_t t = next_at[p];
    next_at[p] += kCadence;
    const auto b = storm_op(rng, kAccts);
    h.submit_at(p, t, b.caller, b.op);
  }
  return h.finish(supply_is(kInitial * kAccts), multi_proposer_extras);
}

// Mixed block escalate: ERC721 blocks mixing the fast path
// (argument-footprint transfers, operator management) with the
// state-dependent-σ admin fragment (approve/ownerOf), which the replay
// escalates to singleton barrier waves inside each block — the
// escalation↔consensus correspondence of DESIGN.md §9.2 exercised
// through the replicated pipeline.
ScenarioReport run_mixed_block_escalate(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 12;
  constexpr std::size_t kTokens = 24;
  std::vector<AccountId> owners(kTokens);
  for (std::size_t t = 0; t < kTokens; ++t) {
    owners[t] = static_cast<AccountId>(t % kAccts);
  }
  const Erc721State initial(kAccts, owners);
  BlockCluster<Erc721LedgerSpec> h(cfg, initial, block_config(cfg),
                                   exec_options(cfg), cfg.relay_mode,
                                   recovery_config(cfg));
  if (cfg.fault == FaultProfile::kCrashRejoin) arm_crash_rejoin(h, initial);

  Rng rng(cfg.seed * 1181 + 29);
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      const std::uint64_t base = 12 + 19 * j + 4 * p;
      for (std::uint64_t k = 0; k < 3; ++k) {
        const auto caller = static_cast<ProcessId>(rng.below(kAccts));
        const auto tok = static_cast<TokenId>(rng.below(kTokens));
        const auto roll = rng.below(20);
        if (roll < 2) {  // escalates in replay: state-dependent σ
          h.submit_at(p, base + k, caller,
                      Erc721Op::approve(
                          static_cast<ProcessId>(rng.below(kAccts)), tok));
        } else if (roll < 3) {  // escalates
          h.submit_at(p, base + k, caller, Erc721Op::owner_of(tok));
        } else if (roll < 5) {  // fast path: σ = {caller}
          h.submit_at(p, base + k, caller,
                      Erc721Op::set_approval_for_all(
                          static_cast<ProcessId>(rng.below(kAccts)),
                          rng.chance(1, 2)));
        } else {  // fast path: σ = {src, dst}
          h.submit_at(p, base + k, caller,
                      Erc721Op::transfer_from(
                          static_cast<AccountId>(caller),
                          static_cast<AccountId>(rng.below(kAccts)), tok));
        }
      }
    }
  }
  return h.finish(owners_valid(kAccts, kTokens),
                  block_extras<Erc721LedgerSpec>);
}

// -------------------------------------------------------------------------
// Hybrid (synchronization-tiered) workloads (ISSUE 5): the
// HybridReplicaNode routes CN = 1 owner-signed transfers over the
// consensus-free ERB fast lane and CN > 1 operations through Paxos
// slots, merged deterministically at committed-slot barriers
// (net/hybrid_replica.h).  Distributed, live fault axis; replica p
// speaks for account p (the paper's one-owner-per-account model), so n
// accounts = n replicas.  After draining, every CORRECT replica
// finalizes its terminal fast epoch; a crashed replica's history stays
// a barrier-prefix of the survivors'.
// -------------------------------------------------------------------------

// ERC20 fast-lane storm: PURE owner-signed transfers — every operation
// classifies CN = 1 and rides the ERB lane, so the run must commit with
// ZERO consensus slots.  Every submission lands before t = 45 (the
// minority-crash point) so the delivered op set — and therefore the
// canonical terminal-epoch history — is identical across ALL fault
// profiles, not just across replicas and replay thread counts (the
// ISSUE 5 acceptance criterion; tests/hybrid_replica_test.cc).  Debits
// per account stay under the initial balance, so no transfer's response
// depends on the credit interleaving.
ScenarioReport run_erc20_fastlane_storm(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  HybridCluster h(cfg, erc20_initial(n, kInitial, 0), exec_options(cfg),
                  hybrid_config(cfg));

  const std::size_t per_replica = 3 * cfg.intensity;
  for (ProcessId p = 0; p < n; ++p) {
    for (std::size_t j = 0; j < per_replica; ++j) {
      const std::uint64_t t = 4 + p + 2 * j;  // all < 45 for default sizes
      h.submit_at(p, t, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 1 + j) % n),
                      1 + static_cast<Amount>(j % 2)));
    }
  }
  return h.finish(supply_is(kInitial * n), hybrid_extras);
}

// Mixed synchronization tiers: owner-signed transfers stream over the
// fast lane while the allowance machinery — the paper's CN ≥ 2 fragment
// — rides consensus slots: an approve ring (p approves p+1), periodic
// transferFrom draws against the ring allowances, and one totalSupply
// barrier (whole-state σ — escalated inside its merge block by the
// planner, DESIGN.md §9/§11).  The committed history interleaves both
// lanes under the decided frontiers: a pure per-profile function of the
// seed, byte-identical across replicas and replay thread counts.
ScenarioReport run_mixed_sync_tiers(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  HybridCluster h(cfg, erc20_initial(n, kInitial, 0), exec_options(cfg),
                  hybrid_config(cfg));

  for (ProcessId p = 0; p < n; ++p) {
    h.submit_at(p, 8 + p, p,
                Erc20Op::approve(static_cast<ProcessId>((p + 1) % n), 30));
  }
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < n; ++p) {
      const std::uint64_t t = 16 + 19 * j + 3 * p;
      // Two fast transfers per beat, one consensus draw every third.
      h.submit_at(p, t, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 1 + j) % n),
                      1 + static_cast<Amount>(j % 3)));
      h.submit_at(p, t + 1, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 2 + j) % n), 1));
      if (j % 3 == 2) {
        h.submit_at(p, t + 2, p,
                    Erc20Op::transfer_from(
                        static_cast<AccountId>((p + n - 1) % n), p, 2));
      }
    }
  }
  h.submit_at(0, 30 + 19 * cfg.intensity, 0, Erc20Op::total_supply());
  return h.finish(supply_is(kInitial * n), hybrid_extras);
}

// ERC20 respend storm (ISSUE 9): the fastlane-storm script on the
// Byzantine fast lane, plus one designated respender.  Replicas
// 0..n-2 stream the usual owner-signed transfers; replica n-1 submits
// exactly ONE transfer at t = 4.  The submission script is deliberately
// IDENTICAL whether or not equivocators are armed: with
// num_equivocators >= 1 the harness forks the respender's SEND in
// flight (one victim sees the same funds aimed at a different
// recipient), Bracha's quorum intersection still delivers only the
// majority branch, and the run's committed history is therefore
// byte-identical to the unforked run — only the proof ledger
// (conflict_proofs / quarantined_origins / equivocation_commits)
// distinguishes them, which is exactly the acceptance criterion.  All
// submissions land before t = 45 so the delivered set (and the
// terminal-epoch history) is invariant across fault profiles too, the
// fastlane-storm property the Byzantine matrix re-asserts.
ScenarioReport run_erc20_respend_storm(const ScenarioConfig& rcfg) {
  // The pure-Byzantine profile IS this workload with clean links: it
  // implies the Bracha lane and (at least) one armed equivocator, so a
  // bare {kErc20RespendStorm, kByzantineEquivocate} config runs the
  // canonical detection scenario without further knobs.
  ScenarioConfig cfg = rcfg;
  if (cfg.fault == FaultProfile::kByzantineEquivocate) {
    cfg.fast_lane = FastLane::kBracha;
    if (cfg.num_equivocators == 0) cfg.num_equivocators = 1;
  }
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  HybridCluster h(cfg, erc20_initial(n, kInitial, 0), exec_options(cfg),
                  hybrid_config(cfg));
  if (cfg.num_equivocators > 0) arm_equivocators(h);

  const std::size_t per_replica = 3 * cfg.intensity;
  for (ProcessId p = 0; p + 1 < n; ++p) {
    for (std::size_t j = 0; j < per_replica; ++j) {
      const std::uint64_t t = 4 + p + 2 * j;  // all < 45 for default sizes
      h.submit_at(p, t, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 1 + j) % n),
                      1 + static_cast<Amount>(j % 2)));
    }
  }
  // The respender's single intake slot — the (origin, seq) the forker
  // double-spends.  One op keeps the equivocation window minimal and
  // the history a pure function of the delivered set under every
  // profile (the fork changes payload CONTENT toward one victim, never
  // message count or size, so the primary schedule is untouched).
  const auto resp = static_cast<ProcessId>(n - 1);
  h.submit_at(resp, 4, resp,
              Erc20Op::transfer(static_cast<AccountId>(0), 2));
  return h.finish(supply_is(kInitial * n), hybrid_extras);
}

// -------------------------------------------------------------------------
// Sharded workload (DESIGN.md §14): ShardedReplicaNode clusters — N replica
// groups over one SimNet, with the 2PC / migration driver reacting to
// committed stage transitions (net/shard_group.h).
// -------------------------------------------------------------------------

// Zipfian sharded storm: a skewed keyspace (min-of-two-uniforms pushes
// traffic toward the low accounts) split across `num_groups` groups,
// `cross_pct`% of transfers forced cross-group, plus a few migrations of
// the hottest account chasing the load.  With num_groups = 1 everything
// is intra and no migration is scheduled — the plain-matrix degenerate.
ScenarioReport run_erc20_zipfian_shards(const ScenarioConfig& cfg) {
  const std::size_t kAccts = cfg.shard_accounts;
  const std::uint32_t groups = std::max<std::uint32_t>(cfg.num_groups, 1);
  const ShardGroupConfig scfg{.num_groups = groups,
                              .num_accounts = kAccts,
                              .initial_balance = 100};
  ShardCluster h(cfg, scfg, block_config(cfg), exec_options(cfg),
                 cfg.relay_mode);

  Rng rng(cfg.seed * 1553 + 41);
  const auto skewed = [&rng, kAccts] {
    return static_cast<AccountId>(
        std::min(rng.below(kAccts), rng.below(kAccts)));
  };
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      const std::uint64_t base = 10 + 17 * j + 4 * p;
      for (std::uint64_t k = 0; k < 3; ++k) {
        const AccountId src = skewed();
        AccountId dst = static_cast<AccountId>(rng.below(kAccts));
        const bool cross =
            groups > 1 && rng.below(100) < cfg.cross_pct;
        if (cross) {
          // Nudge into a different residue class (mod-group residue is
          // the INITIAL shard map; later migrations may re-home an
          // account, which is exactly the routed-traffic case).
          if (dst % groups == src % groups) {
            dst = static_cast<AccountId>((dst + 1) % kAccts);
          }
        } else if (dst % groups != src % groups) {
          dst = static_cast<AccountId>(dst - dst % groups + src % groups);
        }
        const auto v = 1 + static_cast<Amount>(rng.below(3));
        h.at(p, base + k, [src, dst, v](ShardedReplicaNode& n) {
          n.submit_transfer(src, dst, v);
        });
      }
    }
  }
  if (groups > 1) {
    // The hot account (0 — the skew's mode) chases load around the
    // groups: each migration is a CN > 1 ownership barrier in both the
    // old and the new home.
    const std::size_t moves =
        std::min<std::size_t>(4, cfg.intensity / 2 + 1);
    for (std::size_t m = 0; m < moves; ++m) {
      const auto to = static_cast<std::uint32_t>((m + 1) % groups);
      h.at(static_cast<ProcessId>(m % cfg.num_replicas), 120 + 140 * m,
           [to](ShardedReplicaNode& n) { n.submit_migrate(0, to); });
    }
  }
  return h.finish(nullptr, shard_extras);
}

}  // namespace

ScenarioReport run_scenario(const ScenarioConfig& cfg) {
  // Workload scripts hardcode participants p0..p2 (operator races,
  // dyntoken spender groups), so three replicas is the floor; the fault
  // timings are tuned for the default of four.
  TS_EXPECTS(cfg.num_replicas >= 3);
  // Only the block runtime can rejoin (scenario.h's FaultProfile doc).
  TS_EXPECTS(cfg.fault != FaultProfile::kCrashRejoin ||
             cfg.workload == Workload::kErc20BlockStorm ||
             cfg.workload == Workload::kMixedBlockEscalate);
  // Equivocators exist only where a defense does: the respend storm on
  // the Bracha fast lane (ERB trusts per-sender FIFO by design, and no
  // other workload has a fast lane to fork).  The pure-Byzantine
  // profile is the same workload with clean links.
  TS_EXPECTS(cfg.num_equivocators == 0 ||
             (cfg.workload == Workload::kErc20RespendStorm &&
              cfg.fast_lane == FastLane::kBracha));
  TS_EXPECTS(cfg.fault != FaultProfile::kByzantineEquivocate ||
             cfg.workload == Workload::kErc20RespendStorm);
  switch (cfg.workload) {
    case Workload::kErc20TransferStorm:
      return run_erc20_transfer_storm(cfg);
    case Workload::kErc721MintTradeRace:
      return run_erc721_mint_trade_race(cfg);
    case Workload::kErc777ApproveBurn:
      return run_erc777_approve_burn(cfg);
    case Workload::kDynTokenReconfig:
      return run_dyntoken_reconfig(cfg);
    case Workload::kAtBcastPayments:
      return run_at_bcast_payments(cfg);
    case Workload::kErc20BlockStorm:
      return run_erc20_block_storm(cfg);
    case Workload::kMixedBlockEscalate:
      return run_mixed_block_escalate(cfg);
    case Workload::kErc20FastlaneStorm:
      return run_erc20_fastlane_storm(cfg);
    case Workload::kMixedSyncTiers:
      return run_mixed_sync_tiers(cfg);
    case Workload::kErc20ZipfianShards:
      return run_erc20_zipfian_shards(cfg);
    case Workload::kErc20RespendStorm:
      return run_erc20_respend_storm(cfg);
    case Workload::kErc20MultiproposerStorm:
      return run_erc20_multiproposer_storm(cfg);
  }
  TS_EXPECTS(false);
  return {};
}

}  // namespace tokensync
