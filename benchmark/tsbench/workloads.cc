#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "json.h"

namespace tsbench {

using namespace tokensync;

namespace {

ScenarioConfig base(Workload w, FaultProfile f, std::size_t intensity) {
  ScenarioConfig c;
  c.workload = w;
  c.fault = f;
  c.num_replicas = 4;
  c.replay_threads = 1;
  c.relay_mode = RelayMode::kFull;
  c.intensity = intensity;
  return c;
}

// Block knobs that keep the storm below consensus capacity: with the
// defaults (8 ops, deadline 25) p50 grows with run length, so wall time
// would measure a backlog instead of the pipeline.
ScenarioConfig block_knobs(ScenarioConfig c) {
  c.block_deadline = 200;
  c.block_max_ops = 64;
  return c;
}

std::vector<WorkloadSpec> make_workloads() {
  // The storm scripts' mix (scenario.cc): 1/40 totalSupply, 3/40
  // approve, 4/40 transferFrom, the rest transfers.
  const OpMix storm{.total_supply = 1, .approve = 3, .transfer_from = 4};
  std::vector<WorkloadSpec> w;

  w.push_back({"block_storm",
               block_knobs(base(Workload::kErc20BlockStorm,
                                FaultProfile::kNone, 4000)),
               16, storm});

  ScenarioConfig snap = block_knobs(
      base(Workload::kErc20BlockStorm, FaultProfile::kNone, 3000));
  snap.snapshot_interval = 16;
  snap.prune = true;
  w.push_back({"block_snap", snap, 16, storm});

  ScenarioConfig mp = base(Workload::kErc20MultiproposerStorm,
                           FaultProfile::kLossyDup, 800);
  mp.num_proposers = 4;
  mp.subblock_max_ops = 4;
  w.push_back({"mp_lossy", mp, 16, storm});

  // mixed_sync_tiers: two fast transfers per beat, a transferFrom every
  // third beat (about 6 in 40), one totalSupply per run.  Replica p
  // speaks for account p, so the keyspace is the replica count.
  w.push_back({"hybrid_mixed",
               base(Workload::kMixedSyncTiers, FaultProfile::kNone, 800), 4,
               OpMix{.transfer_from = 6}});

  ScenarioConfig sh = block_knobs(
      base(Workload::kErc20ZipfianShards, FaultProfile::kNone, 750));
  sh.num_groups = 4;
  sh.cross_pct = 10;
  sh.shard_accounts = 4096;
  w.push_back({"shards_wide", sh, sh.shard_accounts, OpMix{.skewed = true}});
  return w;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> kAll = make_workloads();
  for (const WorkloadSpec& w : kAll) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ScenarioConfig scenario_for(const WorkloadSpec& w, std::uint64_t seed,
                            bool smoke) {
  ScenarioConfig c = w.config;
  c.seed = seed;
  if (smoke) c.intensity = std::max<std::size_t>(c.intensity / 50, 1);
  return c;
}

std::vector<Erc20Ledger::BatchOp> generate_ops(const WorkloadSpec& w,
                                               std::size_t n, Rng& rng) {
  const std::size_t k = w.accounts;
  const auto account = [&rng, k, &w] {
    const auto a = rng.below(k);
    return static_cast<AccountId>(w.mix.skewed ? std::min(a, rng.below(k))
                                               : a);
  };
  std::vector<Erc20Ledger::BatchOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto caller = static_cast<ProcessId>(account());
    const auto dst = static_cast<AccountId>(rng.below(k));
    const auto roll = static_cast<unsigned>(rng.below(40));
    Erc20Op op;
    if (roll < w.mix.total_supply) {
      op = Erc20Op::total_supply();
    } else if (roll < w.mix.total_supply + w.mix.approve) {
      op = Erc20Op::approve(static_cast<ProcessId>(dst), 2);
    } else if (roll < w.mix.total_supply + w.mix.approve +
                          w.mix.transfer_from) {
      op = Erc20Op::transfer_from(account(), dst, 1);
    } else {
      op = Erc20Op::transfer(dst, 1 + rng.below(3));
    }
    ops.push_back({caller, op});
  }
  return ops;
}

namespace {

std::string run_record(const ScenarioReport& r, std::uint64_t wall_ns) {
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.history_digest));
  JsonObject o;
  o.num("seed", r.seed)
      .num("wall_ns", wall_ns)
      .boolean("ok", r.ok())
      .str("violation", r.violations.empty() ? "" : r.violations.front())
      .num("submitted", r.submitted)
      .num("committed", r.committed)
      .num("slots", r.slots)
      .num("fast_lane_ops", r.fast_lane_ops)
      .num("sim_time", r.sim_time)
      .num("commits_per_ktime", r.commits_per_ktime)
      .num("lat_count", r.latency.count)
      .num("lat_mean", r.latency.mean)
      .num("lat_p50", r.latency.p50)
      .num("lat_p99", r.latency.p99)
      .num("sent", r.net.sent)
      .num("delivered", r.net.delivered)
      .num("dropped", r.net.dropped)
      .num("duplicated", r.net.duplicated)
      .num("bytes_sent", r.net.bytes_sent)
      .num("proposal_bytes", r.proposal_bytes)
      .num("miss_recoveries", r.miss_recoveries)
      .num("snapshot_bytes", r.snapshot_bytes)
      .num("pruned_slots", r.pruned_slots)
      .num("groups", r.groups)
      .num("group_slots_max", r.group_slots_max)
      .num("cross_shard_ops", r.cross_shard_ops)
      .num("cross_shard_aborts", r.cross_shard_aborts)
      .num("migrations", r.migrations)
      .num("subblocks_per_slot", r.subblocks_per_slot)
      .num("dup_refs_dropped", r.dup_refs_dropped)
      .num("history_bytes", r.history.size())
      .num("history_lines", static_cast<std::uint64_t>(std::count(
                                r.history.begin(), r.history.end(), '\n')))
      .str("history_digest", digest);
  return o.str();
}

}  // namespace

TimedRun timed_run(const ScenarioConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  TimedRun t;
  const auto start = Clock::now();
  t.report = run_scenario(cfg);
  t.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  t.record = run_record(t.report, t.wall_ns);
  return t;
}

}  // namespace tsbench
