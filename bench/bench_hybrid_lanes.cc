// E16/E17 — the synchronization-tiered lane split, measured
// (DESIGN.md §11): how many consensus slots and messages the CN = 1
// fast lane saves versus running the identical script all-Paxos.
//
// One lane: HybridLanes_Scenario — the hybrid workloads over SimNet,
// workload × fault × mode, where mode 0 is the hybrid routing
// (SyncTraits decides per op) and mode 1 is the force-consensus
// baseline (every op pays a Paxos slot; ScenarioConfig::
// hybrid_force_consensus).  Reported per cell, all SIMULATED protocol
// metrics:
//
//   consensus_slots    — Paxos slots committed on the reference replica
//                        (0 for the pure-transfer storm under hybrid
//                        routing — the headline number);
//   fast_lane_commits  — ops that committed through the ERB lane;
//   fast_share         — fast_lane_commits / committed;
//   msgs_sent          — total network sends (ERB data+acks vs the
//                        Paxos prepare/promise/accept/accepted/decide
//                        fan; the message-reduction claim);
//   commit_p50/p99     — commit latency percentiles (fast ops clock
//                        submit -> local ERB delivery, consensus ops
//                        submit -> barrier apply);
//   commits_per_ktime  — committed ops per 1000 simulated time units.
//
// Wall-clock time per iteration is the SIMULATION cost, not a protocol
// claim.  Alongside the console output the binary always writes
// BENCH_hybrid_lanes.json into the CWD; bench/results/ holds the
// committed snapshot (README.md "Reading the benchmarks").
#include <benchmark/benchmark.h>

#include <cstddef>

#include "bench_json_main.h"
#include "sched/scenario.h"

namespace {

using namespace tokensync;

void HybridLanes_Scenario(benchmark::State& state) {
  ScenarioConfig cfg;
  cfg.workload = state.range(0) == 0 ? Workload::kErc20FastlaneStorm
                                     : Workload::kMixedSyncTiers;
  // The fault axis is all_fault_profiles() order (none, lossy,
  // lossy_dup, partition_heal, minority_crash), as in every scenario
  // bench, so fault:N cells are comparable across the committed
  // artifacts.
  cfg.fault =
      all_fault_profiles()[static_cast<std::size_t>(state.range(1))];
  cfg.hybrid_force_consensus = state.range(2) == 1;
  cfg.seed = 7;
  cfg.num_replicas = 4;
  cfg.intensity = 6;
  ScenarioReport rep;
  for (auto _ : state) {
    rep = run_scenario(cfg);
    benchmark::DoNotOptimize(rep.history_digest);
  }
  if (!rep.ok()) {
    state.SkipWithError(("invariant violation: " + rep.summary()).c_str());
    return;
  }
  state.SetLabel(rep.workload + "/" + rep.fault +
                 (cfg.hybrid_force_consensus ? "/all_paxos" : "/hybrid"));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rep.committed));
  state.counters["committed"] = static_cast<double>(rep.committed);
  state.counters["consensus_slots"] = static_cast<double>(rep.slots);
  state.counters["fast_lane_commits"] =
      static_cast<double>(rep.fast_lane_ops);
  state.counters["fast_share"] =
      rep.committed ? static_cast<double>(rep.fast_lane_ops) /
                          static_cast<double>(rep.committed)
                    : 0.0;
  tokensync_bench::export_net_counters(state, rep.net);
  state.counters["commit_p50"] = static_cast<double>(rep.latency.p50);
  state.counters["commit_p99"] = static_cast<double>(rep.latency.p99);
  state.counters["commits_per_ktime"] = rep.commits_per_ktime;
  state.counters["sim_time"] = static_cast<double>(rep.sim_time);
}

void lane_grid(benchmark::internal::Benchmark* b) {
  for (int workload : {0, 1}) {
    for (int fault = 0;
         fault < static_cast<int>(all_fault_profiles().size()); ++fault) {
      for (int force : {0, 1}) {
        b->Args({workload, fault, force});
      }
    }
  }
  b->ArgNames({"workload", "fault", "force_consensus"});
  b->MinTime(0.01);
}

BENCHMARK(HybridLanes_Scenario)->Apply(lane_grid);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_hybrid_lanes.json");
}
