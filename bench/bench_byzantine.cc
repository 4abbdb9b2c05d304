// E24/E25 — the Byzantine tier, measured (DESIGN.md §15): what the
// Bracha fast lane costs over ERB, and what the respend defense catches.
//
// One lane: Byzantine_RespendStorm — the erc20_respend_storm over
// SimNet, lane × fault × equivocators:
//
//   lane          0 = ERB (crash-tolerant baseline), 1 = Bracha
//                 (Byzantine-tolerant: SEND/ECHO/READY, f = ⌊(n-1)/3⌋);
//   fault         the all_fault_profiles() axis, same numbering as
//                 bench_hybrid_lanes;
//   equivocators  0 = honest run, 1 = the top replica forks its respend
//                 SEND at the wire (SimNet::set_equivocator) — Bracha
//                 lane only (the ERB lane has no equivocation defense,
//                 run_scenario rejects the combination).
//
// E24 (lane cost) compares lane:0 vs lane:1 at equivocators:0 —
// msgs_sent / bytes_sent / commit_p50 for the SAME committed history
// (the lane swap changes transport, never content).  E25 (detection)
// reads the lane:1 / equivocators:1 cells — conflict_proofs,
// quarantined_origins and equivocation_commits count what the defense
// caught; committed history and consensus_slots (always 0) match the
// honest cell, the at-most-one-branch claim in benchmark form.
//
// Wall-clock per iteration is SIMULATION cost, not a protocol claim.
// Writes BENCH_byzantine.json into the CWD; bench/results/ holds the
// committed snapshot (README.md "Reading the benchmarks").
#include <benchmark/benchmark.h>

#include <cstddef>

#include "bench_json_main.h"
#include "sched/scenario.h"

namespace {

using namespace tokensync;

void Byzantine_RespendStorm(benchmark::State& state) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20RespendStorm;
  cfg.fast_lane = state.range(0) == 0 ? FastLane::kErb : FastLane::kBracha;
  cfg.fault =
      all_fault_profiles()[static_cast<std::size_t>(state.range(1))];
  cfg.num_equivocators = static_cast<std::size_t>(state.range(2));
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
                 (cfg.fast_lane == FastLane::kBracha ? "/bracha" : "/erb") +
                 (cfg.num_equivocators ? "/byzantine" : "/honest"));
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
  state.counters["conflict_proofs"] =
      static_cast<double>(rep.conflict_proofs);
  state.counters["quarantined_origins"] =
      static_cast<double>(rep.quarantined_origins);
  state.counters["equivocation_commits"] =
      static_cast<double>(rep.equivocation_commits);
  tokensync_bench::export_net_counters(state, rep.net);
  state.counters["commit_p50"] = static_cast<double>(rep.latency.p50);
  state.counters["commit_p99"] = static_cast<double>(rep.latency.p99);
  state.counters["commits_per_ktime"] = rep.commits_per_ktime;
  state.counters["sim_time"] = static_cast<double>(rep.sim_time);
}

void byzantine_grid(benchmark::internal::Benchmark* b) {
  for (int lane : {0, 1}) {
    for (int fault = 0;
         fault < static_cast<int>(all_fault_profiles().size()); ++fault) {
      for (int eq : {0, 1}) {
        // Equivocation defense exists on the Bracha lane only.
        if (lane == 0 && eq == 1) continue;
        b->Args({lane, fault, eq});
      }
    }
  }
  b->ArgNames({"lane", "fault", "equivocators"});
  b->MinTime(0.01);
}

BENCHMARK(Byzantine_RespendStorm)->Apply(byzantine_grid);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_byzantine.json");
}
