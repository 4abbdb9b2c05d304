// E18/E19 — bytes on the wire under compact relay and ERB batching
// (DESIGN.md §12).
//
// One lane: CompactRelay_Scenario — the relay-sensitive workloads over
// SimNet, workload × relay_mode × fault × erb_batch:
//
//   workload 0 — erc20_block_storm (the consensus lane: blocks of 8
//                propose as full payloads vs op-ID references; the
//                erb_batch axis is inert and pinned to 1);
//   workload 1 — mixed_sync_tiers (both lanes: the ERB fast lane cuts
//                same-origin batches of erb_batch ∈ {1, 4, 8}, the slow
//                lane flips full/compact with relay_mode);
//   workload 2 — erc20_fastlane_storm (pure ERB lane, zero consensus
//                slots: the clean bytes-vs-erb_batch curve over
//                {1, 2, 4, 8}; the relay axis is inert and pinned to
//                full).
//
// Reported per cell, all SIMULATED protocol metrics:
//
//   bytes_sent / bytes_delivered — the wire-size model of common/wire.h
//                (headers + payloads + client auth), the headline axis:
//                compact mode and fatter ERB batches must shrink it
//                while the committed history stays BYTE-IDENTICAL
//                (tests/compact_relay_test.cc pins that invariance);
//   proposal_bytes / bytes_per_slot — consensus-value bytes behind the
//                reference replica's committed slots (E18's >= 5x drop
//                at block size 8);
//   miss_recoveries — blocks/commands that needed the payload
//                exchange's kGet round-trip (non-zero only under
//                compact + loss);
//   msgs_sent, commit_p50/p99, commits_per_ktime — the cost side:
//                recovery round-trips and batch cut waits show up here,
//                not in the history.
//
// Wall-clock time per iteration is the SIMULATION cost, not a protocol
// claim.  Alongside the console output the binary always writes
// BENCH_compact_relay.json into the CWD; bench/results/ holds the
// committed snapshot (README.md "Reading the benchmarks").
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>

#include "bench_json_main.h"
#include "sched/scenario.h"

namespace {

using namespace tokensync;

void CompactRelay_Scenario(benchmark::State& state) {
  ScenarioConfig cfg;
  cfg.workload = state.range(0) == 0   ? Workload::kErc20BlockStorm
                 : state.range(0) == 1 ? Workload::kMixedSyncTiers
                                       : Workload::kErc20FastlaneStorm;
  cfg.relay_mode =
      state.range(1) == 0 ? RelayMode::kFull : RelayMode::kCompact;
  // The fault axis is all_fault_profiles() order (none, lossy,
  // lossy_dup, partition_heal, minority_crash), as in every scenario
  // bench.
  cfg.fault =
      all_fault_profiles()[static_cast<std::size_t>(state.range(2))];
  cfg.erb_batch = static_cast<std::size_t>(state.range(3));
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
  state.SetLabel(rep.workload + "/" + rep.fault + "/" +
                 to_string(cfg.relay_mode));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rep.committed));
  state.counters["committed"] = static_cast<double>(rep.committed);
  state.counters["slots"] = static_cast<double>(rep.slots);
  state.counters["fast_lane_commits"] =
      static_cast<double>(rep.fast_lane_ops);
  state.counters["proposal_bytes"] =
      static_cast<double>(rep.proposal_bytes);
  state.counters["bytes_per_slot"] =
      rep.slots ? static_cast<double>(rep.proposal_bytes) /
                      static_cast<double>(rep.slots)
                : 0.0;
  state.counters["miss_recoveries"] =
      static_cast<double>(rep.miss_recoveries);
  state.counters["commit_p50"] = static_cast<double>(rep.latency.p50);
  state.counters["commit_p99"] = static_cast<double>(rep.latency.p99);
  state.counters["commits_per_ktime"] = rep.commits_per_ktime;
  state.counters["sim_time"] = static_cast<double>(rep.sim_time);
  tokensync_bench::export_net_counters(state, rep.net);
}

void relay_grid(benchmark::internal::Benchmark* b) {
  for (int relay : {0, 1}) {
    for (int fault = 0;
         fault < static_cast<int>(all_fault_profiles().size()); ++fault) {
      // Consensus lane: the fast lane is idle, erb_batch pinned to 1.
      b->Args({0, relay, fault, 1});
      // Hybrid tiers: sweep the fast-lane batch size.
      for (int batch : {1, 4, 8}) {
        b->Args({1, relay, fault, batch});
      }
    }
  }
  // Pure fast lane (zero slots): the clean E19 bytes-vs-batch curve.
  // The relay axis is inert here (nothing rides consensus) and pinned.
  for (int fault = 0;
       fault < static_cast<int>(all_fault_profiles().size()); ++fault) {
    for (int batch : {1, 2, 4, 8}) {
      b->Args({2, 0, fault, batch});
    }
  }
  b->ArgNames({"workload", "relay", "fault", "erb_batch"});
  b->MinTime(0.01);
}

BENCHMARK(CompactRelay_Scenario)->Apply(relay_grid);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_compact_relay.json");
}
