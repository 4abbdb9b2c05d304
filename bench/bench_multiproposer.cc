// E26/E27 — the leaderless multi-proposer pipeline (DESIGN.md §16).
//
// One lane: MultiProposer_Scenario — the fixed-size reference storm
// (erc20_multiproposer_storm) over SimNet, num_proposers × fault:
//
//   num_proposers ∈ {1, 2, 4} — P = 1 is the single-proposer baseline
//                (one lane cuts sub-blocks, consensus covers them);
//                P = 4 splits the SAME total storm across four
//                concurrent sub-block lanes, so each covering proposal
//                references more sub-blocks and the storm needs fewer
//                slots (E26);
//   fault ∈ {none, lossy_dup, minority_crash} — the profiles where the
//                claim must hold; lossy_dup additionally exercises
//                recover-on-miss and the racing-proposer dedup guard.
//
// Reported per cell, all SIMULATED protocol metrics:
//
//   slots / subblocks_per_slot — the headline axis: at P = 4 the same
//                committed-op total rides materially fewer consensus
//                slots, each covering more sub-blocks (the CI smoke
//                gate asserts P=4 slots strictly below P=1 on the
//                committed JSON);
//   commit_p50 / commit_p99 — submit -> apply per op; rank-rotation
//                masks proposer retry stalls, so the tail tightens
//                with P (E27);
//   dup_refs_dropped — sub-block references committed twice by racing
//                proposers and dropped by the dedup guard (exactly-once
//                apply; tests/multi_proposer_test.cc pins the count);
//   proposal_bytes / bytes_per_slot — decided-value bytes: reference
//                proposals cost ~16 B per sub-block regardless of op
//                payload size;
//   miss_recoveries — committed references whose sub-block needed the
//                payload exchange's kGet round-trip (non-zero under loss).
//
// Wall-clock time per iteration is the SIMULATION cost, not a protocol
// claim.  Alongside the console output the binary always writes
// BENCH_multiproposer.json into the CWD; bench/results/ holds the
// committed snapshot (README.md "Reading the benchmarks").
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>

#include "bench_json_main.h"
#include "sched/scenario.h"

namespace {

using namespace tokensync;

// The per-cell seed set.  A single run's p99 is ONE op's latency —
// whichever op drew the worst loss/retry luck — so single-seed tails
// are noise.  Every counter below is the MEAN over this fixed set
// (same set for every cell, so the P axis compares like with like);
// each individual run still carries the full determinism audits.
constexpr std::uint64_t kSeeds[] = {5, 7, 11, 13, 17, 19, 23, 29, 31};

void MultiProposer_Scenario(benchmark::State& state) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20MultiproposerStorm;
  cfg.num_proposers = static_cast<std::size_t>(state.range(0));
  // The fault axis is all_fault_profiles() order (none, lossy,
  // lossy_dup, partition_heal, minority_crash), as in every scenario
  // bench.
  cfg.fault =
      all_fault_profiles()[static_cast<std::size_t>(state.range(1))];
  cfg.num_replicas = 4;
  cfg.intensity = 6;
  std::vector<ScenarioReport> reps;
  for (auto _ : state) {
    reps.clear();
    for (const std::uint64_t seed : kSeeds) {
      cfg.seed = seed;
      reps.push_back(run_scenario(cfg));
      benchmark::DoNotOptimize(reps.back().history_digest);
    }
  }
  const double n = static_cast<double>(reps.size());
  const auto mean = [&](auto field) {
    double sum = 0;
    for (const ScenarioReport& r : reps) sum += static_cast<double>(field(r));
    return sum / n;
  };
  for (const ScenarioReport& rep : reps) {
    if (!rep.ok()) {
      state.SkipWithError(
          ("invariant violation: " + rep.summary()).c_str());
      return;
    }
  }
  const ScenarioReport& rep = reps.front();
  state.SetLabel(rep.workload + "/" + rep.fault + "/P=" +
                 std::to_string(cfg.num_proposers));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rep.committed));
  state.counters["committed"] =
      mean([](const auto& r) { return r.committed; });
  state.counters["slots"] = mean([](const auto& r) { return r.slots; });
  state.counters["subblocks_per_slot"] =
      mean([](const auto& r) { return r.subblocks_per_slot; });
  state.counters["dup_refs_dropped"] =
      mean([](const auto& r) { return r.dup_refs_dropped; });
  state.counters["proposal_bytes"] =
      mean([](const auto& r) { return r.proposal_bytes; });
  state.counters["bytes_per_slot"] =
      mean([](const auto& r) {
        return r.slots ? static_cast<double>(r.proposal_bytes) /
                             static_cast<double>(r.slots)
                       : 0.0;
      });
  state.counters["miss_recoveries"] =
      mean([](const auto& r) { return r.miss_recoveries; });
  state.counters["commit_p50"] =
      mean([](const auto& r) { return r.latency.p50; });
  state.counters["commit_p99"] =
      mean([](const auto& r) { return r.latency.p99; });
  state.counters["commits_per_ktime"] =
      mean([](const auto& r) { return r.commits_per_ktime; });
  state.counters["sim_time"] =
      mean([](const auto& r) { return r.sim_time; });
  NetStats net{};
  for (const ScenarioReport& r : reps) {
    net.sent += r.net.sent;
    net.delivered += r.net.delivered;
    net.dropped += r.net.dropped;
    net.duplicated += r.net.duplicated;
    net.bytes_sent += r.net.bytes_sent;
    net.bytes_delivered += r.net.bytes_delivered;
  }
  net.sent /= reps.size();
  net.delivered /= reps.size();
  net.dropped /= reps.size();
  net.duplicated /= reps.size();
  net.bytes_sent /= reps.size();
  net.bytes_delivered /= reps.size();
  tokensync_bench::export_net_counters(state, net);
}

void proposer_grid(benchmark::internal::Benchmark* b) {
  // Fault indices into all_fault_profiles(): 0 = none, 2 = lossy_dup,
  // 4 = minority_crash — the E26 grid.
  for (int fault : {0, 2, 4}) {
    for (int proposers : {1, 2, 4}) {
      b->Args({proposers, fault});
    }
  }
  b->ArgNames({"proposers", "fault"});
  b->MinTime(0.01);
}

BENCHMARK(MultiProposer_Scenario)->Apply(proposer_grid);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_multiproposer.json");
}
