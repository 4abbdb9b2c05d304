// E22/E23 — consensus-slot scaling across replica groups (DESIGN.md §14).
//
// One lane: Sharding_ZipfianStorm — the erc20_zipfian_shards workload
// (fault-free, seed 7) swept over
//
//   groups ∈ {1, 2, 4}       account-space partitions, each its own
//                            block pipeline over the shared SimNet;
//   cross_pct ∈ {10, 40}     the fraction of transfers forced across
//                            groups (2PC prepare/commit/ack instead of
//                            one in-lane op);
//   accounts ∈ {16, 4096}    the keyspace (ScenarioConfig::
//                            shard_accounts).  Every cell above runs 16
//                            accounts; one extra cell,
//                            groups:4/cross:10/accounts:4096, shows which
//                            host costs grow with the keyspace rather
//                            than with the ops (E29).
//
// The workload is sized so consensus is SIZE-cut-bound (block_max_ops
// 2, intensity 16): at one group every transfer shares a single total
// order, so the slot bill is the op count over the batch size; with
// more groups each lane only orders its own slice.  The headline
// counter is group_slots_max — the BUSIEST group's committed slots,
// i.e. the per-group consensus bill.  The ISSUE 8 acceptance criterion:
// for the intra-heavy sweep (cross 10%), group_slots_max at groups > 1
// is STRICTLY below the 1-group baseline's slots.  The cross-heavy
// sweep (40%) shows the price of coordination: every cross transfer
// adds prepare + commit + ack commits spread over both lanes, so total
// slots GROW with the cross share even as the per-group max stays low.
//
// Reported per cell, all SIMULATED protocol metrics:
//
//   slots            — committed blocks summed over every group;
//   group_slots_max  — committed blocks of the busiest group (headline);
//   committed        — ops applied, client + 2PC phase + migration;
//   cross_ops/aborts — 2PC transfers that fully committed / refunded;
//   migrations       — hot-account ownership moves retired;
//   commit_p50/p99, msgs/bytes — per-block commit latency and the wire
//                      bill (more groups = more, smaller blocks).
//
// Wall-clock time per iteration is the SIMULATION cost, not a protocol
// claim; the keyspace axis reads it as real_time / committed, the host
// ns per committed op.  Alongside the console output the binary always
// writes BENCH_sharding.json into the CWD; bench/results/ holds the
// committed snapshot (README.md "Reading the benchmarks").
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>

#include "bench_json_main.h"
#include "sched/scenario.h"

namespace {

using namespace tokensync;

void Sharding_ZipfianStorm(benchmark::State& state) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20ZipfianShards;
  cfg.fault = FaultProfile::kNone;
  cfg.seed = 7;
  cfg.num_replicas = 4;
  cfg.intensity = 16;
  cfg.block_max_ops = 2;  // size-cut-bound: slots track the op volume
  cfg.num_groups = static_cast<std::uint32_t>(state.range(0));
  cfg.cross_pct = static_cast<std::uint32_t>(state.range(1));
  cfg.shard_accounts = static_cast<std::size_t>(state.range(2));
  ScenarioReport rep;
  for (auto _ : state) {
    rep = run_scenario(cfg);
    benchmark::DoNotOptimize(rep.history_digest);
  }
  if (!rep.ok()) {
    state.SkipWithError(("invariant violation: " + rep.summary()).c_str());
    return;
  }
  state.SetLabel(rep.workload + "/" + rep.fault + "/groups=" +
                 std::to_string(cfg.num_groups) + "/cross=" +
                 std::to_string(cfg.cross_pct) + "/accounts=" +
                 std::to_string(cfg.shard_accounts));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rep.committed));
  state.counters["committed"] = static_cast<double>(rep.committed);
  state.counters["slots"] = static_cast<double>(rep.slots);
  state.counters["groups"] = static_cast<double>(rep.groups);
  state.counters["group_slots_max"] =
      static_cast<double>(rep.group_slots_max);
  state.counters["cross_ops"] = static_cast<double>(rep.cross_shard_ops);
  state.counters["cross_aborts"] =
      static_cast<double>(rep.cross_shard_aborts);
  state.counters["migrations"] = static_cast<double>(rep.migrations);
  state.counters["proposal_bytes"] =
      static_cast<double>(rep.proposal_bytes);
  state.counters["commit_p50"] = static_cast<double>(rep.latency.p50);
  state.counters["commit_p99"] = static_cast<double>(rep.latency.p99);
  state.counters["sim_time"] = static_cast<double>(rep.sim_time);
  tokensync_bench::export_net_counters(state, rep.net);
}

void sharding_grid(benchmark::internal::Benchmark* b) {
  for (int groups : {1, 2, 4}) {
    // cross_pct is inert at one group (everything is intra); pin the
    // baseline to one cell rather than report duplicates.
    if (groups == 1) {
      b->Args({1, 0, 16});
      continue;
    }
    for (int cross : {10, 40}) {
      b->Args({groups, cross, 16});
    }
  }
  // The keyspace axis: the intra-heavy 4-group cell again, over 4096
  // accounts.
  b->Args({4, 10, 4096});
  b->ArgNames({"groups", "cross", "accounts"});
  b->MinTime(0.01);
}

BENCHMARK(Sharding_ZipfianStorm)->Apply(sharding_grid);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_sharding.json");
}
