// E20 — recovery cost vs snapshot cadence (DESIGN.md §13).
//
// One lane: Recovery_CrashRejoin — erc20_block_storm under the
// crash_rejoin fault profile (one replica crashes mid-run, is rebuilt
// empty, and catches up from a peer snapshot + log suffix), swept over
// snapshot_interval × prune:
//
//   interval 0            — snapshotting off: the rejoiner replays the
//                           whole retained log from slot 0, and nothing
//                           can ever be pruned (the baseline both
//                           curves are measured against);
//   interval {2, 4, 8, 16} — a snapshot cut every N committed blocks;
//                           tighter cadence moves the installable
//                           boundary closer to the commit frontier and,
//                           with prune on, lowers the retained floor.
//
// Reported per cell, all SIMULATED protocol metrics:
//
//   snapshot_bytes     — serialized size of the reference replica's
//                        newest snapshot (0 when interval is 0);
//   catchup_ops        — ops the rejoiner replayed ABOVE its installed
//                        snapshot; the headline axis: a cadence whose
//                        boundary covers the frontier at rejoin time
//                        drives this to zero, interval 0 pays the full
//                        retained log (NOT strictly monotone in the
//                        interval — the boundary is quantized, so a
//                        coarse cadence can leave the same suffix as
//                        none at all);
//   pruned_slots       — slots truncated below the acked floor on the
//                        reference replica (prune on + interval small
//                        enough that a floor advanced before the end);
//   retained_log_bytes — decided-value bytes still held at the end: the
//                        memory-bound claim.  With prune on this SHRINKS
//                        as the cadence tightens; with prune off it
//                        matches the interval-0 baseline regardless;
//   commit_p50/p99, msgs/bytes — the cost side: snapshot requests,
//                        replies and catch-up queries ride the same
//                        simulated wire.
//
// Wall-clock time per iteration is the SIMULATION cost, not a protocol
// claim.  Alongside the console output the binary always writes
// BENCH_recovery.json into the CWD; bench/results/ holds the committed
// snapshot (README.md "Reading the benchmarks").
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>

#include "bench_json_main.h"
#include "sched/scenario.h"

namespace {

using namespace tokensync;

void Recovery_CrashRejoin(benchmark::State& state) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20BlockStorm;
  cfg.fault = FaultProfile::kCrashRejoin;
  cfg.snapshot_interval = static_cast<std::uint64_t>(state.range(0));
  cfg.prune = state.range(1) != 0;
  cfg.seed = 7;
  cfg.num_replicas = 4;
  cfg.intensity = 4;
  ScenarioReport rep;
  for (auto _ : state) {
    rep = run_scenario(cfg);
    benchmark::DoNotOptimize(rep.history_digest);
  }
  if (!rep.ok()) {
    state.SkipWithError(("invariant violation: " + rep.summary()).c_str());
    return;
  }
  state.SetLabel(rep.workload + "/" + rep.fault + "/interval=" +
                 std::to_string(cfg.snapshot_interval) +
                 (cfg.prune ? "/prune" : "/keep"));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rep.committed));
  state.counters["committed"] = static_cast<double>(rep.committed);
  state.counters["slots"] = static_cast<double>(rep.slots);
  state.counters["snapshot_bytes"] =
      static_cast<double>(rep.snapshot_bytes);
  state.counters["catchup_ops"] = static_cast<double>(rep.catchup_ops);
  state.counters["pruned_slots"] = static_cast<double>(rep.pruned_slots);
  state.counters["retained_log_bytes"] =
      static_cast<double>(rep.retained_log_bytes);
  state.counters["commit_p50"] = static_cast<double>(rep.latency.p50);
  state.counters["commit_p99"] = static_cast<double>(rep.latency.p99);
  state.counters["sim_time"] = static_cast<double>(rep.sim_time);
  tokensync_bench::export_net_counters(state, rep.net);
}

void recovery_grid(benchmark::internal::Benchmark* b) {
  // Interval 0 has no snapshots, so the prune axis is inert — pin it
  // off rather than report a duplicate cell.
  b->Args({0, 0});
  for (int interval : {2, 4, 8, 16}) {
    for (int prune : {0, 1}) {
      b->Args({interval, prune});
    }
  }
  b->ArgNames({"interval", "prune"});
  b->MinTime(0.01);
}

BENCHMARK(Recovery_CrashRejoin)->Apply(recovery_grid);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_recovery.json");
}
