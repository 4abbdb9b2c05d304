// E14/E15 — the block pipeline across the batch_size × threads ×
// conflict_pct grid (DESIGN.md §10).
//
// Two lanes:
//
//   BlockReplay_Grid — the replay half in isolation: a fixed 4096-op
//   ERC20 stream (same conflict model as bench_parallel_exec: at 0%
//   conflict every op lives in its caller's disjoint account pair, at
//   100% almost everything chains through a 4-account hot set) chunked
//   into blocks of `batch_size` and applied through one ReplayEngine.
//   Small blocks pay planning overhead per few ops and cap each block's
//   wave width at batch_size; large blocks amortize planning and expose
//   the stream's full parallelism to the worker pool.  Wall-clock
//   ops/sec; counters record blocks, mean waves per block and mean
//   parallelism (ops/wave).  On the 1-core container every thread count
//   serializes — the grid axes are recorded for multi-core hosts (same
//   caveat as E9/E12).
//
//   BlockPipeline_Replicated — the pipeline end-to-end over SimNet: the
//   erc20_block_storm scenario at several size cuts, reporting SIMULATED
//   protocol metrics — consensus slots vs committed ops (ops_per_slot,
//   the amortization batching buys), commits/ktime and commit latency
//   percentiles, under a fault-free and a lossy+duplicating profile.
//   batch_size = 1 is the PR 2 one-op-per-slot baseline.
//
// Alongside the console output the binary always writes
// BENCH_block_pipeline.json into the CWD; bench/results/ holds the
// committed snapshot (see README.md "Reading the benchmarks").
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "bench_json_main.h"
#include "common/rng.h"
#include "exec/exec_specs.h"
#include "exec/replay_engine.h"
#include "sched/scenario.h"

namespace {

using namespace tokensync;

constexpr std::size_t kAccounts = 64;
constexpr std::size_t kHotAccounts = 4;
constexpr std::size_t kStreamOps = 4096;
constexpr unsigned kValidationCost = 500;  // ~0.5 µs per op (exec side)

Erc20State initial_state() {
  return Erc20State(std::vector<Amount>(kAccounts, 1u << 20),
                    std::vector<std::vector<Amount>>(
                        kAccounts, std::vector<Amount>(kAccounts, 1)));
}

/// The conflict-parameterized op stream (bench_parallel_exec's model):
/// hot-set transfers with probability conflict_pct%, disjoint-pair
/// transfers otherwise.
std::vector<Erc20Ledger::BatchOp> make_stream(int conflict_pct) {
  Rng rng(1000 + static_cast<std::uint64_t>(conflict_pct));
  std::vector<Erc20Ledger::BatchOp> ops;
  ops.reserve(kStreamOps);
  for (std::size_t i = 0; i < kStreamOps; ++i) {
    if (rng.chance(static_cast<std::uint64_t>(conflict_pct), 100)) {
      const auto src = static_cast<ProcessId>(rng.below(kHotAccounts));
      const auto dst = static_cast<AccountId>(rng.below(kHotAccounts));
      ops.push_back({src, Erc20Op::transfer(dst, 1)});
    } else {
      const auto self = static_cast<ProcessId>(i % (kAccounts / 2));
      const auto dst = static_cast<AccountId>(self + kAccounts / 2);
      ops.push_back({self, Erc20Op::transfer(dst, 1)});
    }
  }
  return ops;
}

/// Chunks the stream into size-cut blocks (the deadline axis has no
/// meaning without a clock; the scenario lane covers it).
std::vector<Block<Erc20LedgerSpec>> chunk(
    const std::vector<Erc20Ledger::BatchOp>& ops, std::size_t batch_size) {
  std::vector<Block<Erc20LedgerSpec>> blocks;
  for (std::size_t at = 0; at < ops.size(); at += batch_size) {
    Block<Erc20LedgerSpec> b;
    const std::size_t end = std::min(at + batch_size, ops.size());
    b.ops.assign(ops.begin() + at, ops.begin() + end);
    blocks.push_back(std::move(b));
  }
  return blocks;
}

void BlockReplay_Grid(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const int conflict_pct = static_cast<int>(state.range(2));
  const auto blocks = chunk(make_stream(conflict_pct), batch_size);
  // Engine (ledger + worker pool) lives outside the timed loop; balance
  // drift across iterations is bounded exactly as in bench_parallel_exec.
  // The ~0.5 µs simulated validation per op is the parallelizable
  // payload a multi-core host spreads over the wave.
  ReplayEngine<Erc20LedgerSpec> engine(
      initial_state(), {.threads = threads}, /*num_shards=*/0,
      kValidationCost);
  for (auto _ : state) {
    for (const auto& b : blocks) {
      benchmark::DoNotOptimize(engine.apply(b));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kStreamOps));
  const double nblocks = static_cast<double>(engine.blocks_applied());
  state.counters["blocks"] = static_cast<double>(blocks.size());
  state.counters["waves_per_block"] =
      nblocks ? static_cast<double>(engine.waves_total()) / nblocks : 0.0;
  state.counters["parallelism"] =
      engine.waves_total()
          ? static_cast<double>(engine.ops_applied()) /
                static_cast<double>(engine.waves_total())
          : 0.0;
}

void BlockPipeline_Replicated(benchmark::State& state) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kErc20BlockStorm;
  cfg.fault = state.range(1) == 0 ? FaultProfile::kNone
                                  : FaultProfile::kLossyDup;
  cfg.seed = 7;
  cfg.num_replicas = 4;
  cfg.intensity = 6;
  cfg.block_max_ops = static_cast<std::size_t>(state.range(0));
  ScenarioReport rep;
  for (auto _ : state) {
    rep = run_scenario(cfg);
    benchmark::DoNotOptimize(rep.history_digest);
  }
  if (!rep.ok()) {
    state.SkipWithError(("invariant violation: " + rep.summary()).c_str());
    return;
  }
  state.SetLabel(rep.workload + "/" + rep.fault);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rep.committed));
  state.counters["slots"] = static_cast<double>(rep.slots);
  state.counters["committed"] = static_cast<double>(rep.committed);
  state.counters["ops_per_slot"] =
      rep.slots ? static_cast<double>(rep.committed) /
                      static_cast<double>(rep.slots)
                : 0.0;
  state.counters["commits_per_ktime"] = rep.commits_per_ktime;
  state.counters["commit_p50"] = static_cast<double>(rep.latency.p50);
  state.counters["commit_p99"] = static_cast<double>(rep.latency.p99);
  state.counters["sim_time"] = static_cast<double>(rep.sim_time);
  tokensync_bench::export_net_counters(state, rep.net);
}

void replay_grid(benchmark::internal::Benchmark* b) {
  for (int batch : {8, 64, 512, 4096}) {
    for (int threads : {1, 2, 4, 8}) {
      for (int conflict : {0, 50, 100}) {
        b->Args({batch, threads, conflict});
      }
    }
  }
  b->ArgNames({"batch_size", "threads", "conflict_pct"});
  b->UseRealTime();
  b->MinTime(0.05);
}

void replicated_sweep(benchmark::internal::Benchmark* b) {
  for (int batch : {1, 4, 8, 32}) {
    for (int fault : {0, 1}) {
      b->Args({batch, fault});
    }
  }
  b->ArgNames({"batch_size", "fault"});
  b->MinTime(0.01);
}

BENCHMARK(BlockReplay_Grid)->Apply(replay_grid);
BENCHMARK(BlockPipeline_Replicated)->Apply(replicated_sweep);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_block_pipeline.json");
}
