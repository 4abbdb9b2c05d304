// E12 — the commutativity-aware parallel executor across the
// threads × conflict-rate × shard-count grid (DESIGN.md §9).
//
// Each cell executes one fixed 4096-op ERC20 batch through the wave
// pipeline.  `conflict_pct` is the probability an operation lands in the
// 4-account hot set instead of its caller's disjoint neighborhood: at
// 0% the conflict graph is wide (few waves — the paper's commuting
// regime, speedup bounded only by cores), at 100% almost every op
// chains on the same σ-groups (waves ≈ longest conflict chain — the
// irreducible-serialization regime; no thread count helps, exactly the
// paper's point).  The escalation lane gets its own sweep: `esc_pct`
// whole-state barriers interleaved into a commuting storm.
//
// Per-op simulated validation (~0.5 µs) stands in for signature/VM work
// — the parallelizable payload.  On a 1-core host every cell serializes:
// the grid AXES are recorded either way, and multi-core hosts see the
// spread.  The shards axis is E9's global-lock vs per-account-shard
// comparison: shards:1 is one lock over the whole ledger.
//
// Alongside the console output the binary always writes
// BENCH_parallel_exec.json into the CWD; bench/results/ holds the
// committed snapshot (see README.md "Reading the benchmarks").
// Per-cell counters: waves, escalated ops, parallelism (mean ops/wave).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "bench_json_main.h"
#include "common/rng.h"
#include "exec/exec_specs.h"

namespace {

using namespace tokensync;

constexpr std::size_t kAccounts = 64;
constexpr std::size_t kHotAccounts = 4;
constexpr std::size_t kBatchOps = 4096;
constexpr unsigned kValidationCost = 500;  // ~0.5 µs per op

Erc20State initial_state() {
  return Erc20State(std::vector<Amount>(kAccounts, 1u << 20),
                    std::vector<std::vector<Amount>>(
                        kAccounts, std::vector<Amount>(kAccounts, 1)));
}

/// A fixed batch: with probability conflict_pct% an op transfers within
/// the hot set (conflict chains), otherwise inside its caller's FIXED
/// disjoint pair {a, a+32} — pairs never overlap, so the 0% batch's only
/// conflicts are reuses of the same pair (kBatchOps/32 chain length, the
/// floor a finite account set imposes).  The conflict axis is therefore
/// monotone: 0% → parallelism ≈ 32, 100% → parallelism → 1.
std::vector<Erc20Ledger::BatchOp> make_batch(int conflict_pct) {
  Rng rng(1000 + static_cast<std::uint64_t>(conflict_pct));
  std::vector<Erc20Ledger::BatchOp> batch;
  batch.reserve(kBatchOps);
  for (std::size_t i = 0; i < kBatchOps; ++i) {
    if (rng.chance(static_cast<std::uint64_t>(conflict_pct), 100)) {
      const auto src = static_cast<ProcessId>(rng.below(kHotAccounts));
      const auto dst = static_cast<AccountId>(rng.below(kHotAccounts));
      batch.push_back({src, Erc20Op::transfer(dst, 1)});
    } else {
      const auto self = static_cast<ProcessId>(i % (kAccounts / 2));
      const auto dst = static_cast<AccountId>(self + kAccounts / 2);
      batch.push_back({self, Erc20Op::transfer(dst, 1)});
    }
  }
  return batch;
}

/// A commuting storm with esc_pct% whole-state barriers (totalSupply):
/// the escalation-lane cost sweep.
std::vector<Erc20Ledger::BatchOp> make_escalation_batch(int esc_pct) {
  Rng rng(2000 + static_cast<std::uint64_t>(esc_pct));
  std::vector<Erc20Ledger::BatchOp> batch;
  batch.reserve(kBatchOps);
  for (std::size_t i = 0; i < kBatchOps; ++i) {
    const auto self = static_cast<ProcessId>(i % (kAccounts / 2));
    if (rng.chance(static_cast<std::uint64_t>(esc_pct), 100)) {
      batch.push_back({self, Erc20Op::total_supply()});
    } else {
      batch.push_back({self, Erc20Op::transfer(
                                 static_cast<AccountId>(
                                     self + kAccounts / 2),
                                 1)});
    }
  }
  return batch;
}

void record_schedule(benchmark::State& state, const ExecReport& rep) {
  state.counters["waves"] =
      static_cast<double>(rep.schedule.num_waves);
  state.counters["escalated"] =
      static_cast<double>(rep.schedule.escalated);
  state.counters["parallelism"] = rep.schedule.parallelism();
}

// Ledger and executor (with its worker pool) live OUTSIDE the timed
// loop: the cell measures plan + wave execution, not thread spawn/join
// or state setup scaled by the very thread axis under study.  Running
// the same batch repeatedly drifts balances by ≤ a few per account per
// iteration against 2^20 initial — every transfer keeps succeeding for
// any realistic iteration count, so the measured work is constant.
void ParallelExec_ConflictGrid(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const int conflict_pct = static_cast<int>(state.range(1));
  const auto shards = static_cast<std::size_t>(state.range(2));
  const auto batch = make_batch(conflict_pct);
  Erc20Ledger ledger(initial_state(), kValidationCost, shards);
  Erc20Executor exec(ledger, {.threads = threads});
  ExecReport last;
  for (auto _ : state) {
    last = exec.execute(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchOps));
  record_schedule(state, last);
}

void ParallelExec_EscalationLane(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const int esc_pct = static_cast<int>(state.range(1));
  const auto batch = make_escalation_batch(esc_pct);
  Erc20Ledger ledger(initial_state(), kValidationCost, /*num_shards=*/0);
  Erc20Executor exec(ledger, {.threads = threads});
  ExecReport last;
  for (auto _ : state) {
    last = exec.execute(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchOps));
  record_schedule(state, last);
}

/// Baseline: the same batches straight through ConcurrentLedger::
/// apply_batch on one thread — what the executor's planning overhead
/// must beat once cores exist.
void ParallelExec_ApplyBatchBaseline(benchmark::State& state) {
  const int conflict_pct = static_cast<int>(state.range(0));
  const auto batch = make_batch(conflict_pct);
  Erc20Ledger ledger(initial_state(), kValidationCost, /*num_shards=*/0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.apply_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchOps));
}

void conflict_grid(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4, 8}) {
    for (int conflict : {0, 25, 50, 100}) {
      for (int shards : {1, 16, static_cast<int>(kAccounts)}) {
        b->Args({threads, conflict, shards});
      }
    }
  }
  b->ArgNames({"threads", "conflict_pct", "shards"});
  b->UseRealTime();
  b->MinTime(0.05);
}

void escalation_sweep(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 4}) {
    for (int esc : {0, 1, 5, 25}) {
      b->Args({threads, esc});
    }
  }
  b->ArgNames({"threads", "esc_pct"});
  b->UseRealTime();
  b->MinTime(0.05);
}

BENCHMARK(ParallelExec_ConflictGrid)->Apply(conflict_grid);
BENCHMARK(ParallelExec_EscalationLane)->Apply(escalation_sweep);
BENCHMARK(ParallelExec_ApplyBatchBaseline)
    ->Arg(0)
    ->Arg(100)
    ->ArgName("conflict_pct")
    ->UseRealTime()
    ->MinTime(0.05);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_parallel_exec.json");
}
