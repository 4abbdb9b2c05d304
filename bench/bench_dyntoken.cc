// E10 — the paper's Sec. 7 thesis, end to end: a token platform that
// synchronizes ONLY each account's spender group vs. one that totally
// orders everything through whole-network consensus.
//
// Metric: simulated network messages per settled operation (the
// discrete-event cost of coordination) and wall time to settle a fixed
// workload, as a function of
//   * the fraction of accounts with multiple enabled spenders
//     (DynPerAccount/<pct>), and
//   * replica count (scalability of the consensus-free fast path).
//
// Expected shape: per-account groups cost O(1) dissemination for
// single-spender accounts regardless of n (fast path), degrading only as
// the multi-spender fraction grows; the global-order baseline pays full
// Paxos among all n replicas for EVERY operation.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_json_main.h"
#include "common/rng.h"
#include "dyntoken/dyntoken.h"

namespace {

using namespace tokensync;

struct Workload {
  std::size_t nodes = 4;
  std::size_t ops = 40;
  /// Percent of accounts that get an approved co-spender first.
  int multi_spender_pct = 0;
};

/// Runs the workload; returns (messages sent, ops settled).
std::pair<std::uint64_t, std::uint64_t> run_workload(
    Workload w, DynTokenNode::Mode mode, std::uint64_t seed) {
  DynTokenNode::Net net(w.nodes, NetConfig{.seed = seed, .min_delay = 1,
                                           .max_delay = 8});
  std::vector<std::unique_ptr<DynTokenNode>> nodes;
  for (ProcessId p = 0; p < w.nodes; ++p) {
    nodes.push_back(std::make_unique<DynTokenNode>(
        net, p, std::vector<Amount>(w.nodes, 1u << 20), mode));
  }

  Rng rng(seed * 31 + 7);
  // Phase 1: approvals creating multi-spender accounts.
  for (ProcessId p = 0; p < w.nodes; ++p) {
    if (static_cast<int>(rng.below(100)) < w.multi_spender_pct) {
      nodes[p]->submit(DynOp::approve(
          static_cast<ProcessId>((p + 1) % w.nodes), 1u << 19));
    }
  }
  net.run(4000000);

  // Phase 2: the payment workload — owners pay random peers; approved
  // spenders occasionally spend from their grantor account.
  for (std::size_t i = 0; i < w.ops; ++i) {
    const ProcessId who = static_cast<ProcessId>(rng.below(w.nodes));
    const AccountId grantor =
        static_cast<AccountId>((who + w.nodes - 1) % w.nodes);
    const DynOp op =
        nodes[who]->allowance(grantor, who) > 0 && rng.chance(1, 2)
            ? DynOp::transfer_from(grantor, account_of(who), 1)
            : DynOp::transfer(static_cast<AccountId>(rng.below(w.nodes)), 1);
    nodes[who]->submit(op);
    for (int s = 0; s < 50; ++s) net.step();
  }
  net.run(8000000);

  std::uint64_t settled = 0;
  for (const auto& n : nodes) {
    settled += n->all_settled() ? 1 : 0;
  }
  return {net.stats().sent, settled};
}

/// Runs `w` in `mode` at `seed` on every iteration.  The seed is fixed
/// per cell, so `msgs_per_op` does not depend on how many iterations
/// google-benchmark fits.
void run_cell(benchmark::State& state, const Workload& w,
              DynTokenNode::Mode mode, std::uint64_t seed) {
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    auto [sent, settled] = run_workload(w, mode, seed);
    msgs = sent;
    benchmark::DoNotOptimize(settled);
  }
  state.counters["msgs_per_op"] =
      static_cast<double>(msgs) / static_cast<double>(w.ops);
}

void DynPerAccount(benchmark::State& state) {
  Workload w;
  w.multi_spender_pct = static_cast<int>(state.range(0));
  run_cell(state, w, DynTokenNode::Mode::kPerAccountGroups, 1);
}
BENCHMARK(DynPerAccount)->Arg(0)->Arg(25)->Arg(50)->Arg(100);

void DynGlobalOrder(benchmark::State& state) {
  Workload w;
  w.multi_spender_pct = static_cast<int>(state.range(0));
  run_cell(state, w, DynTokenNode::Mode::kGlobalOrder, 1);
}
BENCHMARK(DynGlobalOrder)->Arg(0)->Arg(25)->Arg(50)->Arg(100);

void DynScaleReplicas(benchmark::State& state) {
  Workload w;
  w.nodes = static_cast<std::size_t>(state.range(0));
  w.multi_spender_pct = 25;
  run_cell(state, w, DynTokenNode::Mode::kPerAccountGroups, 3);
}
BENCHMARK(DynScaleReplicas)->Arg(3)->Arg(5)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  return tokensync_bench::run_benchmarks_with_default_json(
      argc, argv, "BENCH_dyntoken.json");
}
