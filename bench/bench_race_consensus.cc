// E9b — hardware Algorithm 1: wait-free consensus latency from the
// lock-free race token, vs. a mutex-and-flag consensus baseline, vs. the
// same sticky race run through the generic sharded ConcurrentLedger
// (ERC721 instantiation: transferFrom of one NFT, winner via ownerOf),
// across participant counts k.
//
// Expected shape: the CAS-based race costs a handful of atomic operations
// plus a k-length scan, growing mildly and predictably with k; the mutex
// baseline serializes all participants through one lock; the ledger race
// pays the per-account lock of the shared NFT's σ-group — the irreducible
// coordination the paper locates at the race account.
#include <benchmark/benchmark.h>

#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "atomic/ledger_specs.h"
#include "atomic/tokens.h"
#include "objects/erc721.h"

namespace {

using namespace tokensync;

/// Baseline: first-proposal-wins consensus guarded by a mutex.
class MutexConsensus {
 public:
  Amount propose(Amount v) {
    const std::scoped_lock lock(mu_);
    if (!decided_) decided_ = v;
    return *decided_;
  }

 private:
  std::mutex mu_;
  std::optional<Amount> decided_;
};

/// The ERC721 race (core/erc721_consensus.h) on the hardware ledger:
/// k threads race transferFrom(a_0, dest_i, token 0); ownerOf names the
/// winner, whose proposal everyone adopts.
class LedgerRaceConsensus {
 public:
  explicit LedgerRaceConsensus(std::size_t k)
      : ledger_(make_initial(k)), proposals_(k) {
    for (auto& p : proposals_) p.store(0);
  }

  Amount propose(std::size_t i, Amount value) {
    proposals_[i] = value + 1;  // 0 encodes unwritten
    ledger_.apply(static_cast<ProcessId>(i),
                  Erc721Op::transfer_from(
                      0, static_cast<AccountId>(i + 1), 0));
    const Response owner =
        ledger_.apply(static_cast<ProcessId>(i), Erc721Op::owner_of(0));
    const std::size_t winner = static_cast<std::size_t>(owner.value - 1);
    return proposals_[winner].load() - 1;
  }

 private:
  static Erc721State make_initial(std::size_t k) {
    Erc721State q(k + 1, {0});
    for (ProcessId p = 1; p < k; ++p) q.set_operator(0, p, true);
    return q;
  }

  Erc721Ledger ledger_;
  std::vector<std::atomic<Amount>> proposals_;
};

void RaceConsensus(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    HwAlgo1 consensus(k);
    std::vector<std::thread> ts;
    std::vector<Amount> decided(k);
    for (std::size_t i = 0; i < k; ++i) {
      ts.emplace_back(
          [&, i] { decided[i] = consensus.propose(i, 1000 + i); });
    }
    for (auto& t : ts) t.join();
    for (std::size_t i = 1; i < k; ++i) {
      if (decided[i] != decided[0]) {
        state.SkipWithError("agreement violated!");
      }
    }
    benchmark::DoNotOptimize(decided);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(RaceConsensus)->RangeMultiplier(2)->Range(1, 16)->UseRealTime();

void MutexConsensusBaseline(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    MutexConsensus consensus;
    std::vector<std::thread> ts;
    std::vector<Amount> decided(k);
    for (std::size_t i = 0; i < k; ++i) {
      ts.emplace_back(
          [&, i] { decided[i] = consensus.propose(1000 + i); });
    }
    for (auto& t : ts) t.join();
    benchmark::DoNotOptimize(decided);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(MutexConsensusBaseline)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->UseRealTime();

void LedgerRace(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    LedgerRaceConsensus consensus(k);
    std::vector<std::thread> ts;
    std::vector<Amount> decided(k);
    for (std::size_t i = 0; i < k; ++i) {
      ts.emplace_back(
          [&, i] { decided[i] = consensus.propose(i, 1000 + i); });
    }
    for (auto& t : ts) t.join();
    for (std::size_t i = 1; i < k; ++i) {
      if (decided[i] != decided[0]) {
        state.SkipWithError("ledger race agreement violated!");
      }
    }
    benchmark::DoNotOptimize(decided);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(LedgerRace)->RangeMultiplier(2)->Range(1, 16)->UseRealTime();

/// Single-threaded decision-step cost: one CAS on the packed word.
void RaceDecisionStep(benchmark::State& state) {
  for (auto _ : state) {
    AtomicRaceToken race(1000, {1000, 501, 501});
    benchmark::DoNotOptimize(race.try_spend(1));
  }
}
BENCHMARK(RaceDecisionStep);

}  // namespace

BENCHMARK_MAIN();
