// The five pinned workloads of the benchmark and the op generator the
// traced pass feeds single layers with.
//
// Every workload is one ScenarioConfig handed to run_scenario, the
// runtime's stable public entry point; the scenario derives its whole
// client script from the seed.  All run num_replicas = 4, relay `full`
// and replay_threads = 1, so the host load is one thread.  README.md
// records why each workload was chosen and which layer it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atomic/ledger_specs.h"
#include "common/rng.h"
#include "sched/scenario.h"

namespace tsbench {

/// The workload's op mix in parts per 40, as its scenario script draws
/// it; the traced pass generates layer inputs with the same shares.
struct OpMix {
  unsigned total_supply = 0;
  unsigned approve = 0;
  unsigned transfer_from = 0;
  bool skewed = false;  ///< min-of-two-uniforms sources (the shard script)
};

struct WorkloadSpec {
  std::string name;
  tokensync::ScenarioConfig config;  ///< seed is set per run
  std::size_t accounts;              ///< the script's keyspace
  OpMix mix;
};

/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

/// The scenario for one run; `smoke` divides the intensity by 50.
tokensync::ScenarioConfig scenario_for(const WorkloadSpec& w,
                                       std::uint64_t seed, bool smoke);

/// `n` ERC20 ops drawn from the workload's mix over its keyspace.
std::vector<tokensync::Erc20Ledger::BatchOp> generate_ops(
    const WorkloadSpec& w, std::size_t n, tokensync::Rng& rng);

/// One timed run_scenario call.  `record` is its JSON record: the wall
/// time plus every report field a metric or the determinism check reads;
/// everything but the wall time is a pure function of (workload, seed).
struct TimedRun {
  tokensync::ScenarioReport report;
  std::uint64_t wall_ns = 0;
  std::string record;
};
TimedRun timed_run(const tokensync::ScenarioConfig& cfg);

}  // namespace tsbench
