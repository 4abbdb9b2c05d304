// Shared main() body for benches that always emit a JSON artifact: runs
// google-benchmark with --benchmark_out defaulted to `default_out`
// (format json, in the CWD) unless the caller passed their own
// --benchmark_out.  A bench never writes under bench/results/ on its
// own: refreshing a committed snapshot names it explicitly
// (bench/results/README.md).
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "net/simnet.h"

namespace tokensync_bench {

/// The one place the per-bench network counters are named: every
/// SimNet-backed bench exports the same NetStats keys (message counts
/// AND the wire-size byte totals of common/wire.h), so
/// scripts/bench_summary.py and cross-artifact comparisons never chase
/// per-bench spellings.
inline void export_net_counters(benchmark::State& state,
                                const tokensync::NetStats& net) {
  state.counters["msgs_sent"] = static_cast<double>(net.sent);
  state.counters["msgs_delivered"] = static_cast<double>(net.delivered);
  state.counters["msgs_dropped"] = static_cast<double>(net.dropped);
  state.counters["msgs_duplicated"] = static_cast<double>(net.duplicated);
  state.counters["bytes_sent"] = static_cast<double>(net.bytes_sent);
  state.counters["bytes_delivered"] =
      static_cast<double>(net.bytes_delivered);
}

inline int run_benchmarks_with_default_json(int argc, char** argv,
                                            const char* default_out) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Exact flag or --benchmark_out=... — NOT --benchmark_out_format,
    // which alone should not suppress the default artifact.
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=") + default_out;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace tokensync_bench
