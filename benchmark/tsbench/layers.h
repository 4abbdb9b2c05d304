// The traced per-layer pass (tsbench trace).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace tsbench {

/// Shapes each layer's inputs from one end-to-end run of `w` on the first
/// seed, times the layers through their public functions under spans,
/// writes the spans to `trace_dir`/trace-<workload>.{jsonl,json} and
/// prints one JSON line of per-layer metrics.  Returns the exit code.
int run_trace(const WorkloadSpec& w, const std::vector<std::uint64_t>& seeds,
              double seconds, bool smoke, const std::string& trace_dir);

}  // namespace tsbench
