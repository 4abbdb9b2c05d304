// tsbench — the benchmark's host program.  One process runs one workload;
// benchmark/run.py launches the processes and turns their records into
// metrics.
//
//   tsbench e2e   --workload W --seeds a,b,.. [--seconds T] [--smoke]
//   tsbench trace --workload W --seeds a,b,.. [--seconds T] [--smoke]
//                 [--trace-dir DIR]
//
// e2e treats the runtime as a black box: one untimed warm-up
// run_scenario on the first seed, then timed runs cycling the seeds until
// every seed ran once and T seconds have passed.  It prints one JSON line:
// setup time, peak RSS, the warm-up record and one record per timed run
// (wall time plus every ScenarioReport field the metrics read).
//
// trace drives each layer through its own public functions (layers.cc)
// and prints one JSON line of per-layer metrics.
//
// The load is one thread: replay_threads = 1, and nothing else runs.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "json.h"
#include "layers.h"
#include "workloads.h"

namespace tsbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string mode;
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds = 0;
  bool smoke = false;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tsbench: %s\n"
               "usage: tsbench e2e|trace --workload W --seeds a,b,.. "
               "[--seconds T] [--smoke] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

std::vector<std::uint64_t> parse_seeds(const std::string& s) {
  std::vector<std::uint64_t> out;
  std::size_t at = 0;
  while (at < s.size()) {
    const std::size_t comma = s.find(',', at);
    const std::string item =
        s.substr(at, comma == std::string::npos ? std::string::npos
                                                : comma - at);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (item.empty() || *end != '\0') usage("--seeds takes integers");
    out.push_back(v);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  if (out.empty()) usage("--seeds is empty");
  return out;
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("no mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seeds") {
      a.seeds = parse_seeds(value());
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--trace-dir") {
      a.trace_dir = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.mode != "e2e" && a.mode != "trace") usage("mode is e2e or trace");
  if (a.seeds.empty()) usage("--seeds is required");
  return a;
}

std::uint64_t peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<std::uint64_t>(u.ru_maxrss);
}

int run_e2e(const Args& a, const WorkloadSpec& w, Clock::time_point start) {
  const auto timed = [&](std::uint64_t seed) {
    return timed_run(scenario_for(w, seed, a.smoke)).record;
  };

  // Set-up ends when the first timed run may start: process start,
  // static init and one cold run (caches, allocator arenas, page faults).
  const std::string warmup = timed(a.seeds.front());
  const auto ready = Clock::now();
  const double setup_s =
      std::chrono::duration<double>(ready - start).count();

  std::string runs;
  const auto deadline =
      ready + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  for (std::size_t i = 0; i < a.seeds.size() || Clock::now() < deadline;
       ++i) {
    if (!runs.empty()) runs += ", ";
    runs += timed(a.seeds[i % a.seeds.size()]);
  }

  JsonObject out;
  out.str("workload", w.name)
      .num("setup_s", setup_s)
      .num("peak_rss_kb", peak_rss_kb())
      .raw("warmup", warmup)
      .raw("runs", "[" + runs + "]");
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace tsbench

int main(int argc, char** argv) {
  const auto start = tsbench::Clock::now();
  const tsbench::Args a = tsbench::parse(argc, argv);
  const tsbench::WorkloadSpec* w = tsbench::find_workload(a.workload);
  if (w == nullptr) tsbench::usage(("unknown workload " + a.workload).c_str());
  if (a.mode == "e2e") return tsbench::run_e2e(a, *w, start);
  return tsbench::run_trace(*w, a.seeds, a.seconds, a.smoke, a.trace_dir);
}
