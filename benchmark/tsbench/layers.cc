// The traced pass: each layer timed through its own public functions,
// with inputs shaped by one end-to-end run of the workload.
//
// A span is recorded around every call into a layer, except SimNet's
// per-message send/step: a span costs about as much as one of those, so
// SimNet is recorded per round of kRoundMsgs messages.  Unit costs are
// span time over the units the calls processed; multiplied by the exact
// unit counts per committed op that the end-to-end report gives, they
// attribute ns/op to each layer, and the rest of the measured end-to-end
// ns/op is runtime.unattributed_ns_per_op.  Where one layer drives
// another (TOB and ERB send through SimNet, replay plans its block), the
// driven layer's share is subtracted so no time is counted twice.
#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "atbcast/total_order.h"
#include "bcast/erb.h"
#include "exec/block.h"
#include "exec/conflict_planner.h"
#include "exec/exec_specs.h"
#include "exec/replay_engine.h"
#include "exec/snapshot.h"
#include "exec/txpool.h"
#include "json.h"
#include "net/replica_core.h"
#include "net/shard_group.h"
#include "net/simnet.h"
#include "trace.h"

namespace tsbench {
namespace {

using namespace tokensync;
using Clock = std::chrono::steady_clock;
using Id = Tracer::Id;

constexpr std::size_t kReplicas = 4;
constexpr std::uint32_t kRoundMsgs = 256;
// Every layer gets at least kMinCalls calls and at most kMaxCalls, which
// keeps the span files to a few MB.
constexpr std::uint32_t kMinCalls = 8;
constexpr std::uint32_t kMaxCalls = 2000;

/// Time spent in a layer's spans and the units of work they processed.
struct Cost {
  double ns = 0;
  double units = 0;
  double per_unit() const { return units > 0 ? ns / units : 0; }
};

/// What one end-to-end run says about the inputs each layer sees.
struct Shape {
  std::size_t ops_per_block = 1;   ///< committed ops per consensus slot
  std::size_t msg_bytes = 0;       ///< mean wire size per message
  std::size_t proposal_bytes = 0;  ///< per committed slot
  std::size_t applied_ids = 0;     ///< mean applied-id set at a cut
  std::size_t history_lines = 0;
  std::size_t history_line_bytes = 0;
  /// Fast-lane broadcasts per ERB retransmit period (50 ticks, ErbNode's
  /// default, which the hybrid runtime keeps): one retransmit timer scan
  /// covers this many broadcasts.
  std::size_t erb_burst = 1;
  std::size_t erb_lane_ops = 1024;  ///< broadcasts the lane carries

  explicit Shape(const ScenarioReport& r) {
    const std::size_t slots = std::max<std::size_t>(r.slots, 1);
    ops_per_block = std::max<std::size_t>(r.committed / slots, 1);
    msg_bytes = static_cast<std::size_t>(
        r.net.bytes_sent / std::max<std::uint64_t>(r.net.sent, 1));
    proposal_bytes = static_cast<std::size_t>(r.proposal_bytes / slots);
    applied_ids = std::max<std::size_t>(r.committed / 2, 1);
    history_lines = std::max<std::size_t>(
        std::count(r.history.begin(), r.history.end(), '\n'), 1);
    history_line_bytes = r.history.size() / history_lines;
    if (r.fast_lane_ops > 0) erb_lane_ops = r.fast_lane_ops;
    erb_burst = std::max<std::size_t>(
        r.fast_lane_ops * 50 / std::max<std::uint64_t>(r.sim_time, 1), 1);
  }
};

/// A layer's call loop: at least kMinCalls calls, then more until the
/// layer's share of the time budget is spent or kMaxCalls is reached.
class Budget {
 public:
  explicit Budget(double seconds, std::uint32_t min_calls = kMinCalls)
      : until_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds))),
        min_calls_(min_calls) {}
  bool more(std::uint32_t calls) const {
    return calls < min_calls_ ||
           (calls < kMaxCalls && Clock::now() < until_);
  }

 private:
  Clock::time_point until_;
  std::uint32_t min_calls_;
};

/// An opaque message of a given wire size.
struct Blob {
  std::vector<std::uint8_t> bytes;
  std::uint64_t wire_size() const { return kWireHeaderBytes + bytes.size(); }
};

Blob blob_of(std::size_t wire_bytes) {
  const std::size_t body =
      wire_bytes > kWireHeaderBytes ? wire_bytes - kWireHeaderBytes : 0;
  return Blob{std::vector<std::uint8_t>(body, 0xab)};
}

/// Results the compiler must not discard.
std::uint64_t g_sink = 0;

// --- SimNet: send + dispatch -----------------------------------------

Cost trace_simnet(Tracer& t, Id parent, FaultProfile fault,
                  std::uint64_t seed, const Shape& s, double seconds) {
  SimNet<Blob> net(kReplicas, make_net_config(fault, seed));
  for (ProcessId p = 0; p < kReplicas; ++p) {
    net.set_handler(p, [](ProcessId, const Blob& b) {
      g_sink += b.bytes.size();
    });
  }
  const Blob blob = blob_of(s.msg_bytes);
  Cost c;
  const Budget budget(seconds);
  for (std::uint32_t call = 0; budget.more(call); ++call) {
    const std::uint64_t before = net.stats().delivered;
    c.ns += t.span("simnet.round", parent, call, [&](Id) {
      for (std::uint32_t k = 0; k < kRoundMsgs; ++k) {
        net.send(k % kReplicas, (k / kReplicas) % kReplicas, blob);
      }
      net.run();
    });
    c.units += static_cast<double>(net.stats().delivered - before);
  }
  return c;
}

// --- TOB: one slot of a 4-node Paxos total order ----------------------

using Erc20Block = Block<Erc20LedgerSpec>;

struct Broadcast {
  Cost cost;
  double msgs_per_unit = 0;
};

Broadcast trace_tob(Tracer& t, Id parent, const WorkloadSpec& w,
                    std::uint64_t seed, const Shape& s, double seconds) {
  using Tob = TotalOrderBcast<Erc20Block>;
  // The proposal: ops enough to match the workload's bytes per slot.
  Rng rng(seed);
  const std::uint64_t op_bytes = Erc20Ledger::BatchOp{}.wire_size();
  Erc20Block value;
  value.ops = generate_ops(
      w, std::max<std::size_t>(s.proposal_bytes / op_bytes, 1), rng);

  Tob::Net net(kReplicas, make_net_config(FaultProfile::kNone, seed));
  std::vector<std::unique_ptr<Tob>> nodes;
  std::uint64_t delivered = 0;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    nodes.push_back(std::make_unique<Tob>(
        net, p, [&delivered](std::uint64_t, ProcessId, std::uint64_t,
                             const Erc20Block&) { ++delivered; }));
  }
  Broadcast b;
  const Budget budget(seconds);
  std::uint32_t call = 0;
  for (; budget.more(call); ++call) {
    b.cost.ns += t.span("tob.slot", parent, call, [&](Id) {
      nodes[call % kReplicas]->broadcast(value);
      net.run();
    });
  }
  b.cost.units = call;
  b.msgs_per_unit = static_cast<double>(net.stats().sent) / call;
  g_sink += delivered;
  return b;
}

// --- ERB: the workload's fast lane, a burst of broadcasts per call ----
//
// ErbNode's retransmit timer scans every message the node ever sent, so
// a broadcast's cost grows with the lane's history: the pass replays the
// whole lane (fast_lane_ops broadcasts, 1024 on workloads without one)
// instead of stopping at a time budget.

Broadcast trace_erb(Tracer& t, Id parent, std::uint64_t seed,
                    const Shape& s) {
  using Erb = ErbNode<Blob>;
  Erb::Net net(kReplicas, make_net_config(FaultProfile::kNone, seed));
  std::vector<std::unique_ptr<Erb>> nodes;
  std::uint64_t delivered = 0;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    nodes.push_back(std::make_unique<Erb>(
        net, p, [&delivered](ProcessId, std::uint64_t, const Blob&) {
          ++delivered;
        }));
  }
  const Blob blob = blob_of(s.msg_bytes);
  Broadcast b;
  const std::size_t calls = (s.erb_lane_ops + s.erb_burst - 1) / s.erb_burst;
  for (std::uint32_t call = 0; call < calls; ++call) {
    b.cost.ns += t.span("erb.burst", parent, call, [&](Id) {
      for (std::size_t i = 0; i < s.erb_burst; ++i) {
        nodes[i % kReplicas]->broadcast(blob);
      }
      net.run();
    });
  }
  b.cost.units = static_cast<double>(delivered);
  b.msgs_per_unit = static_cast<double>(net.stats().sent) /
                    std::max<double>(b.cost.units, 1);
  return b;
}

// --- The execution layers: intake, planning, replay, snapshots --------

struct ExecCosts {
  Cost txpool;   ///< units: ops submitted and cut
  Cost planner;  ///< units: ops planned
  Cost replay;   ///< units: ops applied (includes the apply's own plan)
  Cost snapshot; ///< units: cuts
  double waves = 0;
  double blocks = 0;
  double escalated = 0;
};

template <ConcurrentTokenSpec S>
ExecCosts trace_exec(Tracer& t, Id parent,
                     const typename S::SeqState& initial,
                     const std::vector<typename ConcurrentLedger<S>::BatchOp>&
                         stream,
                     const Shape& s, double seconds) {
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;
  const std::size_t per_block = s.ops_per_block;
  // Cuts `stream` into blocks, wrapping around.
  std::size_t at = 0;
  const auto next_block = [&] {
    Block<S> b;
    b.ops.reserve(per_block);
    for (std::size_t i = 0; i < per_block; ++i) {
      b.ops.push_back(stream[at]);
      at = (at + 1) % stream.size();
    }
    return b;
  };
  ExecCosts c;

  // TxPool submit + BlockBuilder cut, one block per call.
  t.span("layer.txpool", parent, 0, [&](Id layer) {
    TxPool<S> pool;
    pool.set_origin(0);
    BlockBuilder<S> builder(pool, BlockConfig{.max_ops = per_block});
    const Budget budget(seconds);
    for (std::uint32_t call = 0; budget.more(call); ++call) {
      const Block<S> b = next_block();
      c.txpool.ns += t.span("txpool.block", layer, call, [&](Id) {
        for (const BatchOp& op : b.ops) {
          pool.submit(op.caller, op.op);
          if (auto cut = builder.cut_tagged_if_full()) {
            g_sink += cut->ids.size();
          }
        }
      });
      c.txpool.units += static_cast<double>(b.size());
    }
  });

  // ConflictPlanner::plan, then ReplayEngine::apply, on the same block.
  ReplayEngine<S> engine(initial, ExecOptions{.threads = 1});
  t.span("layer.exec", parent, 0, [&](Id layer) {
    const Budget budget(seconds);
    for (std::uint32_t call = 0; budget.more(call); ++call) {
      const Block<S> b = next_block();
      t.span("exec.block", layer, call, [&](Id block) {
        c.planner.ns += t.span("planner.plan", block, call, [&](Id) {
          const BatchSchedule plan =
              ConflictPlanner<S>::plan(engine.ledger(), b.ops);
          c.waves += static_cast<double>(plan.num_waves);
          c.escalated += static_cast<double>(plan.escalated);
        });
        c.replay.ns += t.span("replay.apply", block, call, [&](Id) {
          g_sink += engine.apply(b).size();
        });
      });
      c.blocks += 1;
      c.planner.units += static_cast<double>(b.size());
      c.replay.units += static_cast<double>(b.size());
    }
  });

  // Snapshot::serialize + content_hash at the run's mean applied-id count.
  Snapshot<S> snap;
  snap.next_slot = s.applied_ids / per_block;
  snap.state = engine.ledger().snapshot();
  snap.origin_frontier.assign(kReplicas, snap.next_slot / kReplicas);
  for (std::size_t i = 0; i < s.applied_ids; ++i) {
    snap.applied_ids.push_back(
        make_op_id(static_cast<ProcessId>(i % kReplicas), i / kReplicas));
  }
  std::sort(snap.applied_ids.begin(), snap.applied_ids.end());
  t.span("layer.snapshot", parent, 0, [&](Id layer) {
    const Budget budget(seconds);
    for (std::uint32_t call = 0; budget.more(call); ++call) {
      c.snapshot.ns += t.span("snapshot.cut", layer, call, [&](Id) {
        g_sink += snap.serialize().size() + snap.content_hash();
      });
      c.snapshot.units += 1;
    }
  });
  return c;
}

/// The shard workload's stream: group 0's slice of a skewed keyspace,
/// with cross_pct% of the ops replaced by the whole-state 2PC phase ops
/// a cross-shard transfer commits in its source group.
std::vector<ConcurrentLedger<ShardLedgerSpec>::BatchOp> shard_stream(
    const WorkloadSpec& w, std::size_t n, Rng& rng) {
  const std::size_t k = w.accounts;
  const std::uint32_t groups = w.config.num_groups;
  const auto local = [&](AccountId a) {
    return static_cast<AccountId>(a - a % groups);
  };
  std::vector<ConcurrentLedger<ShardLedgerSpec>::BatchOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = local(static_cast<AccountId>(
        std::min(rng.below(k), rng.below(k))));
    const auto dst = local(static_cast<AccountId>(rng.below(k)));
    const auto caller = static_cast<ProcessId>(i % kReplicas);
    if (rng.below(100) < w.config.cross_pct) {
      ops.push_back({caller, ShardOp::prepare(i, src, dst + 1, 1, 0, 1)});
    } else {
      ops.push_back({caller, ShardOp::transfer(src, dst, 1)});
    }
  }
  return ops;
}

ExecCosts trace_exec_for(Tracer& t, Id parent, const WorkloadSpec& w,
                         std::uint64_t seed, const Shape& s,
                         double seconds) {
  Rng rng(seed);
  const std::size_t n = std::max<std::size_t>(s.ops_per_block * 64, 4096);
  if (w.config.workload == Workload::kErc20ZipfianShards) {
    const ShardState initial = ShardState::initial(
        0, w.config.num_groups, w.accounts, 100);
    return trace_exec<ShardLedgerSpec>(t, parent, initial,
                                       shard_stream(w, n, rng), s, seconds);
  }
  // The scenario scripts' ERC20 ledgers: 100 per account, allowances 2
  // on the 16-account storms, 0 on the per-replica hybrid ledger.
  const Amount allowance = w.accounts > kReplicas ? 2 : 0;
  const Erc20State initial(
      std::vector<Amount>(w.accounts, 100),
      std::vector<std::vector<Amount>>(
          w.accounts, std::vector<Amount>(w.accounts, allowance)));
  return trace_exec<Erc20LedgerSpec>(t, parent, initial,
                                     generate_ops(w, n, rng), s, seconds);
}

// --- History: ReplicaCore::history() + digest_history -----------------

Cost trace_history(Tracer& t, Id parent, const Shape& s, double seconds) {
  ReplicaCore core;
  const std::string line(s.history_line_bytes, 'x');
  for (std::size_t i = 0; i < s.history_lines; ++i) {
    core.append(i, static_cast<ProcessId>(i % kReplicas), 0, line);
  }
  Cost c;
  const Budget budget(seconds);
  for (std::uint32_t call = 0; budget.more(call); ++call) {
    std::size_t bytes = 0;
    c.ns += t.span("history.render", parent, call, [&](Id) {
      const std::string h = core.history();
      g_sink += digest_history(h);
      bytes = h.size();
    });
    c.units += static_cast<double>(bytes) / 1000.0;
  }
  return c;
}

/// Cost of recording one span, from a tracer whose spans are discarded.
double ns_per_span() {
  constexpr int kSpans = 20000;
  Tracer probe;
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe.span("probe", 0, 0, [](Id) {});
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         kSpans;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int run_trace(const WorkloadSpec& w, const std::vector<std::uint64_t>& seeds,
              double seconds, bool smoke, const std::string& trace_dir) {
  Tracer t;
  // The first run shapes every layer's inputs; the following runs time
  // the runtime end to end (no spans inside run_scenario).
  const TimedRun shaping = timed_run(scenario_for(w, seeds.front(), smoke));
  const ScenarioReport& r = shaping.report;
  const Shape shape(r);
  const std::uint64_t seed = seeds.front();

  std::string runs;
  std::vector<double> e2e_ns_per_op;
  Cost simnet, history;
  Broadcast tob, erb;
  ExecCosts exec;
  // A third of the budget times the runtime end to end; the layers share
  // the rest.
  const double layer_s = seconds * 2 / 3 / 6;
  const std::int64_t pass_ns = t.span("trace.pass", 0, 0, [&](Id root) {
    const Budget e2e(seconds / 3, 2);
    for (std::uint32_t call = 0; e2e.more(call); ++call) {
      TimedRun run;
      t.span("e2e.run_scenario", root, call, [&](Id) {
        run = timed_run(scenario_for(w, seeds[call % seeds.size()], smoke));
      });
      e2e_ns_per_op.push_back(
          ratio(static_cast<double>(run.wall_ns),
                static_cast<double>(run.report.committed)));
      runs += (runs.empty() ? "" : ", ") + run.record;
    }
    t.span("layer.simnet", root, 0, [&](Id id) {
      simnet = trace_simnet(t, id, w.config.fault, seed, shape, layer_s);
    });
    t.span("layer.tob", root, 0, [&](Id id) {
      tob = trace_tob(t, id, w, seed, shape, layer_s);
    });
    t.span("layer.erb", root, 0, [&](Id id) {
      erb = trace_erb(t, id, seed, shape);
    });
    exec = trace_exec_for(t, root, w, seed, shape, layer_s);
    t.span("layer.history", root, 0, [&](Id id) {
      history = trace_history(t, id, shape, layer_s);
    });
  });

  // Unit counts per committed op, from the shaping run's report (exact).
  const double committed =
      std::max<double>(static_cast<double>(r.committed), 1);
  const double slots = static_cast<double>(r.slots);
  const double n = static_cast<double>(r.replicas);
  const double events_per_op = static_cast<double>(r.net.delivered) / committed;
  const double cuts =
      w.config.snapshot_interval > 0
          ? static_cast<double>(r.slots / w.config.snapshot_interval) * n
          : 0;
  const double erb_deliveries_per_op =
      static_cast<double>(r.fast_lane_ops) * n / committed;
  const double pooled_per_op =
      static_cast<double>(r.committed - r.fast_lane_ops) / committed;

  const double ns_event = simnet.per_unit();
  const double tob_self =
      std::max(tob.cost.per_unit() - tob.msgs_per_unit * ns_event, 0.0);
  const double erb_self =
      std::max(erb.cost.per_unit() - erb.msgs_per_unit * ns_event, 0.0);
  const double replay_self =
      std::max(exec.replay.per_unit() - exec.planner.per_unit(), 0.0);

  std::sort(e2e_ns_per_op.begin(), e2e_ns_per_op.end());
  const double runtime_ns = e2e_ns_per_op[e2e_ns_per_op.size() / 2];
  struct Attributed {
    const char* name;
    double ns_per_op;
  };
  const Attributed attributed[] = {
      {"simnet", ns_event * events_per_op},
      {"tob", tob_self * slots / committed},
      {"erb", erb_self * erb_deliveries_per_op},
      {"txpool", exec.txpool.per_unit() * pooled_per_op},
      {"planner", exec.planner.per_unit() * n},
      {"replay", replay_self * n},
      {"snapshot", exec.snapshot.per_unit() * cuts / committed},
      {"history", history.per_unit() * (n + 1) *
                      static_cast<double>(r.history.size()) / 1000 /
                      committed},
  };

  JsonObject m;
  m.num("simnet.events_per_op", events_per_op)
      .num("simnet.drop_share", ratio(static_cast<double>(r.net.dropped),
                                      static_cast<double>(r.net.sent)))
      .num("simnet.dup_share", ratio(static_cast<double>(r.net.duplicated),
                                     static_cast<double>(r.net.sent)))
      .num("simnet.ns_per_event", ns_event)
      .num("tob.ns_per_slot", tob.cost.per_unit())
      .num("tob.msgs_per_slot", tob.msgs_per_unit)
      .num("tob.proposal_bytes_per_slot",
           ratio(static_cast<double>(r.proposal_bytes), slots))
      .num("erb.ns_per_delivery", erb.cost.per_unit())
      .num("erb.msgs_per_delivery", erb.msgs_per_unit)
      .num("txpool.ns_per_op", exec.txpool.per_unit())
      .num("planner.ns_per_op", exec.planner.per_unit())
      .num("planner.waves_per_block", ratio(exec.waves, exec.blocks))
      .num("planner.escalated_share",
           ratio(exec.escalated, exec.planner.units))
      .num("replay.ns_per_op", exec.replay.per_unit())
      .num("snapshot.ns_per_cut", exec.snapshot.per_unit())
      .num("snapshot.bytes_per_cut", static_cast<double>(r.snapshot_bytes))
      .num("snapshot.cuts_per_kop", cuts / committed * 1000)
      .num("relay.miss_recoveries_per_kslot",
           ratio(static_cast<double>(r.miss_recoveries) * 1000, slots))
      .num("mp.subblocks_per_slot", r.subblocks_per_slot)
      .num("mp.dup_refs_per_kop",
           static_cast<double>(r.dup_refs_dropped) / committed * 1000)
      .num("shard.cross_share",
           static_cast<double>(r.cross_shard_ops) / committed)
      .num("shard.abort_share",
           ratio(static_cast<double>(r.cross_shard_aborts),
                 static_cast<double>(r.cross_shard_ops +
                                     r.cross_shard_aborts)))
      .num("shard.busiest_group_slot_share",
           ratio(static_cast<double>(r.group_slots_max), slots))
      .num("history.bytes_per_op",
           static_cast<double>(r.history.size()) / committed)
      .num("history.ns_per_kb", history.per_unit());
  double attributed_sum = 0;
  for (const Attributed& a : attributed) {
    m.num(std::string(a.name) + ".attributed_ns_per_op", a.ns_per_op);
    attributed_sum += a.ns_per_op;
  }
  m.num("runtime.ns_per_op", runtime_ns)
      .num("runtime.unattributed_ns_per_op", runtime_ns - attributed_sum);

  // Everything the pass recorded, against the pass's own wall time.
  m.num("trace.overhead_share",
        ratio(static_cast<double>(t.size()) * ns_per_span(),
              static_cast<double>(pass_ns)));

  const std::string stem = trace_dir + "/trace-" + w.name;
  if (!t.write(stem)) {
    std::fprintf(stderr, "tsbench: cannot write %s.{jsonl,json}\n",
                 stem.c_str());
    return 1;
  }
  JsonObject out;
  out.str("workload", w.name)
      .raw("warmup", shaping.record)
      .raw("runs", "[" + runs + "]")
      .num("spans", static_cast<std::uint64_t>(t.size()))
      .num("sink", g_sink)
      .raw("metrics", m.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace tsbench
