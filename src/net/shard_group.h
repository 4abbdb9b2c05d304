// Cross-shard replica groups — partitioned consensus with atomic
// transfers and account migration (DESIGN.md §14).
//
// Every runtime through §13 replicates ONE ledger on every node: each
// committed op costs one share of a single total order, no matter how
// few accounts it touches.  The paper's σ-group analysis (Sec. 5) says
// only the accounts an operation touches need to agree — so this header
// partitions the ACCOUNT SPACE across N replica groups.  Each group is
// a full block pipeline (net/block_replica.h: TxPool → BlockBuilder →
// Paxos-backed total order → ReplayEngine) running over its own slice
// of ONE shared SimNet:
//
//   SimNet<GroupMsg<BlockLaneMsg>>      one wire, one event schedule
//     └─ ShardedReplicaNode (per node)  dispatch on the group tag
//          └─ LaneNet (per group)       the SimNet surface, group-tagged
//               └─ BasicLaneMux         the block pipeline's 3 lanes
//                    └─ Paxos / relay / recovery engines
//
// GroupMsg (net/lane_mux.h) wraps each lane message with its group id;
// is_aux_msg forwards to the inner message, so a group's relay/recovery
// lanes keep drawing from the auxiliary randomness stream and the
// per-group consensus schedules stay primary-class — the same two-class
// argument as §12.4, now per group.
//
// Ownership and routing.  Account a starts in group a mod G.  Each node
// keeps a local route map updated from COMMITTED migration records, so
// routing decisions are a pure function of the replicated prefix this
// node has applied plus the deterministic event schedule.
//
// Intra-shard ops (kTransfer between two accounts of one group) ride
// that group's consensus alone — this is where throughput scales with
// G.  Cross-shard transfers are a two-shard atomic commit over the two
// groups' consensus lanes:
//
//   kPrepare  (source group)  lock the debit: balance moves out of
//                             balances[src] into the replicated tx
//                             record; stage kPrepared (or kRejected —
//                             insufficient funds / src not owned here);
//   kCommit   (dest group)    credit balances[dst] if dst is still
//                             owned there; stage kCommitted, else
//                             kCommitRejected;
//   kCommitAck(source group)  consume the lock; stage kDone;
//   kAbort    (source group)  refund the lock; stage kAborted.
//
// Every phase transition is recorded in the group's REPLICATED state
// (ShardState::txs), and every phase op is idempotent against that
// record — duplicate submissions (coordinator + staggered backups)
// commit harmlessly with the recorded outcome.  No replica ever holds a
// state where the debit committed without a matching lock record, so no
// half-applied transfer is ever visible; at quiescence every record is
// terminal and Σ owned balances equals the initial supply.
//
// Migration (the dynamic-ownership op, CN > 1 in both groups): a
// kMigrateOut barrier in the source group sweeps the account's balance
// into the record (refused while a 2PC lock is outstanding on the
// account), a kMigrateIn barrier in the dest group lands it and flips
// ownership, kMigrateAck retires the source record.  Both barrier ops
// footprint the WHOLE shard state (Footprint::set_all), so they ride
// the replay planner's escalation path — one barrier wave per group,
// the run-time realization of the σ-group consensus the migration needs.
//
// The 2PC/migration DRIVER (ShardedReplicaNode) reacts to committed
// stage transitions: after each block applies, the node reads the tx
// records of the txids that block's phase/migration ops carry; the
// phase op's original caller reacts after a short fixed delay and every
// other replica arms a staggered backup timer that re-checks the
// replicated stage before submitting — so a crashed or partitioned
// coordinator never wedges a transfer, and all reactions are pure
// functions of (replicated state, deterministic timers).  Committed
// per-group histories are therefore byte-identical across replicas and
// replay thread counts per (seed, config) — the sharded determinism
// criterion (tests/cross_shard_test.cc).
//
// Reading only the block's own txids is exact, not a sampling: a
// record's stage changes only when an op carrying that txid applies
// (apply_inplace writes s.txs[op.txid] and no other record), and this
// runtime never installs a snapshot, so every record the block did not
// name still holds the stage the driver last reacted to.  Visiting the
// named txids in ascending order reproduces the reactions — and the
// timer sequence — of a walk over every record, at a cost that
// follows the block instead of the keyspace.  ShardAudit's
// reactions_complete re-checks that invariant over every record at the
// end of each audited run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atomic/ledger.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/wire.h"
#include "core/footprint.h"
#include "exec/block.h"
#include "exec/snapshot.h"
#include "net/block_replica.h"
#include "net/lane_mux.h"
#include "net/simnet.h"
#include "objects/object.h"

namespace tokensync {

// ---------------------------------------------------------------------------
// The sharded token spec
// ---------------------------------------------------------------------------

enum class ShardOpKind : std::uint8_t {
  kTransfer = 0,  ///< intra-group: both accounts owned here
  kBalanceOf,     ///< read (0 for accounts not owned by this group)
  kPrepare,       ///< 2PC phase 1, source group: lock the debit
  kCommit,        ///< 2PC phase 2, dest group: credit (or reject)
  kCommitAck,     ///< 2PC retire, source group: consume the lock
  kAbort,         ///< 2PC undo, source group: refund the lock
  kMigrateOut,    ///< migration barrier, source group: sweep + disown
  kMigrateIn,     ///< migration barrier, dest group: land + own
  kMigrateAck,    ///< migration retire, source group
};

/// The sharded ledger's operation alphabet — one flat POD (the snapshot
/// codec serializes ops as raw bytes).  Phase/migration ops carry the
/// cluster-unique txid plus the (from_group, to_group) pair pinned at
/// submit time, so a committed phase op is self-describing: any replica
/// can derive the follow-up from the record alone.
struct ShardOp {
  ShardOpKind kind = ShardOpKind::kTransfer;
  AccountId src = kNoAccount;
  AccountId dst = kNoAccount;
  Amount value = 0;
  std::uint64_t txid = 0;
  std::uint32_t from_group = 0;
  std::uint32_t to_group = 0;

  static ShardOp transfer(AccountId src, AccountId dst, Amount v) {
    return {ShardOpKind::kTransfer, src, dst, v, 0, 0, 0};
  }
  static ShardOp balance_of(AccountId a) {
    return {ShardOpKind::kBalanceOf, a, kNoAccount, 0, 0, 0, 0};
  }
  static ShardOp prepare(std::uint64_t txid, AccountId src, AccountId dst,
                         Amount v, std::uint32_t gs, std::uint32_t gd) {
    return {ShardOpKind::kPrepare, src, dst, v, txid, gs, gd};
  }
  static ShardOp commit(std::uint64_t txid, AccountId src, AccountId dst,
                        Amount v, std::uint32_t gs, std::uint32_t gd) {
    return {ShardOpKind::kCommit, src, dst, v, txid, gs, gd};
  }
  static ShardOp commit_ack(std::uint64_t txid, AccountId src,
                            std::uint32_t gs, std::uint32_t gd) {
    return {ShardOpKind::kCommitAck, src, kNoAccount, 0, txid, gs, gd};
  }
  static ShardOp abort(std::uint64_t txid, AccountId src, std::uint32_t gs,
                       std::uint32_t gd) {
    return {ShardOpKind::kAbort, src, kNoAccount, 0, txid, gs, gd};
  }
  static ShardOp migrate_out(std::uint64_t txid, AccountId a,
                             std::uint32_t gs, std::uint32_t gd) {
    return {ShardOpKind::kMigrateOut, a, kNoAccount, 0, txid, gs, gd};
  }
  static ShardOp migrate_in(std::uint64_t txid, AccountId a, Amount v,
                            std::uint32_t gs, std::uint32_t gd) {
    return {ShardOpKind::kMigrateIn, a, kNoAccount, v, txid, gs, gd};
  }
  static ShardOp migrate_ack(std::uint64_t txid, AccountId a,
                             std::uint32_t gs, std::uint32_t gd) {
    return {ShardOpKind::kMigrateAck, a, kNoAccount, 0, txid, gs, gd};
  }

  std::string to_string() const {
    std::string s;
    switch (kind) {
      case ShardOpKind::kTransfer:
        s += "xfer(";
        s += std::to_string(src);
        s += "->";
        s += std::to_string(dst);
        s += ",";
        s += std::to_string(value);
        s += ")";
        return s;
      case ShardOpKind::kBalanceOf:
        s += "balanceOf(";
        s += std::to_string(src);
        s += ")";
        return s;
      case ShardOpKind::kPrepare:
        s += "prep";
        break;
      case ShardOpKind::kCommit:
        s += "commit";
        break;
      case ShardOpKind::kCommitAck:
        s += "ack";
        break;
      case ShardOpKind::kAbort:
        s += "abort";
        break;
      case ShardOpKind::kMigrateOut:
        s += "mout";
        break;
      case ShardOpKind::kMigrateIn:
        s += "min";
        break;
      case ShardOpKind::kMigrateAck:
        s += "mack";
        break;
    }
    s += "[";
    s += std::to_string(txid);
    s += " a";
    s += std::to_string(src);
    if (dst != kNoAccount) {
      s += "->a";
      s += std::to_string(dst);
    }
    s += " v";
    s += std::to_string(value);
    s += " g";
    s += std::to_string(from_group);
    s += ">g";
    s += std::to_string(to_group);
    s += "]";
    return s;
  }

  friend bool operator==(const ShardOp&, const ShardOp&) = default;
};

/// Replicated lifecycle of one cross-shard transaction INSIDE one
/// group's state.  Source and dest group each hold their own record
/// under the same txid; the stages below never mix sides.
enum class ShardTxStage : std::uint8_t {
  kPrepared = 1,   ///< source: debit locked in the record (TRANSIENT)
  kRejected,       ///< source: prepare/migrate-out refused (terminal)
  kDone,           ///< source: commit acked, lock consumed (terminal)
  kAborted,        ///< source: lock refunded (terminal)
  kCommitted,      ///< dest: credit applied (terminal)
  kCommitRejected, ///< dest: credit refused — dst moved away (terminal)
  kMovedOut,       ///< source: balance swept into the record (TRANSIENT)
  kMoveDone,       ///< source: migration acked (terminal)
  kMovedIn,        ///< dest: account landed, ownership flipped (terminal)
};

/// One group-side transaction record.  `value` holds the in-flight
/// amount while the stage is transient (kPrepared / kMovedOut) — the
/// conservation audit counts it exactly then.  `coordinator` is the
/// caller that created the record; the driver's backup timers stagger
/// around it.
struct ShardTx {
  ShardTxStage stage = ShardTxStage::kRejected;
  ProcessId coordinator = kNoProcess;
  AccountId src = kNoAccount;
  AccountId dst = kNoAccount;
  Amount value = 0;
  std::uint32_t from_group = 0;
  std::uint32_t to_group = 0;

  friend bool operator==(const ShardTx&, const ShardTx&) = default;
};

/// One group's replicated ledger slice.  `balances` spans the FULL
/// account space (a non-owned slot is always 0); `owned[a]` says whether
/// this group is a's current home — only owned balances are
/// authoritative.  The σ-group picture: the group dimension is part of
/// the snapshot core, so two replicas of the same group hash-agree and
/// replicas of different groups never do.
struct ShardState {
  std::uint32_t group = 0;
  std::uint32_t num_groups = 1;
  std::vector<Amount> balances;
  std::vector<std::uint8_t> owned;
  std::map<std::uint64_t, ShardTx> txs;

  static ShardState initial(std::uint32_t group, std::uint32_t num_groups,
                            std::size_t accounts, Amount per_account) {
    TS_EXPECTS(num_groups >= 1);
    ShardState q;
    q.group = group;
    q.num_groups = num_groups;
    q.balances.assign(accounts, 0);
    q.owned.assign(accounts, 0);
    for (std::size_t a = 0; a < accounts; ++a) {
      if (a % num_groups == group) {
        q.owned[a] = 1;
        q.balances[a] = per_account;
      }
    }
    return q;
  }

  /// Sum over accounts this group currently owns.
  Amount owned_total() const {
    Amount sum = 0;
    for (std::size_t a = 0; a < balances.size(); ++a) {
      if (owned[a]) sum += balances[a];
    }
    return sum;
  }

  /// Value locked in transient records (kPrepared debits, kMovedOut
  /// sweeps) — in flight between groups, counted by the global audit.
  Amount in_flight_total() const {
    Amount sum = 0;
    for (const auto& [txid, tx] : txs) {
      if (tx.stage == ShardTxStage::kPrepared ||
          tx.stage == ShardTxStage::kMovedOut) {
        sum += tx.value;
      }
    }
    return sum;
  }

  /// No transaction is mid-protocol in this group.
  bool quiescent() const { return in_flight_total() == 0; }

  friend bool operator==(const ShardState&, const ShardState&) = default;
};

/// Sequential reference spec (state-passing form over the same state).
struct ShardSeqSpec {
  using State = ShardState;
  using Op = ShardOp;
  static Applied<ShardState> apply(const ShardState& q, ProcessId caller,
                                   const ShardOp& op);
};

/// The ConcurrentTokenSpec instance one replica group replicates.
/// Footprints: a transfer touches exactly its two accounts (the paper's
/// σ = {src, dst}, argument-only); every 2PC phase and migration op
/// escalates to the WHOLE shard state — the consensus-barrier footprint
/// the cross-group protocol rides.
struct ShardLedgerSpec {
  using SeqSpec = ShardSeqSpec;
  using SeqState = ShardState;
  using Op = ShardOp;
  using State = ShardState;

  static State from_seq(const SeqState& q) { return q; }
  static SeqState to_seq(const State& s) { return s; }
  static std::size_t num_accounts(const State& s) {
    return s.balances.size();
  }
  static Amount account_value(const State& s, AccountId a) {
    return s.owned[a] ? s.balances[a] : 0;
  }

  static void footprint(const State& /*s*/, ProcessId /*caller*/,
                        const Op& op, Footprint& fp) {
    fp.clear();
    switch (op.kind) {
      case ShardOpKind::kTransfer:
        fp.add(op.src);
        if (op.dst != op.src) fp.add(op.dst);
        return;
      case ShardOpKind::kBalanceOf:
        fp.add(op.src);
        return;
      default:
        // Phase + migration ops read/write the tx-record table and the
        // ownership map: whole-state barrier (planner escalation).
        fp.set_all();
        return;
    }
  }

  static Response apply_inplace(State& s, ProcessId caller, const Op& op) {
    const std::size_t n = s.balances.size();
    switch (op.kind) {
      case ShardOpKind::kTransfer: {
        if (op.src >= n || op.dst >= n) return Response::boolean(false);
        if (!s.owned[op.src] || !s.owned[op.dst]) {
          return Response::boolean(false);
        }
        if (s.balances[op.src] < op.value) return Response::boolean(false);
        s.balances[op.src] -= op.value;
        s.balances[op.dst] += op.value;
        return Response::boolean(true);
      }
      case ShardOpKind::kBalanceOf: {
        if (op.src >= n) return Response::number(0);
        return Response::number(s.owned[op.src] ? s.balances[op.src] : 0);
      }
      case ShardOpKind::kPrepare: {
        const auto it = s.txs.find(op.txid);
        if (it != s.txs.end()) {
          return Response::boolean(it->second.stage == ShardTxStage::kPrepared ||
                                   it->second.stage == ShardTxStage::kDone);
        }
        ShardTx tx{ShardTxStage::kRejected, caller,       op.src,
                   op.dst,                  op.value,     op.from_group,
                   op.to_group};
        const bool ok =
            op.src < n && s.owned[op.src] && s.balances[op.src] >= op.value;
        if (ok) {
          s.balances[op.src] -= op.value;
          tx.stage = ShardTxStage::kPrepared;
        }
        s.txs.emplace(op.txid, tx);
        return Response::boolean(ok);
      }
      case ShardOpKind::kCommit: {
        const auto it = s.txs.find(op.txid);
        if (it != s.txs.end()) {
          return Response::boolean(it->second.stage ==
                                   ShardTxStage::kCommitted);
        }
        ShardTx tx{ShardTxStage::kCommitRejected, caller,       op.src,
                   op.dst,                        op.value,     op.from_group,
                   op.to_group};
        const bool ok = op.dst < n && s.owned[op.dst];
        if (ok) {
          s.balances[op.dst] += op.value;
          tx.stage = ShardTxStage::kCommitted;
        }
        s.txs.emplace(op.txid, tx);
        return Response::boolean(ok);
      }
      case ShardOpKind::kCommitAck: {
        const auto it = s.txs.find(op.txid);
        if (it == s.txs.end()) return Response::boolean(false);
        if (it->second.stage == ShardTxStage::kDone) {
          return Response::boolean(true);
        }
        if (it->second.stage != ShardTxStage::kPrepared) {
          return Response::boolean(false);
        }
        it->second.stage = ShardTxStage::kDone;  // lock consumed
        return Response::boolean(true);
      }
      case ShardOpKind::kAbort: {
        const auto it = s.txs.find(op.txid);
        if (it == s.txs.end()) return Response::boolean(false);
        if (it->second.stage == ShardTxStage::kAborted) {
          return Response::boolean(true);
        }
        if (it->second.stage != ShardTxStage::kPrepared) {
          return Response::boolean(false);
        }
        // Refund.  The migration guard below keeps a locked account from
        // leaving the group, so the refund always lands on an owned slot.
        s.balances[it->second.src] += it->second.value;
        it->second.stage = ShardTxStage::kAborted;
        return Response::boolean(true);
      }
      case ShardOpKind::kMigrateOut: {
        const auto it = s.txs.find(op.txid);
        if (it != s.txs.end()) {
          return Response::boolean(it->second.stage == ShardTxStage::kMovedOut ||
                                   it->second.stage == ShardTxStage::kMoveDone);
        }
        ShardTx tx{ShardTxStage::kRejected, caller,       op.src,
                   kNoAccount,              0,            op.from_group,
                   op.to_group};
        bool ok = op.src < n && s.owned[op.src];
        // Refuse while a 2PC lock is outstanding on the account: the
        // abort refund must land where the lock was taken.
        if (ok) {
          for (const auto& [txid, rec] : s.txs) {
            if (rec.stage == ShardTxStage::kPrepared && rec.src == op.src) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          tx.stage = ShardTxStage::kMovedOut;
          tx.value = s.balances[op.src];  // sweep the whole balance
          s.balances[op.src] = 0;
          s.owned[op.src] = 0;
        }
        s.txs.emplace(op.txid, tx);
        return Response::boolean(ok);
      }
      case ShardOpKind::kMigrateIn: {
        const auto it = s.txs.find(op.txid);
        if (it != s.txs.end()) {
          return Response::boolean(it->second.stage == ShardTxStage::kMovedIn);
        }
        if (op.src >= n) return Response::boolean(false);
        ShardTx tx{ShardTxStage::kMovedIn, caller,       op.src,
                   kNoAccount,             op.value,     op.from_group,
                   op.to_group};
        s.owned[op.src] = 1;
        s.balances[op.src] += op.value;
        s.txs.emplace(op.txid, tx);
        return Response::boolean(true);
      }
      case ShardOpKind::kMigrateAck: {
        const auto it = s.txs.find(op.txid);
        if (it == s.txs.end()) return Response::boolean(false);
        if (it->second.stage == ShardTxStage::kMoveDone) {
          return Response::boolean(true);
        }
        if (it->second.stage != ShardTxStage::kMovedOut) {
          return Response::boolean(false);
        }
        it->second.stage = ShardTxStage::kMoveDone;
        return Response::boolean(true);
      }
    }
    return Response::boolean(false);
  }
};

static_assert(ConcurrentTokenSpec<ShardLedgerSpec>);

inline Applied<ShardState> ShardSeqSpec::apply(const ShardState& q,
                                               ProcessId caller,
                                               const ShardOp& op) {
  ShardState next = q;
  Response r = ShardLedgerSpec::apply_inplace(next, caller, op);
  return {r, std::move(next)};
}

/// Snapshot codec: the group dimension (group, num_groups, ownership
/// map) is part of the replicated core, so snapshot hashes of different
/// groups never collide and a rejoiner can only install its own group's
/// image.  std::map iterates sorted — the encoding is canonical.
template <>
struct StateCodec<ShardState> {
  static void encode(ByteWriter& w, const ShardState& q) {
    w.u32(q.group);
    w.u32(q.num_groups);
    w.u64(q.balances.size());
    for (const Amount b : q.balances) w.u64(b);
    for (const std::uint8_t o : q.owned) w.u8(o);
    w.u64(q.txs.size());
    for (const auto& [txid, tx] : q.txs) {
      w.u64(txid);
      w.u8(static_cast<std::uint8_t>(tx.stage));
      w.u32(tx.coordinator);
      w.u32(tx.src);
      w.u32(tx.dst);
      w.u64(tx.value);
      w.u32(tx.from_group);
      w.u32(tx.to_group);
    }
  }
  static ShardState decode(ByteReader& r) {
    ShardState q;
    q.group = r.u32();
    q.num_groups = r.u32();
    const std::size_t n = r.u64();
    q.balances.resize(n);
    for (auto& b : q.balances) b = r.u64();
    q.owned.resize(n);
    for (auto& o : q.owned) o = r.u8();
    const std::size_t txs = r.u64();
    for (std::size_t i = 0; i < txs; ++i) {
      const std::uint64_t txid = r.u64();
      ShardTx tx;
      tx.stage = static_cast<ShardTxStage>(r.u8());
      tx.coordinator = r.u32();
      tx.src = r.u32();
      tx.dst = r.u32();
      tx.value = r.u64();
      tx.from_group = r.u32();
      tx.to_group = r.u32();
      q.txs.emplace(txid, tx);
    }
    return q;
  }
};

// ---------------------------------------------------------------------------
// The sharded replica node
// ---------------------------------------------------------------------------

struct ShardGroupConfig {
  std::uint32_t num_groups = 2;
  std::size_t num_accounts = 16;
  Amount initial_balance = 100;
};

/// Per-node audit over this node's applied group states.
struct ShardAudit {
  bool quiescent = true;    ///< no transient record in any group
  bool partitioned = true;  ///< every account owned by exactly one group
  Amount owned_total = 0;   ///< Σ over groups of Σ owned balances
  std::size_t cross_done = 0;     ///< 2PC transfers fully committed
  std::size_t cross_aborted = 0;  ///< 2PC transfers refunded
  std::size_t migrations = 0;     ///< migrations fully retired
  /// Every tx record's stage equals the stage the driver last reacted to
  /// — no committed transition went unseen (the file comment's touched-
  /// txid invariant, checked over every record).
  bool reactions_complete = true;
};

/// One node of the sharded cluster: G block-pipeline runtimes over one
/// SimNet (each through its group's LaneNet facade), a local route map,
/// and the 2PC/migration reaction driver.  Presents the scenario-audit
/// surface per group and concatenated.
class ShardedReplicaNode {
 public:
  using Spec = ShardLedgerSpec;
  using Sub = BlockLaneMsg<Spec>;
  using Msg = GroupMsg<Sub>;
  using Net = SimNet<Msg>;
  using GroupNet = LaneNet<Sub, Net>;
  using Group = BlockReplicaNode<Spec, GroupNet>;

  /// Reaction timing: the record's coordinator reacts kReactDelay after
  /// observing a committed transition; replica r backs off an extra
  /// kBackupStagger · rank(r) and re-checks the replicated stage before
  /// submitting — duplicates only under coordinator crash/partition,
  /// and those commit idempotently.
  static constexpr std::uint64_t kReactDelay = 5;
  static constexpr std::uint64_t kBackupStagger = 130;

  ShardedReplicaNode(Net& net, ProcessId self, const ShardGroupConfig& scfg,
                     BlockConfig bcfg, ExecOptions eopts,
                     RelayMode relay_mode = RelayMode::kFull)
      : net_(net), self_(self), scfg_(scfg), route_(scfg.num_accounts),
        stage_view_(scfg.num_groups) {
    TS_EXPECTS(scfg_.num_groups >= 1);
    for (std::size_t a = 0; a < scfg_.num_accounts; ++a) {
      route_[a] = static_cast<std::uint32_t>(a % scfg_.num_groups);
    }
    // Each group's lane mux binds to its facade, so the facades and the
    // one base handler, which dispatches on the group tag, come first.
    group_nets_.reserve(scfg_.num_groups);
    for (std::uint32_t g = 0; g < scfg_.num_groups; ++g) {
      group_nets_.push_back(std::make_unique<GroupNet>(net, g));
    }
    net.set_handler(self, [this](ProcessId from, const Msg& m) {
      if (m.group < group_nets_.size()) {
        group_nets_[m.group]->dispatch(from, m.inner);
      }
    });
    groups_.reserve(scfg_.num_groups);
    for (std::uint32_t g = 0; g < scfg_.num_groups; ++g) {
      groups_.push_back(std::make_unique<Group>(
          *group_nets_[g], self,
          ShardState::initial(g, scfg_.num_groups, scfg_.num_accounts,
                              scfg_.initial_balance),
          bcfg, eopts, relay_mode));
      groups_.back()->set_on_apply(
          [this, g](std::uint64_t /*slot*/, const Block<Spec>& applied) {
            on_group_apply(g, applied);
          });
    }
  }

  // --- client intake ---

  /// Routes by the local shard map: same group = one in-lane op; cross
  /// group = a 2PC prepare in the source group (the driver carries it
  /// to commit or abort).
  void submit_transfer(AccountId src, AccountId dst, Amount value) {
    submit_transfer_routed(src, dst, value, route_.at(src), route_.at(dst));
  }

  /// Test hook: pin the (source, dest) groups — a deliberately stale
  /// dest pin exercises the commit-reject → abort → refund path.
  void submit_transfer_routed(AccountId src, AccountId dst, Amount value,
                              std::uint32_t gs, std::uint32_t gd) {
    if (gs == gd) {
      groups_.at(gs)->submit(self_, ShardOp::transfer(src, dst, value));
      return;
    }
    groups_.at(gs)->submit(
        self_, ShardOp::prepare(next_txid(), src, dst, value, gs, gd));
  }

  /// Moves `account` from its current group (per this node's route map)
  /// to `to_group`.  A no-op if it already lives there.
  void submit_migrate(AccountId account, std::uint32_t to_group) {
    const std::uint32_t gs = route_.at(account);
    if (to_group >= scfg_.num_groups || to_group == gs) return;
    groups_[gs]->submit(
        self_, ShardOp::migrate_out(next_txid(), account, gs, to_group));
  }

  /// Deadline tick: forwarded to every group lane.
  void on_deadline() {
    for (auto& g : groups_) g->on_deadline();
  }
  /// Anti-entropy, then a cut of every group's pool: the 2PC driver
  /// submits follow-ups from timers that fire inside a drain, after the
  /// deadline ticks end, and a pooled op only proposes on a cut.
  void sync() {
    for (auto& g : groups_) g->sync();
    on_deadline();
  }

  // --- the scenario-audit surface ---

  std::size_t submitted() const {
    std::size_t sum = 0;
    for (const auto& g : groups_) sum += g->submitted();
    return sum;
  }
  bool all_settled() const {
    for (const auto& g : groups_) {
      if (!g->all_settled()) return false;
    }
    return true;
  }
  /// Concatenated per-group histories with group headers — identical
  /// across correct replicas because each group's history is.
  std::string history() const {
    std::string out;
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      out += "== group ";
      out += std::to_string(g);
      out += " ==\n";
      out += groups_[g]->history();
    }
    return out;
  }
  /// history() == ref.history(), decided group by group without
  /// rendering.
  bool same_history(const ShardedReplicaNode& ref) const {
    if (groups_.size() != ref.groups_.size()) return false;
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      if (!groups_[g]->same_history(*ref.groups_[g])) return false;
    }
    return true;
  }
  /// The crashed-replica rule: a crash stops every group's log
  /// independently, so the concatenation is no prefix of the reference's
  /// — each group's history must be a prefix of the reference's group.
  bool history_prefix_of(const ShardedReplicaNode& ref) const {
    if (groups_.size() != ref.groups_.size()) return false;
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      if (!groups_[g]->history_prefix_of(*ref.groups_[g])) return false;
    }
    return true;
  }
  std::vector<std::uint64_t> commit_latencies() const {
    std::vector<std::uint64_t> all;
    for (const auto& g : groups_) {
      const auto& l = g->commit_latencies();
      all.insert(all.end(), l.begin(), l.end());
    }
    return all;
  }
  std::uint64_t last_commit_time() const {
    std::uint64_t t = 0;
    for (const auto& g : groups_) t = std::max(t, g->last_commit_time());
    return t;
  }

  // --- group accounting ---

  std::size_t num_groups() const noexcept { return groups_.size(); }
  ShardState group_state(std::uint32_t g) const {
    return groups_.at(g)->engine().ledger().snapshot();
  }
  std::uint32_t route(AccountId a) const { return route_.at(a); }
  std::size_t ops_committed() const {
    std::size_t sum = 0;
    for (const auto& g : groups_) sum += g->ops_committed();
    return sum;
  }
  std::size_t slots_committed() const {
    std::size_t sum = 0;
    for (const auto& g : groups_) sum += g->slots_committed();
    return sum;
  }
  std::size_t max_group_slots() const {
    std::size_t mx = 0;
    for (const auto& g : groups_) mx = std::max(mx, g->slots_committed());
    return mx;
  }
  std::uint64_t proposal_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& g : groups_) sum += g->proposal_bytes();
    return sum;
  }
  std::uint64_t miss_recoveries() const {
    std::uint64_t sum = 0;
    for (const auto& g : groups_) sum += g->miss_recoveries();
    return sum;
  }

  /// Conservation + protocol-completion audit over this node's applied
  /// group states (meaningful on correct replicas at quiescence; a
  /// crashed replica legitimately holds transient stages).
  ShardAudit audit() const {
    ShardAudit a;
    std::vector<std::uint32_t> owners(scfg_.num_accounts, 0);
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      const ShardState q = group_state(g);
      const auto& seen = stage_view_[g];
      a.quiescent = a.quiescent && q.quiescent();
      a.owned_total += q.owned_total();
      for (std::size_t acct = 0; acct < q.owned.size(); ++acct) {
        owners[acct] += q.owned[acct];
      }
      for (const auto& [txid, tx] : q.txs) {
        const auto it = seen.find(txid);
        if (it == seen.end() || it->second != tx.stage) {
          a.reactions_complete = false;
        }
        switch (tx.stage) {
          case ShardTxStage::kDone:
            ++a.cross_done;
            break;
          case ShardTxStage::kAborted:
            ++a.cross_aborted;
            break;
          case ShardTxStage::kMoveDone:
            ++a.migrations;
            break;
          default:
            break;
        }
      }
    }
    for (const std::uint32_t o : owners) {
      if (o != 1) a.partitioned = false;
    }
    return a;
  }
  Amount expected_supply() const {
    return static_cast<Amount>(scfg_.num_accounts) * scfg_.initial_balance;
  }

 private:
  std::uint64_t next_txid() {
    return (static_cast<std::uint64_t>(self_) << 32) | seq_++;
  }

  /// After a block applies in group g, diff the records of the txids
  /// its phase/migration ops carry against the last view and react to
  /// each transition exactly once, in ascending txid order (the file
  /// comment says why no other record can have moved).  The records are
  /// read in place: the engine is quiescent between blocks.
  void on_group_apply(std::uint32_t g, const Block<Spec>& applied) {
    std::vector<std::uint64_t> touched;
    for (const auto& b : applied.ops) {
      if (b.op.kind != ShardOpKind::kTransfer &&
          b.op.kind != ShardOpKind::kBalanceOf) {
        touched.push_back(b.op.txid);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    const ShardState& q = groups_[g]->engine().ledger().view();
    auto& seen = stage_view_[g];
    for (const std::uint64_t txid : touched) {
      const auto rec = q.txs.find(txid);
      if (rec == q.txs.end()) continue;  // refused without a record
      const auto it = seen.find(txid);
      if (it != seen.end() && it->second == rec->second.stage) continue;
      seen[txid] = rec->second.stage;
      react(txid, rec->second);
    }
  }

  void react(std::uint64_t txid, const ShardTx& tx) {
    switch (tx.stage) {
      case ShardTxStage::kPrepared:
        schedule_follow_up(tx.coordinator, tx.to_group,
                           ShardOp::commit(txid, tx.src, tx.dst, tx.value,
                                           tx.from_group, tx.to_group));
        break;
      case ShardTxStage::kCommitted:
        schedule_follow_up(tx.coordinator, tx.from_group,
                           ShardOp::commit_ack(txid, tx.src, tx.from_group,
                                               tx.to_group));
        break;
      case ShardTxStage::kCommitRejected:
        schedule_follow_up(
            tx.coordinator, tx.from_group,
            ShardOp::abort(txid, tx.src, tx.from_group, tx.to_group));
        break;
      case ShardTxStage::kMovedOut:
        schedule_follow_up(tx.coordinator, tx.to_group,
                           ShardOp::migrate_in(txid, tx.src, tx.value,
                                               tx.from_group, tx.to_group));
        break;
      case ShardTxStage::kMovedIn:
        // Ownership flipped in the replicated state: update the local
        // route so later submissions here go to the new home.
        if (tx.src < route_.size()) route_[tx.src] = tx.to_group;
        schedule_follow_up(
            tx.coordinator, tx.from_group,
            ShardOp::migrate_ack(txid, tx.src, tx.from_group, tx.to_group));
        break;
      default:
        break;  // terminal — nothing to drive
    }
  }

  void schedule_follow_up(ProcessId coordinator, std::uint32_t target,
                          ShardOp op) {
    const std::uint64_t n = net_.num_nodes();
    const std::uint64_t rank = (self_ + n - coordinator % n) % n;
    net_.set_timer(self_, kReactDelay + kBackupStagger * rank,
                   [this, target, op] {
                     if (follow_up_resolved(target, op)) return;
                     groups_.at(target)->submit(self_, op);
                   });
  }

  /// Backup-timer check: has some replica's earlier follow-up already
  /// committed (as observed in OUR applied prefix of the target group)?
  bool follow_up_resolved(std::uint32_t target, const ShardOp& op) const {
    const auto& seen = stage_view_[target];
    const auto it = seen.find(op.txid);
    if (it == seen.end()) return false;
    switch (op.kind) {
      case ShardOpKind::kCommit:
      case ShardOpKind::kMigrateIn:
        return true;  // the dest side holds ANY record for this txid
      case ShardOpKind::kCommitAck:
        return it->second == ShardTxStage::kDone;
      case ShardOpKind::kAbort:
        return it->second == ShardTxStage::kAborted ||
               it->second == ShardTxStage::kDone;
      case ShardOpKind::kMigrateAck:
        return it->second == ShardTxStage::kMoveDone;
      default:
        return true;
    }
  }

  Net& net_;
  ProcessId self_;
  ShardGroupConfig scfg_;
  /// Per group: the facade its runtime's lanes ride (outlives them).
  std::vector<std::unique_ptr<GroupNet>> group_nets_;
  std::vector<std::unique_ptr<Group>> groups_;
  /// account -> current group, per THIS node's applied migrations.
  std::vector<std::uint32_t> route_;
  /// Per group: txid -> last stage this node reacted to.
  std::vector<std::map<std::uint64_t, ShardTxStage>> stage_view_;
  std::uint32_t seq_ = 0;
};

}  // namespace tokensync
