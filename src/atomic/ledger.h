// ConcurrentLedger<Spec> — the hardware-concurrent token substrate,
// generic over the token family.
//
// The paper's scalability thesis (Sec. 5, experiment E9) is that a token
// ledger only needs to synchronize operations within the same σ-group
// σ(a) — the set of accounts an operation touches — while operations with
// disjoint footprints commute and may run in parallel.  ConcurrentLedger
// realizes exactly that: a ConcurrentTokenSpec supplies
//
//   * a shared mutable State (flat arrays, updated in place),
//   * footprint(q, p, op)  — the paper's σ(a): which accounts the
//     operation reads or writes.  May read the state (σ_q is
//     state-dependent, e.g. an ERC721 token is guarded by its *current
//     owner's* account), but only through concurrency-safe reads
//     (atomics);
//   * apply_inplace(q, p, op) — one Δ-transition, mutating only data
//     guarded by the footprint's locks, with responses identical to the
//     sequential specification (the linearizability oracle).
//
// The ledger maps accounts onto `num_shards` lock shards (shard =
// account mod num_shards) and acquires each operation's footprint shards
// in ascending order — the canonical total order that makes cross-account
// transfers deadlock-free.  The shard-spectrum contract: num_shards = 1
// degenerates to the global mutex ("all transactions through consensus")
// baseline; num_shards = num_accounts is per-account synchronization,
// the granularity the paper derives; every point in between is a valid
// coarsening (σ-footprints map to shard sets, so two operations
// serialize iff their footprints collide mod num_shards — never fewer
// locks than σ requires).  DESIGN.md §6 carries the full argument.
//
// State-dependent footprints are handled optimistically: compute the
// footprint, lock it, recompute — if the locked shard set still covers
// the footprint, apply; otherwise release and retry (the σ-group moved
// under us, e.g. an NFT changed owners).  Argument-only footprints
// (ERC20, ERC777) always validate on the first pass, so the loop costs
// one redundant footprint computation — a few loads.
//
// apply_batch() groups commuting operations per shard: all single-shard
// operations destined for the same shard are applied under ONE lock
// acquisition (the per-σ-group serialization the paper says is
// irreducible), and only cross-shard operations pay multi-lock entry.
// Operations in a batch are linearized in an order consistent with some
// sequential execution, but not necessarily submission order across
// shards — by construction the reordered operations commute.
//
// apply_exclusive() is the lock-free path for a caller that holds the
// ledger alone (the parallel executor's sequential lane): the same
// Δ-transition and validation work, no footprint passes, no locks.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/checked.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/wire.h"
#include "core/footprint.h"
#include "objects/object.h"

namespace tokensync {

/// Busy work standing in for transaction validation (signature check / VM
/// execution); ~1ns per unit.  A real ledger never applies an unvalidated
/// transaction, so the work necessarily serializes under whichever locks
/// protect the state.
inline void simulated_validation(unsigned units) {
  for (unsigned i = 0; i < units; ++i) {
    asm volatile("" ::: "memory");
  }
}

// Footprint itself lives in core/footprint.h — the batch planner
// (core/planner.h) and the parallel executor (src/exec/) schedule over
// the same σ-sets this ledger locks.

/// Contract a token supplies to become a ConcurrentLedger instantiation.
///
/// `SeqSpec` is the token's pure sequential specification (the source of
/// truth shared with the model checker and the linearizability oracle);
/// responses of apply_inplace must match SeqSpec::apply on the equivalent
/// state.  footprint() must be safe to call WITHOUT holding any lock
/// (state-dependent reads go through atomics) and must write the same
/// account set when called again under the footprint's locks, unless the
/// σ-group genuinely moved (the ledger then retries).
template <typename S>
concept ConcurrentTokenSpec =
    requires(const typename S::SeqState& seq, typename S::State& st,
             const typename S::State& cst, ProcessId p,
             const typename S::Op& op, Footprint& fp, AccountId a) {
      typename S::SeqSpec;
      typename S::SeqState;
      typename S::Op;
      typename S::State;
      { S::from_seq(seq) } -> std::same_as<typename S::State>;
      { S::to_seq(cst) } -> std::same_as<typename S::SeqState>;
      { S::num_accounts(cst) } -> std::convertible_to<std::size_t>;
      { S::footprint(cst, p, op, fp) };
      { S::apply_inplace(st, p, op) } -> std::same_as<Response>;
      { S::account_value(cst, a) } -> std::convertible_to<Amount>;
    };

/// Sharded-lock concurrent token ledger; see the file comment.
template <ConcurrentTokenSpec S>
class ConcurrentLedger {
 public:
  using SeqSpec = typename S::SeqSpec;
  using SeqState = typename S::SeqState;
  using Op = typename S::Op;

  /// One batched operation: `op` invoked on behalf of `caller`.
  /// Equality-comparable because batches travel as consensus values in
  /// the block pipeline (exec/block.h wraps a vector of these into the
  /// Paxos payload of atbcast/total_order.h).
  struct BatchOp {
    ProcessId caller = 0;
    Op op;

    /// A relayed client operation is individually signed: caller id, the
    /// op's own bytes, plus the per-op authentication constant
    /// (common/wire.h).  This is the payload the compact relay replaces
    /// with an 8-byte OpId on the consensus wire.
    std::uint64_t wire_size() const {
      return 4 + wire_size_of(op) + kOpAuthBytes;
    }

    friend bool operator==(const BatchOp&, const BatchOp&) = default;
  };

  /// `num_shards` = 0 selects per-account sharding; 1 is the global-mutex
  /// baseline.  `validation_spin` simulates per-operation validation work
  /// inside the critical section (~1ns units).
  explicit ConcurrentLedger(const SeqState& initial,
                            unsigned validation_spin = 0,
                            std::size_t num_shards = 0)
      : validation_spin_(validation_spin), state_(S::from_seq(initial)) {
    const std::size_t n = std::max<std::size_t>(S::num_accounts(state_), 1);
    num_shards_ = (num_shards == 0) ? n : std::min(num_shards, n);
    shards_ = std::make_unique<Shard[]>(num_shards_);
  }

  /// Invokes one operation, locking exactly its footprint's shards.
  /// Linearization point: the apply_inplace call under the locks.
  Response apply(ProcessId caller, const Op& op) {
    Footprint fp;
    for (;;) {
      fp.clear();
      S::footprint(state_, caller, op, fp);
      const ShardSet ss = shards_of(fp);
      lock(ss);
      Footprint now;
      S::footprint(state_, caller, op, now);
      if (covers(ss, shards_of(now))) {
        simulated_validation(validation_spin_);
        const Response r = S::apply_inplace(state_, caller, op);
        unlock(ss);
        return r;
      }
      // The σ-group moved between footprint and lock (state-dependent
      // σ_q, e.g. an NFT changed owners) — release and retry.
      unlock(ss);
    }
  }

  /// Invokes one operation while the caller holds the ledger EXCLUSIVELY
  /// (no other thread reads or writes it until this returns): the same
  /// validation work and Δ-transition as apply(), without the footprint
  /// passes or locks.  With nobody else on the ledger the σ-group cannot
  /// move and no lock can contend, so apply() would validate on its first
  /// pass and return the same response — this path just skips the
  /// bookkeeping.  The executor's sequential lane uses it
  /// (exec/parallel_executor.h); concurrent callers use apply().
  Response apply_exclusive(ProcessId caller, const Op& op) {
    simulated_validation(validation_spin_);
    return S::apply_inplace(state_, caller, op);
  }

  /// Applies a batch, grouping commuting single-shard operations so each
  /// group pays ONE lock acquisition.  Responses are returned in batch
  /// order; the execution is equivalent to some sequential order.
  std::vector<Response> apply_batch(const std::vector<BatchOp>& batch) {
    std::vector<Response> out(batch.size());
    std::vector<std::vector<std::size_t>> buckets(num_shards_);
    std::vector<std::size_t> slow;
    Footprint fp;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      fp.clear();
      S::footprint(state_, batch[i].caller, batch[i].op, fp);
      const ShardSet ss = shards_of(fp);
      if (!ss.all && ss.n == 1) {
        buckets[ss.ids[0]].push_back(i);
      } else {
        slow.push_back(i);
      }
    }
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
      if (buckets[s].empty()) continue;
      const std::scoped_lock lk(shards_[s].mu);
      for (std::size_t i : buckets[s]) {
        // Revalidate under the lock; a footprint that drifted off this
        // shard takes the general path instead.
        fp.clear();
        S::footprint(state_, batch[i].caller, batch[i].op, fp);
        const ShardSet now = shards_of(fp);
        if (!now.all && now.n == 1 && now.ids[0] == s) {
          simulated_validation(validation_spin_);
          out[i] = S::apply_inplace(state_, batch[i].caller, batch[i].op);
        } else {
          slow.push_back(i);
        }
      }
    }
    for (std::size_t i : slow) {
      out[i] = apply(batch[i].caller, batch[i].op);
    }
    return out;
  }

  /// Σ_a account_value(a), accumulated one shard at a time: a *weak*
  /// (non-atomic) total, exact under quiescence — conservation tests use
  /// quiescent points.
  Amount weak_sum() const {
    Amount sum = 0;
    const std::size_t n = S::num_accounts(state_);
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
      const std::scoped_lock lk(shards_[s].mu);
      for (AccountId a = s; a < n; a += num_shards_) {
        sum = checked_add(sum, S::account_value(state_, a));
      }
    }
    return sum;
  }

  /// Full sequential-state snapshot; quiescent use only.
  SeqState snapshot() const {
    ShardSet all;
    all.set_all();
    lock(all);
    SeqState seq = S::to_seq(state_);
    unlock(all);
    return seq;
  }

  /// The live state, read in place — same quiescent-only contract as
  /// snapshot(), without the whole-state lock and copy.  Lets a caller
  /// that already knows which records changed (net/shard_group.h's 2PC
  /// driver reads only the txids its applied block carried) pay for
  /// those, not for the keyspace.
  const typename S::State& view() const noexcept { return state_; }

  std::size_t num_shards() const noexcept { return num_shards_; }
  std::size_t num_accounts() const { return S::num_accounts(state_); }

  /// The σ-footprint of `op` against the CURRENT state, computed lock-free
  /// (the ConcurrentTokenSpec contract).  This is what the batch planner
  /// (core/planner.h plan_batch, via the src/exec/ ConflictPlanner)
  /// schedules over; for state-dependent σ it is a snapshot that may
  /// drift, which is exactly why such operations escalate off the
  /// parallel fast path (DESIGN.md §9).
  void footprint_of(ProcessId caller, const Op& op, Footprint& fp) const {
    fp.clear();
    S::footprint(state_, caller, op, fp);
  }

  /// The lock shard guarding account `a` — exposed so the executor can
  /// sort a wave by home shard (locality) without duplicating the
  /// account→shard map.
  std::uint32_t shard_of(AccountId a) const noexcept {
    return static_cast<std::uint32_t>(a % num_shards_);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
  };

  /// Sorted, deduplicated set of shard indices (or "all").
  struct ShardSet {
    std::array<std::uint32_t, Footprint::kMaxAccounts> ids{};
    std::size_t n = 0;
    bool all = false;
    void set_all() noexcept { all = true; }
  };

  // Sorted insertion instead of std::sort + std::unique: a footprint has
  // at most Footprint::kMaxAccounts entries, so the quadratic insert is
  // at worst a handful of compares — and it keeps GCC 12's -O3
  // -Warray-bounds from hallucinating out-of-bounds accesses inside
  // std::__insertion_sort's fixed 16-element threshold walk over the
  // small inline array (a known false positive; EXPERIMENTS.md E16 CI
  // smoke keeps -O3 warning-free).
  ShardSet shards_of(const Footprint& fp) const {
    ShardSet ss;
    if (fp.all) {
      ss.set_all();
      return ss;
    }
    for (std::size_t i = 0; i < fp.n; ++i) {
      const auto s = static_cast<std::uint32_t>(fp.ids[i] % num_shards_);
      std::size_t j = 0;
      while (j < ss.n && ss.ids[j] < s) ++j;
      if (j < ss.n && ss.ids[j] == s) continue;  // duplicate shard
      for (std::size_t k = ss.n; k > j; --k) ss.ids[k] = ss.ids[k - 1];
      ss.ids[j] = s;
      ++ss.n;
    }
    return ss;
  }

  /// True iff the locked set `held` covers footprint shards `now`.
  bool covers(const ShardSet& held, const ShardSet& now) const {
    if (held.all) return true;
    if (now.all) return false;
    for (std::size_t i = 0; i < now.n; ++i) {
      const auto* end = held.ids.begin() + held.n;
      if (std::find(held.ids.begin(), end, now.ids[i]) == end) return false;
    }
    return true;
  }

  // Locks are always acquired in ascending shard order (ShardSet is
  // sorted; "all" iterates 0..num_shards-1), so no two operations can
  // deadlock.
  void lock(const ShardSet& ss) const {
    if (ss.all) {
      for (std::uint32_t s = 0; s < num_shards_; ++s) shards_[s].mu.lock();
      return;
    }
    for (std::size_t i = 0; i < ss.n; ++i) shards_[ss.ids[i]].mu.lock();
  }
  void unlock(const ShardSet& ss) const {
    if (ss.all) {
      for (std::uint32_t s = num_shards_; s-- > 0;) shards_[s].mu.unlock();
      return;
    }
    for (std::size_t i = ss.n; i-- > 0;) shards_[ss.ids[i]].mu.unlock();
  }

  unsigned validation_spin_ = 0;
  std::size_t num_shards_ = 1;
  typename S::State state_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace tokensync
