// The lock-free race object and hardware Algorithm 1 (std::thread
// substrate) — the wait-free end of the paper's synchronization spectrum
// (experiment E9):
//   * AtomicRaceToken — a lock-free, wait-free specialization of T_q for
//                    q ∈ S_k restricted to the operations Algorithm 1
//                    uses: the race account's (balance, winner) pair is
//                    packed into ONE std::atomic<uint64_t> so the decision
//                    step is a single CAS (see DESIGN.md §4);
//   * HwAlgo1       — wait-free consensus among k threads from one race
//                    token plus k atomic registers.
//
// The lock-based ends of the spectrum are the ERC20 ledger itself:
// Erc20Ledger (atomic/ledger_specs.h) at num_shards = 1 is the global
// mutex, the "all transactions through consensus" baseline the paper
// argues is wasteful, and at num_shards = 0 (one shard per account) it
// is the per-account synchronization granularity the paper derives
// (coordination only among σ(a)).
//
// Tests validate the ledgers against the sequential specifications via
// linearizability checking, and benches compare throughput/latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"

namespace tokensync {

/// Lock-free race object: the T_q fragment Algorithm 1 needs, for
/// q ∈ S_k with race account a_1.
///
/// Packed word layout (64 bits):
///   bits 0..47  — remaining balance of the race account;
///   bits 48..55 — winner participant index + 1 (0 = no winner yet);
///   bits 56..63 — unused.
/// transfer/transferFrom are single CAS attempts: they succeed iff no
/// winner is recorded and the balance covers the amount; the winner index
/// and the debit are published atomically, which is exactly what the
/// agreement argument of Theorem 2 needs (see E3: a non-atomic
/// balance-then-allowance publication admits disagreement windows).
class AtomicRaceToken {
 public:
  /// Race with initial balance B and per-participant transfer amounts
  /// (amounts[0] = B for the owner; amounts[i] = A_i).  Requires
  /// B < 2^48 and at most 255 participants, and q ∈ S_k (U holds).
  AtomicRaceToken(Amount balance, std::vector<Amount> amounts);

  /// Participant i's race step (the paper's transfer / transferFrom with
  /// its full balance/allowance).  Returns true iff i won.
  bool try_spend(std::size_t i);

  /// allowance(a_1, p_j) per the race semantics: 0 iff j won, else A_j.
  Amount allowance_of(std::size_t j) const;

  /// The winner, if any (participant index).
  std::optional<std::size_t> winner() const;

  Amount balance() const;

 private:
  static constexpr std::uint64_t kBalanceMask = (1ULL << 48) - 1;

  std::atomic<std::uint64_t> word_;
  std::vector<Amount> amounts_;
};

/// Hardware Algorithm 1: wait-free consensus among k std::threads from one
/// AtomicRaceToken plus k atomic registers.  propose() mirrors the paper's
/// pseudocode line by line.
class HwAlgo1 {
 public:
  /// k participants; amounts per make_sync_state (allowances B/2+1).
  explicit HwAlgo1(std::size_t k, Amount balance = 1000);

  /// Executed concurrently from k threads; returns the decided value.
  Amount propose(std::size_t i, Amount value);

  std::size_t k() const noexcept { return k_; }

 private:
  std::size_t k_;
  AtomicRaceToken race_;
  std::vector<std::atomic<std::uint64_t>> regs_;  // 0 = unwritten, v+1
};

}  // namespace tokensync
