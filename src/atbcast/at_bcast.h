// Consensus-free asset transfer over reliable broadcast — the
// CN(AT) = 1 result made operational (paper Sec. 1/7; Collins et al.,
// "Online payments by merely broadcasting messages", DSN'20).
//
// Each account has a single owner; only the owner issues transfers from
// it, FIFO-numbered.  Transfers are disseminated with the FIFO eager
// reliable broadcast; every replica applies a transfer when
//   (a) all earlier transfers of the same issuer are applied (FIFO gives
//       this for free), and
//   (b) the source balance — initial + applied credits − applied debits —
//       covers the amount (otherwise the transfer parks until credits
//       arrive; an honest issuer never overspends its own view, so parked
//       transfers eventually apply).
// No consensus, no total order across issuers: concurrent transfers of
// different accounts commute, which is exactly why k = 1 suffices.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bcast/erb.h"
#include "common/checked.h"
#include "common/ids.h"
#include "net/simnet.h"

namespace tokensync {

/// A transfer disseminated by broadcast.
struct AtTransfer {
  AccountId src = 0;
  AccountId dst = 0;
  Amount amount = 0;
};

/// One replica of the broadcast asset transfer.  All replicas maintain the
/// full balance map; the replica whose id owns an account is the only
/// issuer for it.
class AtBcastNode {
 public:
  using Net = SimNet<ErbMsg<AtTransfer>>;

  /// `initial[a]` is account a's starting balance (same on all replicas).
  AtBcastNode(Net& net, ProcessId self, std::vector<Amount> initial);

  /// Issues a transfer from this node's own account.  Returns false iff
  /// the issuer's local view lacks funds (an honest issuer refuses).
  bool submit_transfer(AccountId dst, Amount amount);

  /// Applied-state accessors.
  Amount balance(AccountId a) const { return balances_.at(a); }
  const std::vector<Amount>& balances() const noexcept { return balances_; }
  std::uint64_t applied_count() const noexcept { return applied_; }
  std::uint64_t parked_count() const noexcept { return parked_.size(); }
  /// Simulated time of this replica's latest applied transfer — the
  /// span endpoint throughput measurements use (under faults it lands
  /// wherever the last retransmission got through).
  std::uint64_t last_applied_time() const noexcept {
    return last_applied_time_;
  }

  // The cluster harness's surface (sched/scenario.h's ReplicaRuntime).
  // No total order exists, so the committed "history" of this commuting
  // workload is its converged final state.
  /// No probe: ERB's retransmission is its anti-entropy (and ERB writes
  /// off crashed peers, so the network quiesces under every profile).
  void sync() {}
  /// Every submit_transfer call, refused or not.
  std::size_t submitted() const noexcept { return submitted_; }
  /// No transfer is parked for lack of funds.
  bool all_settled() const noexcept { return parked_.empty(); }
  /// "applied=<count> balances=[b0,b1,...]\n".
  std::string history() const;
  bool same_history(const AtBcastNode& ref) const {
    return applied_ == ref.applied_ && balances_ == ref.balances_;
  }
  bool history_prefix_of(const AtBcastNode& ref) const {
    return applied_ <= ref.applied_;
  }
  /// This node records no commit latencies.
  std::vector<std::uint64_t> commit_latencies() const { return {}; }
  /// Every applied transfer counts as one slot and one op.
  std::size_t slots_committed() const noexcept { return applied_; }
  std::size_t ops_committed() const noexcept { return applied_; }
  std::uint64_t last_commit_time() const noexcept {
    return last_applied_time_;
  }

 private:
  void on_deliver(ProcessId origin, std::uint64_t seq, const AtTransfer& t);
  /// Applies t if funded; otherwise parks it.  Retries parked transfers
  /// whenever a credit lands.
  void apply_or_park(ProcessId origin, const AtTransfer& t);
  void drain_parked();

  Net& net_;
  ProcessId self_;
  std::vector<Amount> balances_;
  std::unique_ptr<ErbNode<AtTransfer>> erb_;
  std::deque<std::pair<ProcessId, AtTransfer>> parked_;
  std::uint64_t applied_ = 0;
  std::uint64_t last_applied_time_ = 0;
  std::size_t submitted_ = 0;
};

}  // namespace tokensync
