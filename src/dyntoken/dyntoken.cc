#include "dyntoken/dyntoken.h"

#include <algorithm>

#include "common/checked.h"
#include "common/error.h"

namespace tokensync {

DynTokenNode::DynTokenNode(Net& net, ProcessId self,
                           std::vector<Amount> initial, Mode mode)
    : net_(net),
      self_(self),
      mode_(mode),
      num_replicas_(net.num_nodes()),
      balances_(std::move(initial)),
      allowances_(balances_.size(),
                  std::vector<Amount>(balances_.size(), 0)),
      next_slot_(balances_.size(), 0),
      pending_(balances_.size()),
      account_logs_(balances_.size()) {
  paxos_ = std::make_unique<PaxosEngine<DynOp>>(
      net, self,
      [this](InstanceId id) {
        const auto g = resolve_group(id);
        // A message about a slot we cannot resolve yet is evidence that a
        // peer decided slots we missed (its kDecide was dropped): pull
        // our frontier forward, or the proposer would retry against our
        // "not ready" nacks until the next driver-level sync.
        if (!g) hint_gap(id);
        return g;
      },
      [this](InstanceId id, const DynOp& op) { on_decide(id, op); });
}

std::vector<ProcessId> DynTokenNode::current_group(AccountId a) const {
  std::vector<ProcessId> g;
  if (mode_ == Mode::kGlobalOrder) {
    // Baseline: every operation coordinated by the whole network.
    for (ProcessId p = 0; p < num_replicas_; ++p) g.push_back(p);
    return g;
  }
  g.push_back(owner_of(a));
  for (ProcessId p = 0; p < allowances_[a].size(); ++p) {
    if (p != owner_of(a) && allowances_[a][p] > 0) g.push_back(p);
  }
  std::sort(g.begin(), g.end());
  return g;
}

std::optional<std::vector<ProcessId>> DynTokenNode::resolve_group(
    InstanceId id) const {
  const AccountId a = static_cast<AccountId>(id >> 32);
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  if (a >= balances_.size()) return std::nullopt;
  // The group of slot s is determined by the processed prefix [0, s):
  // resolvable iff we have processed exactly up to s (or beyond — but
  // then the instance is already decided and Paxos catch-up answers).
  if (next_slot_[a] < slot) return std::nullopt;
  return current_group(a);
}

bool DynTokenNode::submit(DynOp op) {
  op.caller = self_;
  switch (op.kind) {
    case DynOp::Kind::kTransfer:
      op.src = account_of(self_);
      break;
    case DynOp::Kind::kApprove:
      op.src = account_of(self_);
      if (op.spender >= balances_.size()) return false;
      break;
    case DynOp::Kind::kTransferFrom:
      if (op.src >= balances_.size()) return false;
      break;
    case DynOp::Kind::kNone:
      return false;
  }
  if (op.dst >= balances_.size() && op.kind != DynOp::Kind::kApprove) {
    return false;
  }
  op.nonce = next_nonce_++;
  my_pending_.push_back(op);
  pump_submissions();
  return true;
}

void DynTokenNode::pump_submissions() {
  for (const DynOp& op : my_pending_) {
    // Propose at the account's next unprocessed slot.  If another group
    // member wins it, on_decide re-pumps and we target the next slot.
    paxos_->propose(instance_of(op.src, next_slot_[op.src]), op);
  }
}

void DynTokenNode::on_decide(InstanceId id, const DynOp& /*op*/) {
  const AccountId a = static_cast<AccountId>(id >> 32);
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  if (a >= balances_.size()) return;
  // A catch-up REPLY proves we were behind: continue the frontier walk.
  const bool caught_up = paxos_->last_decide_was_reply();
  decided_slots_[a].emplace(slot, paxos_->decision(id));
  process_ready_slots(a);
  // Anti-entropy frontier walk (see sync()), gated on catch-up evidence:
  // walk on if decided-but-unprocessable slots remain (a hole must exist
  // somewhere) or this decision reached us as a catch-up reply (we are
  // chasing a tail of missed decisions).  An ordinary commit on an
  // up-to-date account satisfies neither — zero extra messages on the
  // fault-free path.
  if (!decided_slots_[a].empty() || caught_up) {
    query_frontier(a);
  }
  pump_submissions();
}

void DynTokenNode::sync() {
  for (AccountId a = 0; a < balances_.size(); ++a) query_frontier(a);
}

void DynTokenNode::hint_gap(InstanceId id) {
  const AccountId a = static_cast<AccountId>(id >> 32);
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  if (a >= balances_.size()) return;
  if (slot > next_slot_[a]) query_frontier(a);
}

void DynTokenNode::query_frontier(AccountId a) {
  paxos_->query_all(instance_of(a, next_slot_[a]));
}

void DynTokenNode::process_ready_slots(AccountId a) {
  auto& slots = decided_slots_[a];
  for (;;) {
    auto it = slots.find(next_slot_[a]);
    if (it == slots.end()) return;
    const DynOp op = it->second;
    slots.erase(it);
    ++next_slot_[a];
    apply_op(a, op);
    // Drop our pending submissions that this decision satisfied.
    my_pending_.erase(
        std::remove(my_pending_.begin(), my_pending_.end(), op),
        my_pending_.end());
  }
}

namespace {

// Built with piecewise += (no `const char* + std::string&&` chains):
// GCC 12's -O3 -Wrestrict misfires on the temporary-reusing operator+
// overload (upstream PR105651; same restructuring as
// exec/replay_engine.h's history line).
std::string render_op(const DynOp& op) {
  if (op.kind == DynOp::Kind::kNone) return "noop";
  std::string s = "p";
  s += std::to_string(op.caller);
  s += '#';
  s += std::to_string(op.nonce);
  switch (op.kind) {
    case DynOp::Kind::kNone:
      break;
    case DynOp::Kind::kApprove:
      s += " approve(p";
      s += std::to_string(op.spender);
      break;
    case DynOp::Kind::kTransfer:
      s += " transfer(a";
      s += std::to_string(op.dst);
      break;
    case DynOp::Kind::kTransferFrom:
      s += " transferFrom(a";
      s += std::to_string(op.src);
      s += ", a";
      s += std::to_string(op.dst);
      break;
  }
  s += ", ";
  s += std::to_string(op.amount);
  s += ')';
  return s;
}

}  // namespace

void DynTokenNode::apply_op(AccountId a, const DynOp& op) {
  ++processed_;
  last_commit_time_ = net_.now();
  // The log line depends only on account a's processed prefix (allowance
  // state is per-account, dedup ids are slot-ordered), so replicas render
  // identical per-account histories regardless of how they interleave
  // accounts.
  std::string line = render_op(op);
  if (op.kind != DynOp::Kind::kNone) {
    // Deduplicate by submission id: a re-proposed op that was also
    // adopted at an earlier slot applies once; the duplicate slot is a
    // void entry (deterministically on every replica).
    if (!applied_ids_.insert({op.caller, op.nonce}).second) {
      account_logs_[a].push_back(line + " -> void(dup)");
      return;
    }
  }
  switch (op.kind) {
    case DynOp::Kind::kNone:
      account_logs_[a].push_back(std::move(line));
      return;

    case DynOp::Kind::kApprove:
      // Allowance effects are immediate and slot-ordered: deterministic.
      // This is also the group/epoch change (takes effect next slot).
      allowances_[op.src][op.spender] = op.amount;
      account_logs_[a].push_back(line + " -> TRUE");
      return;

    case DynOp::Kind::kTransfer:
      pending_[op.src].push_back(Movement{op.src, op.dst, op.amount});
      account_logs_[a].push_back(line + " -> queued");
      drain_parked();
      return;

    case DynOp::Kind::kTransferFrom: {
      // Deterministic allowance check at processing time: a spender that
      // lost the allowance race aborts identically on every replica.
      if (allowances_[op.src][op.caller] < op.amount) {
        ++aborted_;
        account_logs_[a].push_back(line + " -> FALSE(allowance)");
        return;
      }
      allowances_[op.src][op.caller] -= op.amount;
      pending_[op.src].push_back(Movement{op.src, op.dst, op.amount});
      account_logs_[a].push_back(line + " -> queued");
      drain_parked();
      return;
    }
  }
}

std::string DynTokenNode::history() const {
  std::string h;
  for (AccountId a = 0; a < account_logs_.size(); ++a) {
    for (std::size_t s = 0; s < account_logs_[a].size(); ++s) {
      h += 'a';
      h += std::to_string(a);
      h += '[';
      h += std::to_string(s);
      h += "] ";
      h += account_logs_[a][s];
      h += "\n";
    }
  }
  return h;
}

void DynTokenNode::drain_parked() {
  // Apply fundable queue HEADS to fixpoint.  Only the head of each
  // source's queue may apply (strict per-source FIFO), which makes the
  // final state independent of the cross-account drain order.
  bool progress = true;
  while (progress) {
    progress = false;
    for (AccountId a = 0; a < pending_.size(); ++a) {
      if (pending_[a].empty()) continue;
      const Movement& m = pending_[a].front();
      if (balances_[m.src] >= m.amount &&
          !add_would_overflow(balances_[m.dst], m.amount)) {
        balances_[m.src] -= m.amount;
        balances_[m.dst] += m.amount;
        pending_[a].pop_front();
        progress = true;
      }
    }
  }
}

std::uint64_t DynTokenNode::parked_movements() const noexcept {
  std::uint64_t n = 0;
  for (const auto& q : pending_) n += q.size();
  return n;
}

Amount DynTokenNode::total_supply() const {
  Amount sum = 0;
  for (Amount b : balances_) sum = checked_add(sum, b);
  // In-flight parked movements hold no tokens (debit and credit apply
  // together), so the applied balances always sum to the initial supply.
  return sum;
}

bool DynTokenNode::all_settled() const { return my_pending_.empty(); }

bool DynTokenNode::history_prefix_of(const DynTokenNode& ref) const {
  for (AccountId a = 0; a < account_logs_.size(); ++a) {
    const auto& mine = account_logs_[a];
    const auto& theirs = ref.account_logs_[a];
    if (mine.size() > theirs.size() ||
        !std::equal(mine.begin(), mine.end(), theirs.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace tokensync
