#include "atbcast/at_bcast.h"

#include "common/error.h"

namespace tokensync {

AtBcastNode::AtBcastNode(Net& net, ProcessId self,
                         std::vector<Amount> initial)
    : net_(net), self_(self), balances_(std::move(initial)) {
  erb_ = std::make_unique<ErbNode<AtTransfer>>(
      net, self,
      [this](ProcessId origin, std::uint64_t seq, const AtTransfer& t) {
        on_deliver(origin, seq, t);
      });
}

bool AtBcastNode::submit_transfer(AccountId dst, Amount amount) {
  ++submitted_;
  const AccountId src = account_of(self_);
  TS_EXPECTS(dst < balances_.size());
  // Honest issuers spend only what their own applied view holds; the
  // issuer's own debits apply locally in issue order, so this check keeps
  // the global invariant "an account's debits never exceed its credits".
  if (balances_[src] < amount) return false;
  erb_->broadcast(AtTransfer{src, dst, amount});
  return true;
}

void AtBcastNode::on_deliver(ProcessId origin, std::uint64_t /*seq*/,
                             const AtTransfer& t) {
  // Single-issuer rule: only the owner's broadcasts move its account.
  if (owner_of(t.src) != origin) return;  // invalid, ignore
  apply_or_park(origin, t);
}

void AtBcastNode::apply_or_park(ProcessId origin, const AtTransfer& t) {
  if (balances_[t.src] >= t.amount &&
      !add_would_overflow(balances_[t.dst], t.amount)) {
    balances_[t.src] -= t.amount;
    balances_[t.dst] += t.amount;
    ++applied_;
    last_applied_time_ = net_.now();
    drain_parked();
    return;
  }
  parked_.emplace_back(origin, t);
}

std::string AtBcastNode::history() const {
  std::string h = "applied=";
  h += std::to_string(applied_);
  h += " balances=[";
  for (AccountId a = 0; a < balances_.size(); ++a) {
    if (a > 0) h += ',';
    h += std::to_string(balances_[a]);
  }
  h += "]\n";
  return h;
}

void AtBcastNode::drain_parked() {
  // A newly applied credit may fund parked transfers; iterate to fixpoint.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      const auto& [origin, t] = parked_[i];
      if (balances_[t.src] >= t.amount &&
          !add_would_overflow(balances_[t.dst], t.amount)) {
        balances_[t.src] -= t.amount;
        balances_[t.dst] += t.amount;
        ++applied_;
        last_applied_time_ = net_.now();
        parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
        break;
      }
    }
  }
}

}  // namespace tokensync
