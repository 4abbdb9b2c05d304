#include "objects/erc20.h"

#include <sstream>

#include "common/checked.h"
#include "common/error.h"
#include "common/hash.h"

namespace tokensync {

Erc20State::Erc20State(std::size_t n, ProcessId deployer, Amount total_supply)
    : balances_(n, 0), allowances_(n, std::vector<Amount>(n, 0)) {
  TS_EXPECTS(deployer < n);
  balances_.at(deployer) = total_supply;
}

Erc20State::Erc20State(std::vector<Amount> balances,
                       std::vector<std::vector<Amount>> allowances)
    : balances_(std::move(balances)), allowances_(std::move(allowances)) {
  TS_EXPECTS(allowances_.size() == balances_.size());
  for (const auto& row : allowances_) {
    TS_EXPECTS(row.size() == balances_.size());
  }
}

Amount Erc20State::total_supply() const noexcept {
  Amount sum = 0;
  for (Amount b : balances_) sum = checked_add(sum, b);
  return sum;
}

std::size_t Erc20State::hash() const noexcept {
  std::size_t seed = hash_range(balances_);
  for (const auto& row : allowances_) hash_combine(seed, hash_range(row));
  return seed;
}

std::string Erc20State::to_string() const {
  std::ostringstream os;
  os << "balances=[";
  for (std::size_t i = 0; i < balances_.size(); ++i) {
    os << (i ? ", " : "") << balances_[i];
  }
  os << "] allowances=[";
  bool first = true;
  for (std::size_t a = 0; a < allowances_.size(); ++a) {
    for (std::size_t p = 0; p < allowances_[a].size(); ++p) {
      if (allowances_[a][p] == 0) continue;
      os << (first ? "" : ", ") << "a" << a << "->p" << p << ":"
         << allowances_[a][p];
      first = false;
    }
  }
  os << "]";
  return os.str();
}

Erc20Op Erc20Op::transfer(AccountId dst, Amount v) {
  Erc20Op op;
  op.kind = Kind::kTransfer;
  op.dst = dst;
  op.value = v;
  return op;
}

Erc20Op Erc20Op::transfer_from(AccountId src, AccountId dst, Amount v) {
  Erc20Op op;
  op.kind = Kind::kTransferFrom;
  op.src = src;
  op.dst = dst;
  op.value = v;
  return op;
}

Erc20Op Erc20Op::approve(ProcessId spender, Amount v) {
  Erc20Op op;
  op.kind = Kind::kApprove;
  op.spender = spender;
  op.value = v;
  return op;
}

Erc20Op Erc20Op::balance_of(AccountId a) {
  Erc20Op op;
  op.kind = Kind::kBalanceOf;
  op.src = a;
  return op;
}

Erc20Op Erc20Op::allowance(AccountId a, ProcessId p) {
  Erc20Op op;
  op.kind = Kind::kAllowance;
  op.src = a;
  op.spender = p;
  return op;
}

Erc20Op Erc20Op::total_supply() {
  Erc20Op op;
  op.kind = Kind::kTotalSupply;
  return op;
}

bool Erc20Op::is_read_only() const noexcept {
  switch (kind) {
    case Kind::kBalanceOf:
    case Kind::kAllowance:
    case Kind::kTotalSupply:
      return true;
    default:
      return false;
  }
}

std::string Erc20Op::to_string() const {
  // Piecewise appends, no ostringstream: every op of every committed
  // history line passes through here.
  std::string s;
  switch (kind) {
    case Kind::kTransfer:
      s += "transfer(a";
      s += std::to_string(dst);
      s += ", ";
      s += std::to_string(value);
      break;
    case Kind::kTransferFrom:
      s += "transferFrom(a";
      s += std::to_string(src);
      s += ", a";
      s += std::to_string(dst);
      s += ", ";
      s += std::to_string(value);
      break;
    case Kind::kApprove:
      s += "approve(p";
      s += std::to_string(spender);
      s += ", ";
      s += std::to_string(value);
      break;
    case Kind::kBalanceOf:
      s += "balanceOf(a";
      s += std::to_string(src);
      break;
    case Kind::kAllowance:
      s += "allowance(a";
      s += std::to_string(src);
      s += ", p";
      s += std::to_string(spender);
      break;
    case Kind::kTotalSupply:
      s += "totalSupply(";
      break;
  }
  s += ')';
  return s;
}

Applied<Erc20State> Erc20Spec::apply(const Erc20State& q, ProcessId caller,
                                     const Erc20Op& op) {
  const std::size_t n = q.num_accounts();
  TS_EXPECTS(caller < n);

  switch (op.kind) {
    case Erc20Op::Kind::kTransfer: {
      TS_EXPECTS(op.dst < n);
      const AccountId src = account_of(caller);
      if (q.balance(src) < op.value ||
          add_would_overflow(q.balance(op.dst), op.value)) {
        return {Response::boolean(false), q};
      }
      Erc20State next = q;
      next.set_balance(src, checked_sub(next.balance(src), op.value));
      next.set_balance(op.dst, checked_add(next.balance(op.dst), op.value));
      return {Response::boolean(true), std::move(next)};
    }

    case Erc20Op::Kind::kTransferFrom: {
      TS_EXPECTS(op.src < n && op.dst < n);
      // Δ: success requires β(a_s) ≥ v ∧ α(a_s, p) ≥ v; both are debited.
      if (q.allowance(op.src, caller) < op.value ||
          q.balance(op.src) < op.value ||
          add_would_overflow(q.balance(op.dst), op.value)) {
        return {Response::boolean(false), q};
      }
      Erc20State next = q;
      next.set_allowance(op.src, caller,
                         checked_sub(next.allowance(op.src, caller),
                                     op.value));
      next.set_balance(op.src, checked_sub(next.balance(op.src), op.value));
      next.set_balance(op.dst, checked_add(next.balance(op.dst), op.value));
      return {Response::boolean(true), std::move(next)};
    }

    case Erc20Op::Kind::kApprove: {
      TS_EXPECTS(op.spender < n);
      Erc20State next = q;
      next.set_allowance(account_of(caller), op.spender, op.value);
      return {Response::boolean(true), std::move(next)};
    }

    case Erc20Op::Kind::kBalanceOf:
      TS_EXPECTS(op.src < n);
      return {Response::number(q.balance(op.src)), q};

    case Erc20Op::Kind::kAllowance:
      TS_EXPECTS(op.src < n && op.spender < n);
      return {Response::number(q.allowance(op.src, op.spender)), q};

    case Erc20Op::Kind::kTotalSupply:
      return {Response::number(q.total_supply()), q};
  }
  TS_ASSERT(false);
}

}  // namespace tokensync
