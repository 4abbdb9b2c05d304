#include "objects/erc777.h"

#include <sstream>

#include "common/checked.h"
#include "common/error.h"
#include "common/hash.h"

namespace tokensync {

Erc777State::Erc777State(std::size_t n, ProcessId deployer,
                         Amount total_supply)
    : balances_(n, 0), operators_(n, std::vector<std::uint8_t>(n, 0)) {
  TS_EXPECTS(deployer < n);
  balances_.at(deployer) = total_supply;
}

Amount Erc777State::total_supply() const noexcept {
  Amount sum = 0;
  for (Amount b : balances_) sum = checked_add(sum, b);
  return sum;
}

std::size_t Erc777State::hash() const noexcept {
  std::size_t seed = hash_range(balances_);
  for (const auto& row : operators_) hash_combine(seed, hash_range(row));
  return seed;
}

std::string Erc777State::to_string() const {
  std::ostringstream os;
  os << "balances=[";
  for (std::size_t i = 0; i < balances_.size(); ++i) {
    os << (i ? ", " : "") << balances_[i];
  }
  os << "]";
  return os.str();
}

Erc777Op Erc777Op::send(AccountId dst, Amount v) {
  Erc777Op op;
  op.kind = Kind::kSend;
  op.dst = dst;
  op.value = v;
  return op;
}

Erc777Op Erc777Op::operator_send(AccountId src, AccountId dst, Amount v) {
  Erc777Op op;
  op.kind = Kind::kOperatorSend;
  op.src = src;
  op.dst = dst;
  op.value = v;
  return op;
}

Erc777Op Erc777Op::authorize_operator(ProcessId p) {
  Erc777Op op;
  op.kind = Kind::kAuthorizeOperator;
  op.op_process = p;
  return op;
}

Erc777Op Erc777Op::revoke_operator(ProcessId p) {
  Erc777Op op;
  op.kind = Kind::kRevokeOperator;
  op.op_process = p;
  return op;
}

Erc777Op Erc777Op::balance_of(AccountId a) {
  Erc777Op op;
  op.kind = Kind::kBalanceOf;
  op.src = a;
  return op;
}

Erc777Op Erc777Op::is_operator_for(ProcessId p, AccountId holder) {
  Erc777Op op;
  op.kind = Kind::kIsOperatorFor;
  op.op_process = p;
  op.src = holder;
  return op;
}

bool Erc777Op::is_read_only() const noexcept {
  return kind == Kind::kBalanceOf || kind == Kind::kIsOperatorFor;
}

std::string Erc777Op::to_string() const {
  // Piecewise appends, no ostringstream: every op of every committed
  // history line passes through here.
  std::string s;
  switch (kind) {
    case Kind::kSend:
      s += "send(a";
      s += std::to_string(dst);
      s += ", ";
      s += std::to_string(value);
      break;
    case Kind::kOperatorSend:
      s += "operatorSend(a";
      s += std::to_string(src);
      s += ", a";
      s += std::to_string(dst);
      s += ", ";
      s += std::to_string(value);
      break;
    case Kind::kAuthorizeOperator:
      s += "authorizeOperator(p";
      s += std::to_string(op_process);
      break;
    case Kind::kRevokeOperator:
      s += "revokeOperator(p";
      s += std::to_string(op_process);
      break;
    case Kind::kBalanceOf:
      s += "balanceOf(a";
      s += std::to_string(src);
      break;
    case Kind::kIsOperatorFor:
      s += "isOperatorFor(p";
      s += std::to_string(op_process);
      s += ", a";
      s += std::to_string(src);
      break;
  }
  s += ')';
  return s;
}

Applied<Erc777State> Erc777Spec::apply(const Erc777State& q, ProcessId caller,
                                       const Erc777Op& op) {
  const std::size_t n = q.num_accounts();
  TS_EXPECTS(caller < n);

  switch (op.kind) {
    case Erc777Op::Kind::kSend: {
      TS_EXPECTS(op.dst < n);
      const AccountId src = account_of(caller);
      if (q.balance(src) < op.value ||
          add_would_overflow(q.balance(op.dst), op.value)) {
        return {Response::boolean(false), q};
      }
      Erc777State next = q;
      next.set_balance(src, checked_sub(next.balance(src), op.value));
      next.set_balance(op.dst, checked_add(next.balance(op.dst), op.value));
      return {Response::boolean(true), std::move(next)};
    }

    case Erc777Op::Kind::kOperatorSend: {
      TS_EXPECTS(op.src < n && op.dst < n);
      const bool authorized =
          caller == owner_of(op.src) || q.is_operator(op.src, caller);
      if (!authorized || q.balance(op.src) < op.value ||
          add_would_overflow(q.balance(op.dst), op.value)) {
        return {Response::boolean(false), q};
      }
      Erc777State next = q;
      next.set_balance(op.src, checked_sub(next.balance(op.src), op.value));
      next.set_balance(op.dst, checked_add(next.balance(op.dst), op.value));
      return {Response::boolean(true), std::move(next)};
    }

    case Erc777Op::Kind::kAuthorizeOperator: {
      TS_EXPECTS(op.op_process < n);
      Erc777State next = q;
      next.set_operator(account_of(caller), op.op_process, true);
      return {Response::boolean(true), std::move(next)};
    }

    case Erc777Op::Kind::kRevokeOperator: {
      TS_EXPECTS(op.op_process < n);
      Erc777State next = q;
      next.set_operator(account_of(caller), op.op_process, false);
      return {Response::boolean(true), std::move(next)};
    }

    case Erc777Op::Kind::kBalanceOf:
      TS_EXPECTS(op.src < n);
      return {Response::number(q.balance(op.src)), q};

    case Erc777Op::Kind::kIsOperatorFor:
      TS_EXPECTS(op.src < n && op.op_process < n);
      return {Response::boolean(q.is_operator(op.src, op.op_process)), q};
  }
  TS_ASSERT(false);
}

}  // namespace tokensync
