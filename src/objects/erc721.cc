#include "objects/erc721.h"

#include <sstream>

#include "common/error.h"
#include "common/hash.h"

namespace tokensync {

Erc721State::Erc721State(std::size_t n, std::vector<AccountId> owner_of)
    : num_accounts_(n),
      owner_of_(std::move(owner_of)),
      approved_(owner_of_.size(), kNoProcess),
      operators_(n, std::vector<std::uint8_t>(n, 0)) {
  for (AccountId a : owner_of_) TS_EXPECTS(a < n);
}

std::size_t Erc721State::hash() const noexcept {
  std::size_t seed = hash_range(owner_of_);
  hash_combine(seed, hash_range(approved_));
  for (const auto& row : operators_) hash_combine(seed, hash_range(row));
  return seed;
}

std::string Erc721State::to_string() const {
  std::ostringstream os;
  os << "owners=[";
  for (std::size_t t = 0; t < owner_of_.size(); ++t) {
    os << (t ? ", " : "") << "t" << t << ":a" << owner_of_[t];
  }
  os << "]";
  return os.str();
}

Erc721Op Erc721Op::transfer_from(AccountId src, AccountId dst, TokenId t) {
  Erc721Op op;
  op.kind = Kind::kTransferFrom;
  op.src = src;
  op.dst = dst;
  op.token = t;
  return op;
}

Erc721Op Erc721Op::approve(ProcessId spender, TokenId t) {
  Erc721Op op;
  op.kind = Kind::kApprove;
  op.spender = spender;
  op.token = t;
  return op;
}

Erc721Op Erc721Op::set_approval_for_all(ProcessId o, bool approved) {
  Erc721Op op;
  op.kind = Kind::kSetApprovalForAll;
  op.spender = o;
  op.flag = approved;
  return op;
}

Erc721Op Erc721Op::owner_of(TokenId t) {
  Erc721Op op;
  op.kind = Kind::kOwnerOf;
  op.token = t;
  return op;
}

Erc721Op Erc721Op::get_approved(TokenId t) {
  Erc721Op op;
  op.kind = Kind::kGetApproved;
  op.token = t;
  return op;
}

Erc721Op Erc721Op::is_approved_for_all(AccountId holder, ProcessId p) {
  Erc721Op op;
  op.kind = Kind::kIsApprovedForAll;
  op.src = holder;
  op.spender = p;
  return op;
}

bool Erc721Op::is_read_only() const noexcept {
  switch (kind) {
    case Kind::kOwnerOf:
    case Kind::kGetApproved:
    case Kind::kIsApprovedForAll:
      return true;
    default:
      return false;
  }
}

std::string Erc721Op::to_string() const {
  // Piecewise appends, no ostringstream: every op of every committed
  // history line passes through here.
  std::string s;
  switch (kind) {
    case Kind::kTransferFrom:
      s += "transferFrom(a";
      s += std::to_string(src);
      s += ", a";
      s += std::to_string(dst);
      s += ", t";
      s += std::to_string(token);
      break;
    case Kind::kApprove:
      s += "approve(p";
      s += std::to_string(spender);
      s += ", t";
      s += std::to_string(token);
      break;
    case Kind::kSetApprovalForAll:
      s += "setApprovalForAll(p";
      s += std::to_string(spender);
      s += flag ? ", true" : ", false";
      break;
    case Kind::kOwnerOf:
      s += "ownerOf(t";
      s += std::to_string(token);
      break;
    case Kind::kGetApproved:
      s += "getApproved(t";
      s += std::to_string(token);
      break;
    case Kind::kIsApprovedForAll:
      s += "isApprovedForAll(a";
      s += std::to_string(src);
      s += ", p";
      s += std::to_string(spender);
      break;
  }
  s += ')';
  return s;
}

Applied<Erc721State> Erc721Spec::apply(const Erc721State& q, ProcessId caller,
                                       const Erc721Op& op) {
  const std::size_t n = q.num_accounts();
  TS_EXPECTS(caller < n);

  switch (op.kind) {
    case Erc721Op::Kind::kTransferFrom: {
      TS_EXPECTS(op.src < n && op.dst < n && op.token < q.num_tokens());
      const bool owns = q.owner_of(op.token) == op.src;
      const bool authorized = caller == owner_of(op.src) ||
                              q.approved(op.token) == caller ||
                              q.is_operator(op.src, caller);
      if (!owns || !authorized) {
        return {Response::boolean(false), q};
      }
      Erc721State next = q;
      next.set_owner(op.token, op.dst);
      next.set_approved(op.token, kNoProcess);  // EIP-721: approval cleared
      return {Response::boolean(true), std::move(next)};
    }

    case Erc721Op::Kind::kApprove: {
      TS_EXPECTS(op.spender < n && op.token < q.num_tokens());
      // Only the owner (or one of its operators) may approve.
      const AccountId holder = q.owner_of(op.token);
      if (caller != owner_of(holder) && !q.is_operator(holder, caller)) {
        return {Response::boolean(false), q};
      }
      Erc721State next = q;
      next.set_approved(op.token, op.spender);
      return {Response::boolean(true), std::move(next)};
    }

    case Erc721Op::Kind::kSetApprovalForAll: {
      TS_EXPECTS(op.spender < n);
      Erc721State next = q;
      next.set_operator(account_of(caller), op.spender, op.flag);
      return {Response::boolean(true), std::move(next)};
    }

    case Erc721Op::Kind::kOwnerOf:
      TS_EXPECTS(op.token < q.num_tokens());
      return {Response::number(q.owner_of(op.token)), q};

    case Erc721Op::Kind::kGetApproved:
      TS_EXPECTS(op.token < q.num_tokens());
      return {Response::number(q.approved(op.token)), q};

    case Erc721Op::Kind::kIsApprovedForAll:
      TS_EXPECTS(op.src < n && op.spender < n);
      return {Response::boolean(q.is_operator(op.src, op.spender)), q};
  }
  TS_ASSERT(false);
}

}  // namespace tokensync
