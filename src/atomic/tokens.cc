#include "atomic/tokens.h"

#include "common/error.h"

namespace tokensync {

// ---------------------------------------------------------------------------
// AtomicRaceToken.
// ---------------------------------------------------------------------------
AtomicRaceToken::AtomicRaceToken(Amount balance, std::vector<Amount> amounts)
    : word_(balance), amounts_(std::move(amounts)) {
  TS_EXPECTS(balance < (1ULL << 48));
  TS_EXPECTS(!amounts_.empty() && amounts_.size() <= 255);
  TS_EXPECTS(amounts_[0] == balance);  // the owner transfers B
  for (std::size_t i = 1; i < amounts_.size(); ++i) {
    TS_EXPECTS(amounts_[i] > 0 && amounts_[i] <= balance);
    // U (eq. 13): any two allowances must exceed the balance, unless there
    // are at most 2 participants.
    for (std::size_t j = i + 1;
         amounts_.size() > 2 && j < amounts_.size(); ++j) {
      TS_EXPECTS(amounts_[i] + amounts_[j] > balance);
    }
  }
}

bool AtomicRaceToken::try_spend(std::size_t i) {
  TS_EXPECTS(i < amounts_.size());
  const Amount want = amounts_[i];
  std::uint64_t cur = word_.load();
  for (;;) {
    const Amount bal = cur & kBalanceMask;
    const std::uint64_t winner = cur >> 48;
    // Faithful failure cases: insufficient balance, or the race already
    // has a winner (the winner's allowance is exhausted and, under U, the
    // residual balance cannot cover anyone else's amount).
    if (bal < want || winner != 0) return false;
    const std::uint64_t next =
        (bal - want) | (static_cast<std::uint64_t>(i + 1) << 48);
    if (word_.compare_exchange_weak(cur, next)) return true;
    // cur reloaded by compare_exchange_weak; retry (bounded: a failed CAS
    // means someone else made progress — and under U, that someone won,
    // making our next balance test fail: wait-free, at most 2 iterations).
  }
}

Amount AtomicRaceToken::allowance_of(std::size_t j) const {
  TS_EXPECTS(j >= 1 && j < amounts_.size());
  const std::uint64_t cur = word_.load();
  const std::uint64_t winner = cur >> 48;
  return (winner == j + 1) ? 0 : amounts_[j];
}

std::optional<std::size_t> AtomicRaceToken::winner() const {
  const std::uint64_t winner = word_.load() >> 48;
  if (winner == 0) return std::nullopt;
  return winner - 1;
}

Amount AtomicRaceToken::balance() const {
  return word_.load() & kBalanceMask;
}

// ---------------------------------------------------------------------------
// HwAlgo1.
// ---------------------------------------------------------------------------
namespace {

std::vector<Amount> race_amounts(std::size_t k, Amount balance) {
  std::vector<Amount> amounts(k);
  amounts[0] = balance;
  for (std::size_t i = 1; i < k; ++i) amounts[i] = balance / 2 + 1;
  return amounts;
}

}  // namespace

HwAlgo1::HwAlgo1(std::size_t k, Amount balance)
    : k_(k), race_(balance, race_amounts(k, balance)), regs_(k) {
  TS_EXPECTS(k >= 1);
  for (auto& r : regs_) r.store(0);
}

Amount HwAlgo1::propose(std::size_t i, Amount value) {
  TS_EXPECTS(i < k_);
  // R[i].write(v)  — 0 encodes ⊥, so store v+1.
  regs_[i].store(value + 1);
  // if p_i = p_1 then T.transfer(a_d, B) else T.transferFrom(a_1,a_d,A_i)
  race_.try_spend(i);
  // for j in 2..k: if T.allowances(a_1, p_j) = 0 return R[j].read()
  for (std::size_t j = 1; j < k_; ++j) {
    if (race_.allowance_of(j) == 0) {
      const std::uint64_t r = regs_[j].load();
      TS_ASSERT(r != 0);  // winner wrote before spending
      return r - 1;
    }
  }
  // return R[1].read()
  const std::uint64_t r = regs_[0].load();
  TS_ASSERT(r != 0);
  return r - 1;
}

}  // namespace tokensync
