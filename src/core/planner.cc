#include "core/planner.h"

#include <algorithm>
#include <array>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace tokensync {

SyncPlan plan_synchronization(const Erc20State& q) {
  SyncPlan plan;
  plan.level = state_class(q);
  plan.realizable = is_synchronization_state(q, plan.level);
  for (AccountId a = 0; a < q.num_accounts(); ++a) {
    AccountPlan ap;
    ap.account = a;
    ap.group = enabled_spenders(q, a);
    ap.consensus_free = ap.group.size() <= 1;
    if (!ap.consensus_free) ++plan.coordinated_accounts;
    plan.accounts.push_back(std::move(ap));
  }
  return plan;
}

std::string SyncPlan::to_string() const {
  std::ostringstream os;
  os << "synchronization level k = " << level
     << (realizable ? " (q ∈ S_k: consensus among k realizable now)"
                    : " (q ∈ Q_k \\ S_k)")
     << "\n";
  os << coordinated_accounts << " of " << accounts.size()
     << " accounts need group consensus\n";
  for (const auto& ap : accounts) {
    os << "  a" << ap.account << ": ";
    if (ap.consensus_free) {
      os << "consensus-free (owner p" << owner_of(ap.account) << " only)\n";
    } else {
      os << "group {";
      for (std::size_t i = 0; i < ap.group.size(); ++i) {
        os << (i ? ", " : "") << "p" << ap.group[i];
      }
      os << "} must synchronize\n";
    }
  }
  return os.str();
}

std::string BatchSchedule::to_string() const {
  std::ostringstream os;
  os << wave.size() << " ops in " << num_waves << " waves ("
     << escalated << " escalated, " << conflict_edges
     << " conflict edges, parallelism " << parallelism() << ")";
  return os.str();
}

BatchSchedule plan_batch(const std::vector<Footprint>& fps,
                         const std::vector<bool>& escalate,
                         PlanScratch& scratch) {
  TS_EXPECTS(fps.size() < std::numeric_limits<std::uint32_t>::max());
  // A new stamp makes every entry written by an earlier batch read as
  // untouched; on wrap-around the stamps restart from a cleared array.
  if (++scratch.epoch_ == 0) {
    for (PlanScratch::Account& a : scratch.accounts_) a.epoch = 0;
    scratch.epoch_ = 1;
  }
  const std::uint32_t epoch = scratch.epoch_;
  BatchSchedule s;
  s.wave.resize(fps.size());
  // Waves encoded as wave+1 with 0 = "none", so plain unsigned arithmetic
  // works.
  std::uint32_t last_barrier = 0;
  std::uint32_t max_wave = 0;
  std::size_t barriers_so_far = 0;

  for (std::size_t i = 0; i < fps.size(); ++i) {
    const bool barrier = fps[i].all || (i < escalate.size() && escalate[i]);
    std::uint32_t w;  // encoded wave+1
    if (barrier) {
      // Conflicts with every predecessor: first wave after everything.
      w = max_wave + 1;
      s.conflict_edges += i;
      last_barrier = w;
      ++barriers_so_far;
      ++s.escalated;
    } else {
      w = last_barrier;
      s.conflict_edges += barriers_so_far;
      // Dedup the (tiny) footprint so a self-transfer's repeated account
      // is not counted as a conflict with itself.
      std::array<AccountId, Footprint::kMaxAccounts> uniq;
      std::size_t un = 0;
      for (std::size_t j = 0; j < fps[i].n; ++j) {
        const AccountId a = fps[i].ids[j];
        if (std::find(uniq.begin(), uniq.begin() + un, a) ==
            uniq.begin() + un) {
          uniq[un++] = a;
        }
      }
      for (std::size_t j = 0; j < un; ++j) {
        TS_EXPECTS(uniq[j] < scratch.num_accounts_);
        PlanScratch::Account& a = scratch.accounts_[uniq[j]];
        if (a.epoch != epoch) a = {epoch, 0, 0};
        w = std::max(w, a.last_touch);
        s.conflict_edges += a.touch_count++;
      }
      ++w;  // strictly after every conflicting predecessor
      for (std::size_t j = 0; j < un; ++j) {
        scratch.accounts_[uniq[j]].last_touch = w;
      }
    }
    s.wave[i] = w - 1;
    max_wave = std::max(max_wave, w);
  }
  s.num_waves = max_wave;
  // The flat wave order: a counting sort by wave, stable in index order.
  s.wave_begin.assign(s.num_waves + 1, 0);
  for (const std::uint32_t w : s.wave) ++s.wave_begin[w + 1];
  for (std::size_t w = 0; w < s.num_waves; ++w) {
    s.wave_begin[w + 1] += s.wave_begin[w];
  }
  scratch.cursor_.assign(s.wave_begin.begin(), s.wave_begin.end() - 1);
  s.order.resize(fps.size());
  for (std::uint32_t i = 0; i < s.wave.size(); ++i) {
    s.order[scratch.cursor_[s.wave[i]]++] = i;
  }
  return s;
}

}  // namespace tokensync
