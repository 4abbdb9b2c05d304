// ReplicaCore — the lane-independent replica plumbing every node
// runtime shares (the unification seam of the net/ layer).
//
// ReplicaNode (one command per consensus slot), BlockReplicaNode (one
// BLOCK per slot) and HybridReplicaNode (consensus-free ERB fast lane +
// consensus lane) all need the same four pieces of bookkeeping:
//
//   * the committed log     — Entry records in commit order, with the
//                             local commit time deliberately excluded
//                             from the canonical rendering;
//   * history()             — the canonical committed-history string
//                             ("<slot> p<origin>: <line>" per entry) a
//                             report carries and digests; the scenario
//                             audits compare replicas entry by entry
//                             (same_history, history_prefix_of) with
//                             the same verdict, never rendering;
//   * commit latencies      — submit -> local-commit deltas of this
//                             replica's own submissions, keyed by an
//                             opaque submission key;
//   * settlement counters   — how many client operations this replica
//                             accepted (the settlement audit's unit).
//
// Before this header, ReplicaNode and BlockReplicaNode each carried a
// private copy of this plumbing (ISSUE 5's named duplication); now there
// is exactly one implementation, and the ordering lanes stacked on top
// decide only WHAT gets appended and WHEN — the pluggable-lane runtime
// of DESIGN.md §11.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace tokensync {

class ReplicaCore {
 public:
  /// One committed log entry.  `line` is replica-independent (the slot,
  /// the origin and the state machine's apply rendering); `time` is this
  /// replica's local commit time and is excluded from history().
  struct Entry {
    std::uint64_t slot = 0;
    ProcessId origin = 0;
    std::uint64_t time = 0;
    std::string line;
  };

  /// Appends one committed entry (in commit order).
  void append(std::uint64_t slot, ProcessId origin, std::uint64_t time,
              std::string line) {
    log_.push_back(Entry{slot, origin, time, std::move(line)});
  }

  const std::vector<Entry>& log() const noexcept { return log_; }
  /// Local time of the newest commit (0 before the first).
  std::uint64_t last_commit_time() const noexcept {
    return log_.empty() ? 0 : log_.back().time;
  }

  /// Canonical committed history: identical bytes on every replica with
  /// the same committed prefix (the determinism / agreement test
  /// object).
  std::string history() const { return history_from(0); }

  /// The history SUFFIX from slot `slot` on — what a snapshot-installed
  /// rejoiner (whose log starts at its install boundary) is compared
  /// against: its full history must equal every correct replica's
  /// history_from(install slot), byte for byte.
  std::string history_from(std::uint64_t slot) const {
    std::string h;
    for (const Entry& e : log_) {
      if (e.slot < slot) continue;
      h += std::to_string(e.slot);
      h += " p";
      h += std::to_string(e.origin);
      h += ": ";
      h += e.line;
      h += "\n";
    }
    return h;
  }

  /// history() == ref.history_from(from_slot), decided entry by entry:
  /// slot, origin and line of each entry, in log order, against ref's
  /// entries at or above `from_slot`.  Equal entries render equal lines,
  /// so this is never looser than comparing the rendered strings.
  bool same_history(const ReplicaCore& ref,
                    std::uint64_t from_slot = 0) const {
    auto mine = log_.begin();
    for (const Entry& e : ref.log_) {
      if (e.slot < from_slot) continue;
      if (mine == log_.end() || !same_entry(*mine, e)) return false;
      ++mine;
    }
    return mine == log_.end();
  }

  /// ref.history().starts_with(history()), decided entry by entry — the
  /// audit's rule for a crashed replica, whose log stops mid-run.
  bool history_prefix_of(const ReplicaCore& ref) const {
    return log_.size() <= ref.log_.size() &&
           std::equal(log_.begin(), log_.end(), ref.log_.begin(),
                      same_entry);
  }

  // --- settlement accounting -------------------------------------------

  void note_submission() noexcept { ++submitted_; }
  std::size_t submitted() const noexcept { return submitted_; }

  // --- commit latencies ------------------------------------------------

  /// Marks a submission in flight.  `key` is lane-scoped and opaque
  /// (ReplicaNode uses the broadcast nonce; the hybrid runtime tags keys
  /// per lane so fast sequence numbers and consensus nonces cannot
  /// collide).
  void start_latency(std::uint64_t key, std::uint64_t now) {
    submit_time_.emplace(key, now);
  }

  /// Completes a submission's latency (no-op for unknown keys — e.g. a
  /// command learned from a peer before our own submission recorded it).
  void finish_latency(std::uint64_t key, std::uint64_t now) {
    const auto it = submit_time_.find(key);
    if (it == submit_time_.end()) return;
    latencies_.push_back(now - it->second);
    submit_time_.erase(it);
  }

  /// Commit latencies (simulated time, submit -> local commit) of this
  /// replica's own submissions.
  const std::vector<std::uint64_t>& commit_latencies() const noexcept {
    return latencies_;
  }

 private:
  /// The rendered part of an entry; the local commit time is not.
  static bool same_entry(const Entry& a, const Entry& b) {
    return a.slot == b.slot && a.origin == b.origin && a.line == b.line;
  }

  std::vector<Entry> log_;
  std::map<std::uint64_t, std::uint64_t> submit_time_;  // key -> time
  std::vector<std::uint64_t> latencies_;
  std::size_t submitted_ = 0;
};

}  // namespace tokensync
