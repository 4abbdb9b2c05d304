// Span recorder for the traced pass.  Spans live in memory and are
// written once, at exit, as JSON lines and as a Chrome trace-event file
// (open it in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tsbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Span ids are 1-based; 0 means "no parent".
  using Id = std::uint32_t;

  struct Span {
    std::uint32_t name = 0;  ///< index into names_
    Id parent = 0;
    std::uint32_t run = 0;   ///< shared by the spans of one layer call
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Records a span around `f(id)`, where `id` is the new span's id (the
  /// parent of any span `f` records); returns the span's duration.
  template <typename F>
  std::int64_t span(std::string_view name, Id parent, std::uint32_t run,
                    F&& f) {
    const Id id = begin(name, parent, run);
    f(id);
    Span& s = spans_[id - 1];
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }

  std::size_t size() const noexcept { return spans_.size(); }

  /// Writes `<stem>.jsonl` (one span per line) and `<stem>.json` (Chrome
  /// trace events, microseconds).  Returns false if a file can't be
  /// written.
  bool write(const std::string& stem) const;

 private:
  Id begin(std::string_view name, Id parent, std::uint32_t run);
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace tsbench
