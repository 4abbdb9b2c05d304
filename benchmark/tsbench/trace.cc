#include "trace.h"

#include <cstdio>
#include <memory>

#include "json.h"

namespace tsbench {

Tracer::Id Tracer::begin(std::string_view name, Id parent,
                         std::uint32_t run) {
  std::uint32_t n = 0;
  while (n < names_.size() && names_[n] != name) ++n;
  if (n == names_.size()) names_.emplace_back(name);
  spans_.push_back(Span{n, parent, run, now_ns(), 0});
  return static_cast<Id>(spans_.size());
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool Tracer::write(const std::string& stem) const {
  const File lines(std::fopen((stem + ".jsonl").c_str(), "w"));
  const File chrome(std::fopen((stem + ".json").c_str(), "w"));
  if (!lines || !chrome) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n",
             chrome.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string& name = names_[s.name];
    JsonObject line;
    line.num("id", static_cast<std::uint64_t>(i + 1))
        .str("name", name)
        .num("start_ns", static_cast<std::uint64_t>(s.start_ns))
        .num("end_ns", static_cast<std::uint64_t>(s.end_ns))
        .num("parent", static_cast<std::uint64_t>(s.parent))
        .num("run", static_cast<std::uint64_t>(s.run));
    std::fprintf(lines.get(), "%s\n", line.str().c_str());

    // Complete ("X") events nest by time on one track; the layer name
    // before the first dot becomes the category.
    JsonObject args;
    args.num("id", static_cast<std::uint64_t>(i + 1))
        .num("parent", static_cast<std::uint64_t>(s.parent))
        .num("run", static_cast<std::uint64_t>(s.run));
    JsonObject ev;
    ev.str("name", name)
        .str("cat", name.substr(0, name.find('.')))
        .str("ph", "X")
        .num("ts", static_cast<double>(s.start_ns) / 1e3)
        .num("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .num("pid", std::uint64_t{1})
        .num("tid", std::uint64_t{1})
        .raw("args", args.str());
    std::fprintf(chrome.get(), "%s%s\n", i == 0 ? "" : ",", ev.str().c_str());
  }
  std::fputs("]}\n", chrome.get());
  return std::ferror(lines.get()) == 0 && std::ferror(chrome.get()) == 0;
}

}  // namespace tsbench
