// A minimal JSON object writer: tsbench prints machine-read records and
// the benchmark must not pull in a JSON library.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tsbench {

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    char buf[32];
    // %.17g round-trips a double: protocol ratios compare exactly.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& num(std::string_view key, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return raw(key, buf);
  }
  JsonObject& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  /// `json` must already be a JSON value.
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace tsbench
