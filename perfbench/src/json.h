// Minimal streaming JSON writer for the runner's result line and trace
// file.  Doubles are written in shortest round-trip form, so measured
// values keep all their digits.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    separate();
    string(k);
    out_ += ':';
    after_key_ = true;
  }

  void value(std::string_view v) {
    separate();
    string(v);
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(const std::string& v) { value(std::string_view(v)); }
  void value(bool v) {
    separate();
    out_ += v ? "true" : "false";
  }
  void value(std::int64_t v) {
    separate();
    out_ += std::to_string(v);
  }
  void value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, res.ptr);
  }

  template <typename T>
  void field(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
  }
  void close(char c) {
    out_ += c;
    first_.pop_back();
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
