#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (auto& m : metrics_) {
    if (m.name == name) throw std::logic_error("duplicate metric " + name);
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void Report::check(bool ok, const std::string& why) {
  if (ok) {
    ++attempted_;
  } else {
    fail(why);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
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
  return out;
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(metrics_[i].name);
    out += "\": {\"value\": ";
    out += num;
    out += ", \"unit\": \"";
    out += json_escape(metrics_[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

int SpanLog::open(const char* name) {
  const double now = seconds_since(origin_) * 1e6;
  spans_.push_back({name, current_, now, now});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(int index) {
  spans_[index].end_us = seconds_since(origin_) * 1e6;
  current_ = spans_[index].parent;
}

double SpanLog::total_s(const std::string& name) const {
  double us = 0.0;
  for (const auto& s : spans_) {
    if (name == s.name) us += s.end_us - s.start_us;
  }
  return us * 1e-6;
}

double SpanLog::self_s(const std::string& name) const {
  double us = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (name == s.name) us += s.end_us - s.start_us;
    if (s.parent >= 0 && name == spans_[s.parent].name) {
      us -= s.end_us - s.start_us;
    }
  }
  return us * 1e-6;
}

std::size_t SpanLog::count(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}",
                  i == 0 ? "" : ",\n", s.name, s.start_us,
                  s.end_us - s.start_us, i, s.parent);
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
