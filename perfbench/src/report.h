// Shared plumbing for the perfbench binary: wall clock, named metrics, the
// correctness ledger, and the in-memory span log used by traced runs.
//
// Every timing here is std::chrono::steady_clock real time. CPU-time clocks
// are never used: with several threads they over- or under-count wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// q-quantile with linear interpolation (0 for an empty vector).
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Named metrics plus the operation ledger that becomes the result line.
/// A failed check is a failed operation: it clears `correct` and is
/// reported on stderr with its reason.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Counts `n` operations as attempted.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a failed check (counted as one attempted, failed operation).
  void fail(const std::string& why);
  /// Records one attempted check that fails unless `ok`.
  void check(bool ok, const std::string& why);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The single-line result object: correct, attempted, failed, metrics.
  std::string result_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span log for traced runs: one span per call into a layer,
/// with its parent, kept until the run ends and then written as a Chrome
/// trace. Not thread-safe; traced code runs on one thread.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog* log, const char* name)
        : log_(log), index_(log ? log->open(name) : -1) {}
    ~Scope() {
      if (log_) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  /// Total seconds spent inside spans called `name`.
  double total_s(const std::string& name) const;
  /// Seconds inside spans called `name` not covered by their child spans.
  double self_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (complete events, one
  /// thread; the parent index rides in args).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    double start_us;
    double end_us;
  };
  int open(const char* name);
  void close(int index);

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Escapes `s` for a JSON string body.
std::string json_escape(const std::string& s);

}  // namespace perfbench
