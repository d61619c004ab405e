// In-memory tracing for the benchmark's traced runs.
//
// Spans are recorded around calls into the project's public layer
// functions (never inside the program).  Each span has a name, start
// and end times relative to the tracer's creation, and the index of the
// span that was open when it started.  Counters hold the work counts
// and ratios measured at the same boundaries.  Nothing is written until
// the run ends: write_json() dumps both in one go.
//
// High-frequency boundaries (the MeasurementSink callbacks, millions per
// run) are not recorded as individual spans; TimedSink accumulates their
// busy time instead, and the caller records the sum as a counter.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "iclab/platform.h"
#include "net/ip2as.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  // index into spans(), -1 for a root span
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its id.
  int begin(const std::string& name);
  /// Closes span `id` (must be the innermost open span) and returns its
  /// duration in seconds.
  double end(int id);

  void set(const std::string& counter, double value) { counters_[counter] = value; }
  double counter(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of every span named `name`.
  double total(const std::string& name) const;

  /// Writes {"spans": [...], "counters": {...}} to `path`.
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.end(id_);
  }
  /// Ends the span early; returns its duration.
  double close() {
    const double d = tracer_.end(id_);
    id_ = -1;
    return d;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Forwards every callback to `inner` and accumulates the time spent in
/// it — the busy time of one platform consumer.
class TimedSink : public ct::iclab::MeasurementSink {
 public:
  explicit TimedSink(ct::iclab::MeasurementSink& inner) : inner_(inner) {}

  void on_measurement(const ct::iclab::Measurement& m) override;
  void on_path(ct::util::Day day, std::int32_t epoch, ct::topo::AsId vantage,
               ct::topo::AsId dest, const std::vector<ct::topo::AsId>& path) override;
  void on_day_start(ct::util::Day day) override;
  void on_epoch_complete(ct::util::Day day, std::int32_t epoch) override;

  double busy_s() const { return busy_s_; }

 private:
  ct::iclab::MeasurementSink& inner_;
  double busy_s_ = 0.0;
};

/// Side consumer that counts the platform's output and times
/// net::infer_as_path on every measurement's traceroutes (the same call
/// the clause builder makes, repeated here so its cost shows alone).
class InferProbeSink : public ct::iclab::MeasurementSink {
 public:
  explicit InferProbeSink(const ct::net::Ip2AsDb& db) : db_(db) {}

  void on_measurement(const ct::iclab::Measurement& m) override;
  void on_path(ct::util::Day, std::int32_t, ct::topo::AsId, ct::topo::AsId,
               const std::vector<ct::topo::AsId>&) override {
    ++path_events_;
  }

  std::int64_t measurements() const { return measurements_; }
  std::int64_t path_events() const { return path_events_; }
  double infer_s() const { return infer_s_; }

 private:
  const ct::net::Ip2AsDb& db_;
  std::int64_t measurements_ = 0;
  std::int64_t path_events_ = 0;
  double infer_s_ = 0.0;
};

}  // namespace perfbench
