#include "trace.h"

#include <fstream>
#include <stdexcept>

#include "json.h"
#include "net/traceroute.h"

namespace perfbench {

int Tracer::begin(const std::string& name) {
  Span span;
  span.name = name;
  span.start_s = seconds_between(origin_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span " + std::to_string(id) + " is not innermost");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = seconds_between(origin_, Clock::now());
  return span.end_s - span.start_s;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end_s - s.start_s;
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  JsonWriter w;
  w.begin_object();
  w.key("spans");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.field("name", s.name);
    w.field("start_s", s.start_s);
    w.field("end_s", s.end_s);
    w.field("parent", static_cast<std::int64_t>(s.parent));
    w.end_object();
  }
  w.end_array();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : counters_) w.field(name, value);
  w.end_object();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

void TimedSink::on_measurement(const ct::iclab::Measurement& m) {
  const Clock::time_point t0 = Clock::now();
  inner_.on_measurement(m);
  busy_s_ += seconds_between(t0, Clock::now());
}

void TimedSink::on_path(ct::util::Day day, std::int32_t epoch, ct::topo::AsId vantage,
                        ct::topo::AsId dest, const std::vector<ct::topo::AsId>& path) {
  const Clock::time_point t0 = Clock::now();
  inner_.on_path(day, epoch, vantage, dest, path);
  busy_s_ += seconds_between(t0, Clock::now());
}

void TimedSink::on_day_start(ct::util::Day day) {
  const Clock::time_point t0 = Clock::now();
  inner_.on_day_start(day);
  busy_s_ += seconds_between(t0, Clock::now());
}

void TimedSink::on_epoch_complete(ct::util::Day day, std::int32_t epoch) {
  const Clock::time_point t0 = Clock::now();
  inner_.on_epoch_complete(day, epoch);
  busy_s_ += seconds_between(t0, Clock::now());
}

void InferProbeSink::on_measurement(const ct::iclab::Measurement& m) {
  ++measurements_;
  const Clock::time_point t0 = Clock::now();
  ct::net::infer_as_path(m.traceroutes, db_);
  infer_s_ += seconds_between(t0, Clock::now());
}

}  // namespace perfbench
