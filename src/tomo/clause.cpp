#include "tomo/clause.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "tomo/cnf_builder.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::tomo {

std::uint64_t PathPool::fingerprint(const std::vector<topo::AsId>& path) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const topo::AsId as : path) h = util::mix64(h, static_cast<std::uint32_t>(as));
  return h;
}

void PathPool::grow_index() {
  slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), -1);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t id = 0; id < paths_.size(); ++id) {
    std::size_t i = static_cast<std::size_t>(fingerprints_[id]) & mask;
    while (slots_[i] != -1) i = (i + 1) & mask;
    slots_[i] = static_cast<PathId>(id);
  }
}

PathPool::PathId PathPool::intern(const std::vector<topo::AsId>& path) {
  if (2 * (paths_.size() + 1) > slots_.size()) grow_index();
  const std::uint64_t fp = fingerprint(path);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(fp) & mask;
  for (; slots_[i] != -1; i = (i + 1) & mask) {
    const auto id = static_cast<std::size_t>(slots_[i]);
    if (fingerprints_[id] == fp && paths_[id] == path) return slots_[i];
  }
  const auto id = static_cast<PathId>(paths_.size());
  slots_[i] = id;
  paths_.push_back(path);
  fingerprints_.push_back(fp);
  return id;
}

void PathPool::save(util::ByteWriter& w) const {
  util::save_vec(w, paths_, [](util::ByteWriter& w, const std::vector<topo::AsId>& path) {
    util::save_vec(w, path, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
  });
}

void PathPool::load(util::ByteReader& r) {
  std::vector<std::vector<topo::AsId>> paths;
  util::load_vec(r, paths, [](util::ByteReader& r) {
    std::vector<topo::AsId> path;
    util::load_vec(r, path, [](util::ByteReader& r) { return topo::AsId{r.i32()}; });
    return path;
  });
  *this = PathPool{};
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (static_cast<std::size_t>(intern(paths[i])) != i) {
      throw util::SerdeError("PathPool::load: duplicate path");
    }
  }
}

ClauseBuilder::ClauseBuilder(const net::Ip2AsDb& db) : db_(db) {}
ClauseBuilder::~ClauseBuilder() = default;

ClauseBuilder::ClauseBuilder(ClauseBuilder&& other) noexcept
    : db_(other.db_),
      pool_(std::move(other.pool_)),
      clauses_(std::move(other.clauses_)),
      seqs_(std::move(other.seqs_)),
      retired_(other.retired_),
      stats_(other.stats_),
      gauge_(other.gauge_),
      streaming_(std::move(other.streaming_)) {
  other.gauge_ = nullptr;  // the retained clauses moved with us
  // The grouper borrowed the *source's* pool member; point it at ours.
  if (streaming_ != nullptr) streaming_->rebind_pool(&pool_);
}

ClauseBuilder::ClauseBuilder(const ClauseBuilder& other)
    : db_(other.db_),
      pool_(other.pool_),
      clauses_(other.clauses_),
      seqs_(other.seqs_),
      retired_(other.retired_),
      stats_(other.stats_),
      // A copy never inherits the gauge: the original keeps reporting
      // its retained clauses, and double counting would inflate the
      // high-water mark.
      gauge_(nullptr),
      streaming_(other.streaming_ == nullptr
                     ? nullptr
                     : std::make_unique<StreamingCnfBuilder>(*other.streaming_)) {
  // The copied grouper borrowed the *source's* pool; point it at ours.
  if (streaming_ != nullptr) streaming_->rebind_pool(&pool_);
}

void ClauseBuilder::retire_clauses(std::size_t before) {
  if (before <= retired_) return;
  const std::size_t drop = std::min(before - retired_, clauses_.size());
  clauses_.erase(clauses_.begin(), clauses_.begin() + static_cast<std::ptrdiff_t>(drop));
  seqs_.erase(seqs_.begin(), seqs_.begin() + static_cast<std::ptrdiff_t>(drop));
  retired_ += drop;
  if (gauge_ != nullptr) gauge_->sub(static_cast<std::int64_t>(drop));
}

void ClauseBuilder::set_retained_gauge(util::HwmGauge* gauge) {
  gauge_ = gauge;
  if (gauge_ != nullptr) gauge_->add(static_cast<std::int64_t>(clauses_.size()));
}

void ClauseBuilder::start_streaming(const CnfBuildOptions& options) {
  if (!clauses_.empty()) {
    throw std::logic_error("ClauseBuilder::start_streaming: clauses already buffered");
  }
  // Borrow our own pool: on_measurement interns each path exactly once.
  streaming_ = std::make_unique<StreamingCnfBuilder>(options, &pool_);
}

void ClauseBuilder::start_streaming() { start_streaming(CnfBuildOptions{}); }

std::vector<TomoCnf> ClauseBuilder::advance_watermark(util::Day complete_before) {
  if (streaming_ == nullptr) {
    throw std::logic_error("ClauseBuilder::advance_watermark: streaming mode is off");
  }
  return streaming_->advance_watermark(complete_before);
}

std::vector<TomoCnf> ClauseBuilder::flush() {
  if (streaming_ == nullptr) {
    throw std::logic_error("ClauseBuilder::flush: streaming mode is off");
  }
  return streaming_->flush();
}

void ClauseBuilder::on_measurement(const iclab::Measurement& m) {
  ++stats_.measurements;
  const net::InferenceResult inferred = net::infer_as_path(m.traceroutes, db_);
  switch (inferred.drop) {
    case net::InferenceDrop::kNoMapping:
      ++stats_.dropped_no_mapping;
      return;
    case net::InferenceDrop::kTracerouteError:
      ++stats_.dropped_traceroute_error;
      return;
    case net::InferenceDrop::kAmbiguousGap:
      ++stats_.dropped_ambiguous_gap;
      return;
    case net::InferenceDrop::kDivergentPaths:
      ++stats_.dropped_divergent_paths;
      return;
    case net::InferenceDrop::kNone:
      break;
  }
  ++stats_.usable_measurements;
  const PathPool::PathId path_id = pool_.intern(inferred.as_path);
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    PathClause clause;
    clause.path_id = path_id;
    clause.url_id = m.url_id;
    clause.vantage = m.vantage;
    clause.day = m.day;
    clause.anomaly = a;
    clause.observed = m.detected[static_cast<std::size_t>(a)];
    clauses_.push_back(clause);
    seqs_.push_back(m.seq);
    ++stats_.clauses;
    if (gauge_ != nullptr) gauge_->add(1);
    if (streaming_ != nullptr) streaming_->add(pool_, clause);
  }
}

void ClauseBuilder::merge(ClauseBuilder&& other) {
  if (streaming_ != nullptr || other.streaming_ != nullptr) {
    throw std::logic_error(
        "ClauseBuilder::merge: streaming builders cannot be merged "
        "(use analysis::StreamingPipeline's min-merged watermark path)");
  }
  if ((retired_ > 0 && !clauses_.empty()) ||
      (other.retired_ > 0 && !other.clauses_.empty())) {
    throw std::logic_error(
        "ClauseBuilder::merge: a partially retired stream cannot merge "
        "(the retained suffixes would masquerade as whole streams)");
  }
  stats_ += other.stats_;
  clauses_.reserve(clauses_.size() + other.clauses_.size());
  seqs_.reserve(seqs_.size() + other.seqs_.size());
  for (std::size_t i = 0; i < other.clauses_.size(); ++i) {
    PathClause clause = other.clauses_[i];
    clause.path_id = pool_.intern(other.pool_.get(clause.path_id));
    clauses_.push_back(clause);
    seqs_.push_back(other.seqs_[i]);
  }
}

void ClauseBuilder::canonicalize() {
  if (streaming_ != nullptr) {
    throw std::logic_error(
        "ClauseBuilder::canonicalize: streaming mode borrows the pool and "
        "cannot survive its renumbering (a streaming builder's stream is "
        "already serial — there is nothing to canonicalize)");
  }
  if (retired_ > 0 && !clauses_.empty()) {
    throw std::logic_error(
        "ClauseBuilder::canonicalize: the stream is partially retired — "
        "sorting the retained suffix would masquerade as the whole stream");
  }
  std::vector<std::size_t> order(clauses_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable: a measurement's clauses share a seq and keep anomaly order.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) { return seqs_[a] < seqs_[b]; });

  PathPool pool;
  std::vector<PathClause> clauses;
  std::vector<std::int64_t> seqs;
  clauses.reserve(clauses_.size());
  seqs.reserve(seqs_.size());
  for (const std::size_t i : order) {
    PathClause clause = clauses_[i];
    clause.path_id = pool.intern(pool_.get(clause.path_id));
    clauses.push_back(clause);
    seqs.push_back(seqs_[i]);
  }
  pool_ = std::move(pool);
  clauses_ = std::move(clauses);
  seqs_ = std::move(seqs);
}

}  // namespace ct::tomo
