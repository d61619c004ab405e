#include "tomo/clause.h"

#include <algorithm>
#include <numeric>
#include <utility>

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
  }
}

void ClauseBuilder::merge(ClauseBuilder&& other) {
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
