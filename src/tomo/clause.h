// Clause formulation (paper §3.1).
//
// Each usable measurement yields, per anomaly type, a boolean constraint
// over the ASes of its (inferred) path: a positive clause
// (X1 ∨ ... ∨ Xk) = True when the anomaly was detected, or the negative
// form (¬X1 ∧ ... ∧ ¬Xk) when it was not.  Records are eliminated under
// the paper's four conditions, implemented in net::infer_as_path; this
// layer runs the inference, tracks elimination statistics, and retains
// the clause stream for CNF construction.
//
// Paths are interned in a PathPool: a year-long run emits millions of
// clauses over a few thousand distinct AS paths, so clauses store a
// 4-byte path id instead of a vector.  The pool's dedup index is an
// open-addressing table of path ids probed by a 64-bit path
// fingerprint; every fingerprint hit is confirmed by full-path
// equality, so distinct paths never share an id.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "censor/policy.h"
#include "iclab/platform.h"
#include "net/traceroute.h"
#include "util/timewin.h"

namespace ct::util {
class ByteWriter;
class ByteReader;
}  // namespace ct::util

namespace ct::tomo {

/// Deduplicating store of AS-level paths.
class PathPool {
 public:
  using PathId = std::int32_t;

  /// Returns the id of `path`, interning it on first sight.
  PathId intern(const std::vector<topo::AsId>& path);
  const std::vector<topo::AsId>& get(PathId id) const {
    return paths_.at(static_cast<std::size_t>(id));
  }
  std::size_t size() const { return paths_.size(); }

  /// Checkpoint support (analysis/checkpoint.h).  save() emits the
  /// interned paths in id order; load() replaces the pool wholesale and
  /// rebuilds the dedup index, so ids survive a save/load round trip
  /// (a repeated path, which save() never writes, is a SerdeError).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  static std::uint64_t fingerprint(const std::vector<topo::AsId>& path);
  /// Doubles the index (64 slots at first) and re-slots every path.
  void grow_index();

  std::vector<std::vector<topo::AsId>> paths_;
  /// fingerprint(paths_[id]), per id.
  std::vector<std::uint64_t> fingerprints_;
  /// Open-addressing index: path ids by fingerprint (linear probing,
  /// power-of-two size, at most half full), -1 marks an empty slot.
  std::vector<PathId> slots_;
};

/// One boolean path constraint (20 bytes).
struct PathClause {
  PathPool::PathId path_id = -1;
  std::int32_t url_id = 0;
  /// The measuring vantage AS.  Bookkeeping only (e.g., the Figure-4
  /// churn ablation groups by vantage): the vantage AS is typically NOT
  /// a literal of the clause because its own traceroute hops are
  /// private, unmappable addresses.
  topo::AsId vantage = topo::kInvalidAs;
  util::Day day = 0;
  censor::Anomaly anomaly = censor::Anomaly::kDns;
  bool observed = false;  // anomaly detected on this measurement

  bool operator==(const PathClause&) const = default;
};

struct ClauseBuildStats {
  std::int64_t measurements = 0;
  std::int64_t dropped_no_mapping = 0;
  std::int64_t dropped_traceroute_error = 0;
  std::int64_t dropped_ambiguous_gap = 0;
  std::int64_t dropped_divergent_paths = 0;
  std::int64_t usable_measurements = 0;
  std::int64_t clauses = 0;

  std::int64_t dropped_total() const {
    return dropped_no_mapping + dropped_traceroute_error + dropped_ambiguous_gap +
           dropped_divergent_paths;
  }

  ClauseBuildStats& operator+=(const ClauseBuildStats& other) {
    measurements += other.measurements;
    dropped_no_mapping += other.dropped_no_mapping;
    dropped_traceroute_error += other.dropped_traceroute_error;
    dropped_ambiguous_gap += other.dropped_ambiguous_gap;
    dropped_divergent_paths += other.dropped_divergent_paths;
    usable_measurements += other.usable_measurements;
    clauses += other.clauses;
    return *this;
  }

  bool operator==(const ClauseBuildStats&) const = default;
};

/// Streaming sink: converts measurements to clauses as they arrive.
class ClauseBuilder : public iclab::MeasurementSink {
 public:
  /// The database must outlive the builder.
  explicit ClauseBuilder(const net::Ip2AsDb& db);

  void on_measurement(const iclab::Measurement& m) override;

  /// Folds a shard-local builder into this one: clauses are appended
  /// with their path ids re-interned into this builder's pool, stats are
  /// summed.  Associative, with a fresh builder as identity — but the
  /// clause *order* after merging reflects merge order, so callers must
  /// canonicalize() before reading clauses()/pool() when more than one
  /// builder was merged.
  void merge(ClauseBuilder&& other);

  /// Restores the canonical serial stream: clauses are sorted by their
  /// measurement's schedule position (Measurement::seq) and path ids are
  /// renumbered in first-use order of the sorted stream.  Idempotent,
  /// and a no-op on a builder fed by a serial Platform::run — after
  /// canonicalize(), pool() and clauses() are bit-identical regardless
  /// of how the stream was sharded or in which order shards merged.
  void canonicalize();

  const PathPool& pool() const { return pool_; }
  const std::vector<PathClause>& clauses() const { return clauses_; }
  /// Schedule position of each clause (parallel to clauses(); the
  /// kNumAnomalies clauses of one measurement share a value).
  const std::vector<std::int64_t>& seqs() const { return seqs_; }
  const ClauseBuildStats& stats() const { return stats_; }

 private:
  const net::Ip2AsDb& db_;
  PathPool pool_;
  std::vector<PathClause> clauses_;
  std::vector<std::int64_t> seqs_;
  ClauseBuildStats stats_;
};

}  // namespace ct::tomo
