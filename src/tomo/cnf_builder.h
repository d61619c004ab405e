// Time- and URL-based splitting of path clauses into CNFs (paper §3.1).
//
// One CNF is built per (URL, anomaly type, time window) at each of the
// four granularities (day / week / month / year).  Within a CNF:
//   * every AS observed in any member clause becomes a SAT variable,
//   * a positive clause contributes the disjunction of its path's
//     variables,
//   * a negative clause contributes a negative unit clause for each AS
//     on its path ("this AS was observed censorship-free").
// Duplicate constraints are deduplicated.  By default, CNFs with no
// positive clause are skipped: they are trivially uniquely satisfied by
// the all-False assignment and identify no censors (see DESIGN.md §5).
//
// Two construction modes share one grouping implementation:
//   * build_cnfs() — the batch path: group a fully materialized clause
//     stream, return every CNF sorted by key.
//   * StreamingCnfBuilder — the incremental path: feed clauses in
//     stream order as measurements arrive, and advance_watermark(day)
//     emits exactly the CNFs whose windows closed, so the resident
//     monitor analyzes each window as its day is drained (README
//     "Streaming ingest").
//
// Layout.  Every key component is a small dense integer, so grouping
// runs on flat arrays rather than node-based maps: a hash index maps
// (URL, anomaly) to a run of consecutive chains, one per configured
// granularity; each chain holds its open windows in ascending order
// (almost always one or two); each window group dedups its path ids in
// flat open-addressing sets.  CNF construction marks ASes in stamp
// arrays indexed by AS id instead of building per-CNF sets and maps.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sat/types.h"
#include "tomo/clause.h"
#include "util/flat_hash.h"

namespace ct::tomo {

struct CnfKey {
  std::int32_t url_id = 0;
  censor::Anomaly anomaly = censor::Anomaly::kDns;
  util::Granularity granularity = util::Granularity::kDay;
  std::int32_t window = 0;

  auto operator<=>(const CnfKey&) const = default;
};

/// The (URL, anomaly, granularity) stream a window CNF belongs to.
/// Consecutive windows of one chain are adjacent formulas — path churn
/// edits a few clauses per window, the rest carries over — which is
/// what the solver's delta-load path exploits (README "Delta loading").
struct ChainKey {
  std::int32_t url_id = 0;
  censor::Anomaly anomaly = censor::Anomaly::kDns;
  util::Granularity granularity = util::Granularity::kDay;

  auto operator<=>(const ChainKey&) const = default;
};

inline ChainKey chain_of(const CnfKey& key) {
  return ChainKey{key.url_id, key.anomaly, key.granularity};
}

/// A fully formed tomography SAT instance.
struct TomoCnf {
  CnfKey key;
  /// Variable index -> AS id.
  std::vector<topo::AsId> vars;
  sat::Cnf cnf;
  /// Deduplicated positive (anomaly-observed) paths, vantage first;
  /// retained for the leakage analysis.
  std::vector<std::vector<topo::AsId>> positive_paths;
  std::int32_t num_positive_clauses = 0;
  std::int32_t num_negative_units = 0;

  /// Variable of an AS, or -1 if the AS does not occur.
  sat::Var var_of(topo::AsId as) const;
};

struct CnfBuildOptions {
  /// Skip CNFs containing no positive clause.
  bool require_positive = true;
  /// Granularities to build (all four by default).
  std::vector<util::Granularity> granularities{util::Granularity::kDay,
                                               util::Granularity::kWeek,
                                               util::Granularity::kMonth,
                                               util::Granularity::kYear};
};

/// Incremental per-window CNF construction.
///
/// Clauses must be added in canonical stream order (ClauseBuilder's
/// serial emission order — ascending Measurement::seq); each add() files
/// the clause into one open (URL, anomaly, window) group per configured
/// granularity.  advance_watermark(day) declares every measurement with
/// m.day < day delivered, closes the windows that end at or before the
/// watermark, and returns their finished CNFs; flush() closes the rest.
///
/// Determinism contract: each call returns its batch sorted by CnfKey,
/// a window never reopens once emitted (a late add() throws), and the
/// concatenation of all emitted batches is, as a set, exactly what
/// build_cnfs() returns on the same stream — bit-identical CNFs, since
/// both run this class.  By default the builder owns a private
/// PathPool, so it can ingest clauses from any caller pool without
/// coordinating path ids.
class StreamingCnfBuilder {
 public:
  explicit StreamingCnfBuilder(CnfBuildOptions options = {});

  /// Borrowed-pool mode: every add() will come from `*pool`, whose ids
  /// are already canonical (equal id <=> equal path), so clauses are
  /// filed with no per-clause re-intern.  The pool must outlive the
  /// builder (appending to it is fine; renumbering is not).  Every
  /// production caller uses this mode — build_cnfs and the resident
  /// monitor (which interns each segment's clauses into one persistent
  /// pool, then borrows it).  The default owned-pool mode re-interns
  /// per add() for callers whose source pool ids are not canonical or
  /// not stable.
  StreamingCnfBuilder(CnfBuildOptions options, const PathPool* pool);

  /// Files `clause` (whose path_id resolves in `pool`) into its open
  /// window groups.  Throws std::logic_error if clause.day precedes the
  /// watermark — that window has already been emitted.
  void add(const PathPool& pool, const PathClause& clause);

  /// Raises the watermark to `complete_before` (no-op if not an
  /// increase) and emits the now-complete CNFs, sorted by key.  A window
  /// [start, start+len) is complete when start+len <= complete_before.
  std::vector<TomoCnf> advance_watermark(util::Day complete_before);

  /// Emits every still-open window, sorted by key, and raises the
  /// watermark past every representable day.  The result is exactly the
  /// complement of what advance_watermark() calls emitted.
  std::vector<TomoCnf> flush();

  /// Lowest day a new clause may still carry.
  util::Day watermark() const { return watermark_; }
  std::size_t open_windows() const { return open_groups_; }
  std::int64_t emitted() const { return emitted_; }

  /// Checkpoint support (analysis/checkpoint.h): persists the open
  /// window groups, watermark, and emitted count — NOT the options or
  /// the borrowed-pool binding, which are construction-time config the
  /// restoring caller must recreate identically (the checkpoint
  /// envelope's config fingerprint guards this).  In borrowed-pool mode
  /// the group path ids resolve in the borrowed pool, so the caller must
  /// save/load that pool alongside.  Groups are written in CnfKey order
  /// and id sets in ascending order, so the bytes are a pure function
  /// of the grouped stream.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  /// One open (URL, anomaly, granularity, window) group.
  struct Group {
    std::int32_t window = 0;
    /// Distinct positive path ids in first-occurrence order (positives
    /// keep stream order for the leakage analysis).
    std::vector<PathPool::PathId> positive_ids;
    util::FlatIdSet positive_seen;
    util::FlatIdSet negative_seen;
  };

  /// One (URL, anomaly, granularity) chain and its open windows,
  /// ascending by window.
  struct Chain {
    ChainKey key;
    std::vector<Group> open;
  };

  /// Index of the first of the grans_.size() consecutive chains of
  /// (url_id, anomaly), created on first sight.
  std::size_t chain_base(std::int32_t url_id, censor::Anomaly anomaly);
  /// The open group of `window` in `chain`, created on first sight.
  Group& group_of(Chain& chain, std::int32_t window);
  /// Builds, counts, and drops every open group whose window ends at or
  /// before `end_limit`, in CnfKey order.
  std::vector<TomoCnf> emit_closed(std::int64_t end_limit);
  TomoCnf build_group(const ChainKey& chain, const Group& group);
  /// Grows the AS-indexed scratch arrays to cover `as`.
  void cover_as(topo::AsId as);
  const PathPool& pool() const { return borrowed_pool_ ? *borrowed_pool_ : pool_; }

  CnfBuildOptions options_;
  /// options_.granularities, sorted and deduplicated.
  std::vector<util::Granularity> grans_;
  const PathPool* borrowed_pool_ = nullptr;
  PathPool pool_;  // used only when not borrowing
  std::vector<Chain> chains_;
  /// pack_ids(url_id, anomaly) -> chain_base.
  util::FlatIndex chain_index_;
  /// chains_ indices in ChainKey order.
  std::vector<std::size_t> chain_order_;
  std::size_t open_groups_ = 0;
  util::Day watermark_ = 0;
  std::int64_t emitted_ = 0;

  // build_group scratch, indexed by AS id.  A group (or clause) owns the
  // current stamp value, so starting the next one clears every mark in
  // O(1).
  std::vector<std::uint32_t> as_seen_;      // AS is a variable of the CNF
  std::vector<std::uint32_t> as_negative_;  // AS lies on a clean path
  std::vector<std::uint32_t> as_in_clause_; // AS already in this clause
  std::vector<sat::Var> var_of_as_;
  std::uint32_t group_stamp_ = 0;
  std::uint32_t clause_stamp_ = 0;
};

/// Groups clauses into per-(URL, anomaly, window) CNFs.  Output is
/// sorted by key, deterministic.  Implemented as a StreamingCnfBuilder
/// fed with the whole stream and flushed once.
std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options = {});

/// Maximal runs of consecutive same-chain CNFs in `cnfs`, as [begin,
/// end) index pairs covering the whole batch in order.  On key-sorted
/// batches (build_cnfs output) each run is one complete chain with its
/// windows in time order — the per-stream consecutive-window iteration
/// the delta scheduler hands to one solver arena.  Unsorted input just
/// yields shorter runs; nothing is reordered.
std::vector<std::pair<std::size_t, std::size_t>> chain_runs(const std::vector<TomoCnf>& cnfs);

/// Streaming form of Figure 4's churn ablation: keeps, per
/// (vantage, URL), only the clauses whose path equals the first path
/// observed for that pair — i.e., erases the effect of path churn.
/// Clauses must arrive in canonical stream order and resolve in one
/// interned pool (equal id <=> equal path; ids may only be appended, so
/// the recorded first-path ids stay valid).  Stateful and O(pairs);
/// both the batch strip_path_churn() and the resident monitor's
/// Figure-4 pass run on this filter.
class ChurnStripFilter {
 public:
  /// True iff `clause` survives the ablation.  Empty paths never do
  /// (and never become a pair's first path).
  bool keep(const PathPool& pool, const PathClause& clause);

  /// Checkpoint support: persists the recorded first-path ids (which
  /// resolve in the caller's pool — save/load that pool alongside), in
  /// ascending (vantage, URL) order.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  /// pack_ids(vantage, url_id) -> first path id.
  util::FlatIndex first_path_;
};

/// Figure 4's ablation filter: keeps, per (vantage, URL), only the
/// clauses whose path equals the first path observed for that pair —
/// i.e., erases the effect of path churn.  One ChurnStripFilter pass.
std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses);

}  // namespace ct::tomo
