// Path-churn measurement (paper Figure 3).
//
// PathChurnTracker attaches to the platform as a sink and records a
// compact signature of the BGP path for every (vantage, destination)
// pair at every routing epoch.  From those it computes, per time
// granularity, the distribution of the number of distinct paths a pair
// exhibits inside one window — the paper's Figure 3 — plus the
// churn-by-destination-class breakdown (the paper's null result).
//
// The tracker is an *incremental fold* (ChurnFold): observations land
// in per-(pair, window) distinct-signature sets, and retire_before()
// reduces every window the watermark has sealed into fixed-size
// accumulators (histogram / sample / changed counters) and drops its
// raw sets — so a streaming run retains O(pairs x open windows), not
// O(pairs x epochs of the whole run).  snapshot()/compute() are valid
// at any point and equal the batch computation over exactly the
// observations folded so far, sealed or not.
//
// Layout.  Pairs are dense indices and a pair shows one path in most
// windows, so the sets are flat: each granularity keeps its open
// windows in ascending order, each window a vector of (pair,
// signatures) entries in observation order plus a pair -> entry index
// allocated when the window opens, and each signature set holds its
// first signature inline.  Nothing is sized by windows x pairs up
// front; sealing pops whole windows off the front, O(sealed entries).
// A pair's repeat of its latest (day, signature) returns before any
// window is touched.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "iclab/platform.h"
#include "topo/as_graph.h"
#include "util/stats.h"
#include "util/timewin.h"

namespace ct::util {
class ByteWriter;
class ByteReader;
}  // namespace ct::util

namespace ct::analysis {

struct ChurnStats {
  /// Per granularity: histogram of distinct-path counts per
  /// (pair, window) sample — buckets 1..4 plus "5+".
  std::map<util::Granularity, util::BucketedCounts> distinct_paths;
  /// Per granularity: fraction of samples with >= 2 distinct paths.
  std::map<util::Granularity, double> changed_fraction;
  /// Year-window changed fraction split by destination AS class.
  std::map<topo::AsClass, double> changed_by_dest_class;
};

/// Collision-resistant signature of an AS path; 0 is reserved for
/// "no path" (unreachable) and never returned for a non-empty path.
std::uint64_t path_signature(const std::vector<topo::AsId>& path);

/// The incremental Figure-3 fold.  Observations are (pair, day,
/// signature) triples; windows at all four granularities accumulate
/// per-window distinct-signature sets, and retire_before() seals every
/// window ending at or before the watermark into scalar accumulators
/// (dropping the sets).  All statistics are sums and set unions, so the
/// result is independent of observation order and of where the seal
/// points fall — snapshot() after any retire_before() interleaving
/// equals the batch fold of the same observations.
class ChurnFold {
 public:
  ChurnFold(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
            std::vector<topo::AsId> dests, util::Day num_days,
            std::int32_t epochs_per_day);

  std::size_t num_pairs() const { return vantages_.size() * dests_.size(); }
  std::size_t pair_index(std::size_t vi, std::size_t di) const {
    return vi * dests_.size() + di;
  }

  static constexpr std::size_t kNoPair = std::numeric_limits<std::size_t>::max();
  /// Pair index of (vantage, dest), or kNoPair when the fold does not
  /// track either endpoint — the one endpoint lookup every on_path
  /// consumer shares (an AS listed twice resolves to its last index).
  std::size_t pair_of(topo::AsId vantage, topo::AsId dest) const;

  /// Records one non-empty-path signature for `pair` on `day`.  Throws
  /// std::logic_error if the day's windows were already sealed and
  /// std::out_of_range if `pair` is not below num_pairs().
  void observe(std::size_t pair, util::Day day, std::uint64_t signature);

  /// Seals every window ending at or before `complete_before` into the
  /// fixed-size accumulators and frees its raw signature sets.  Only a
  /// fold that sees the *whole* observation stream (the resident
  /// monitor's global fold) may seal mid-run: sealed folds cannot merge
  /// (a shard-local fold must stay unsealed so merge() can union windows
  /// that straddle shard boundaries).
  void retire_before(util::Day complete_before);
  util::Day retired_before() const { return retired_before_; }

  /// Folds `other` into this fold (set unions + accumulator sums).
  /// Associative and commutative; throws std::invalid_argument on
  /// geometry mismatch and std::logic_error if either side has sealed
  /// windows.
  void merge(ChurnFold&& other);

  /// Folds a still-unsealed fold into this possibly *sealed* fold —
  /// the resident monitor's segment absorption: a merged ingest
  /// segment's observations all land on days at or after this fold's
  /// seal point, so every window they touch is still open here and
  /// plain set union is sound.  Throws std::invalid_argument on
  /// geometry mismatch, std::logic_error if `other` has sealed windows
  /// or carries an observation in a window this fold already sealed.
  void absorb_unsealed(ChurnFold&& other);

  /// The Figure-3 statistics over everything observed so far (sealed
  /// accumulators plus still-open windows).
  ChurnStats snapshot() const;

  /// Distinct signatures seen for one pair over the whole run so far.
  std::int64_t distinct_of_pair(std::size_t pair) const {
    return static_cast<std::int64_t>(run_distinct_[pair].size());
  }

  bool same_geometry(const ChurnFold& other) const {
    return vantages_ == other.vantages_ && dests_ == other.dests_ &&
           num_days_ == other.num_days_ && epochs_per_day_ == other.epochs_per_day_;
  }

  const std::vector<topo::AsId>& vantages() const { return vantages_; }
  const std::vector<topo::AsId>& dests() const { return dests_; }
  util::Day num_days() const { return num_days_; }
  std::int32_t epochs_per_day() const { return epochs_per_day_; }

  /// Unsealed (pair, window) entries across all granularities — the
  /// fold's only run-length-sensitive state, O(pairs x open windows)
  /// once retire_before() tracks the watermark.
  std::size_t open_window_entries() const;

  /// Checkpoint support (analysis/checkpoint.h): persists everything
  /// except the graph pointer, geometry included.  load() requires this
  /// fold to have been constructed with the saved geometry (throws
  /// util::SerdeError on mismatch) — the graph reference is
  /// reconstruction-time config the checkpoint envelope fingerprints.
  /// Open entries are written in (window, pair) order and signature
  /// sets in ascending order.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  /// Distinct signatures: the first inline, the rest (rare — a pair
  /// shows a handful of paths at most) in a linearly scanned vector.
  class SigSet {
   public:
    /// True iff `sig` was not present.
    bool insert(std::uint64_t sig);
    void insert_all(const SigSet& other);
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::vector<std::uint64_t> sorted() const;

   private:
    std::uint32_t size_ = 0;
    std::uint64_t first_ = 0;
    std::vector<std::uint64_t> rest_;
  };

  struct Entry {
    std::uint32_t pair = 0;
    SigSet sigs;
  };

  /// One still-open window at one granularity.
  struct OpenWindow {
    std::int32_t window = 0;
    /// Per pair, its index in `entries` or -1; sized num_pairs() when
    /// the window opens.
    std::vector<std::int32_t> entry_of_pair;
    std::vector<Entry> entries;  // observation order
  };

  /// Sealed scalar accumulators + unsealed windows, per granularity.
  struct GranState {
    util::BucketedCounts counts{4};  // buckets 0..4 + "5+"; 0 never used
    std::int64_t samples = 0;
    std::int64_t changed = 0;
    /// Ascending by window, so retire_before() seals a prefix.
    std::vector<OpenWindow> open;
  };

  /// The open window `window` of granularity `gi`, created on first sight.
  OpenWindow& open_window(std::size_t gi, std::int32_t window);
  /// The signature set of `pair` in `win`, created on first sight.
  SigSet& sigs_of(OpenWindow& win, std::uint32_t pair);
  /// Unions `other`'s open windows and per-pair run sets into this fold.
  void union_open(const ChurnFold& other);

  const topo::AsGraph* graph_;
  std::vector<topo::AsId> vantages_;
  std::vector<topo::AsId> dests_;
  util::Day num_days_ = 0;
  std::int32_t epochs_per_day_ = 0;
  /// Index of each tracked endpoint, by AS id (-1: not tracked).
  std::vector<std::int32_t> vantage_slot_;
  std::vector<std::int32_t> dest_slot_;
  std::array<GranState, util::kAllGranularities.size()> grans_;
  /// Per-pair distinct signatures over the whole run (the Figure-3
  /// destination-class breakdown and distinct_paths_of_pair); bounded
  /// by the pair's distinct paths, not by run length.
  std::vector<SigSet> run_distinct_;
  /// Per pair, its latest observation.  A pair mostly repeats its path
  /// over a day's epochs, and a repeated (day, signature) is already in
  /// every set it would be added to, so observe() returns at once.
  struct LastObservation {
    std::uint64_t signature = 0;
    util::Day day = -1;
  };
  std::vector<LastObservation> last_;
  util::Day retired_before_ = 0;
};

class PathChurnTracker : public iclab::MeasurementSink {
 public:
  PathChurnTracker(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
                   std::vector<topo::AsId> dests, util::Day num_days,
                   std::int32_t epochs_per_day);

  void on_measurement(const iclab::Measurement&) override {}
  void on_path(util::Day day, std::int32_t epoch, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override;

  /// Folds a shard-local tracker into this one.  Both trackers must
  /// share geometry (vantages, destinations, days, epochs) and be
  /// unsealed; per-window signature sets are unioned, so the result is
  /// associative and commutative, with a fresh tracker as identity.
  void merge(PathChurnTracker&& other);

  /// Moves the fold out (the tracker is spent afterwards) — the
  /// resident monitor absorbs each merged segment tracker's fold into
  /// its global sealed fold via ChurnFold::absorb_unsealed().
  ChurnFold take_fold() { return std::move(fold_); }

  /// Computes the Figure-3 statistics from everything recorded so far.
  ChurnStats compute() const { return fold_.snapshot(); }

  /// Distinct (non-empty) paths for one pair over the whole run.
  std::int64_t distinct_paths_of_pair(topo::AsId vantage, topo::AsId dest) const;

  const ChurnFold& fold() const { return fold_; }

 private:
  ChurnFold fold_;
};

}  // namespace ct::analysis
