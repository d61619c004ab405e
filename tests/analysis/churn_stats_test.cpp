// Figure-3 churn: the PathChurnTracker sink, and the ChurnFold it runs
// on.  The ChurnFold fuzz drives the prefix-snapshot property through
// random observation streams and random retire/watermark interleavings,
// and checks the flat fold against the node-based fold it replaced
// (failing seeds print a CT_FUZZ_SEED replay line).
#include "analysis/churn_stats.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/fuzz_seed.h"
#include "expect_churn.h"
#include "topo/generator.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::analysis {
namespace {

topo::AsGraph tiny_graph() {
  topo::TopologyConfig cfg;
  cfg.num_ases = 30;
  cfg.num_tier1 = 2;
  cfg.num_transit = 6;
  cfg.num_countries = 4;
  return topo::generate_topology(cfg, 2);
}

TEST(PathChurnTracker, CountsDistinctPathsPerWindow) {
  const auto g = tiny_graph();
  const std::vector<topo::AsId> vps{10};
  const std::vector<topo::AsId> dests{20};
  // 14 days, 1 epoch each.
  PathChurnTracker tracker(g, vps, dests, 14, 1);
  // Week 0: path A all days.  Week 1: alternates A/B.
  const std::vector<topo::AsId> path_a{10, 5, 20};
  const std::vector<topo::AsId> path_b{10, 6, 20};
  for (util::Day d = 0; d < 7; ++d) tracker.on_path(d, 0, 10, 20, path_a);
  for (util::Day d = 7; d < 14; ++d) tracker.on_path(d, 0, 10, 20, d % 2 ? path_a : path_b);

  const ChurnStats stats = tracker.compute();
  // Day windows: 14 samples, all with exactly 1 path.
  const auto& day = stats.distinct_paths.at(util::Granularity::kDay);
  EXPECT_EQ(day.total(), 14);
  EXPECT_EQ(day.count(1), 14);
  EXPECT_DOUBLE_EQ(stats.changed_fraction.at(util::Granularity::kDay), 0.0);
  // Week windows: week 0 has 1 distinct, week 1 has 2.
  const auto& week = stats.distinct_paths.at(util::Granularity::kWeek);
  EXPECT_EQ(week.total(), 2);
  EXPECT_EQ(week.count(1), 1);
  EXPECT_EQ(week.count(2), 1);
  EXPECT_DOUBLE_EQ(stats.changed_fraction.at(util::Granularity::kWeek), 0.5);
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 2);
}

TEST(PathChurnTracker, IntradayChurnVisibleWithEpochs) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 1, 3);
  tracker.on_path(0, 0, 10, 20, {10, 5, 20});
  tracker.on_path(0, 1, 10, 20, {10, 6, 20});
  tracker.on_path(0, 2, 10, 20, {10, 5, 20});
  const ChurnStats stats = tracker.compute();
  EXPECT_DOUBLE_EQ(stats.changed_fraction.at(util::Granularity::kDay), 1.0);
  EXPECT_EQ(stats.distinct_paths.at(util::Granularity::kDay).count(2), 1);
}

TEST(PathChurnTracker, UnreachableEpochsSkipped) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 2, 1);
  tracker.on_path(0, 0, 10, 20, {});  // unreachable
  tracker.on_path(1, 0, 10, 20, {10, 5, 20});
  const ChurnStats stats = tracker.compute();
  // Day 0 has no observation: only one day sample.
  EXPECT_EQ(stats.distinct_paths.at(util::Granularity::kDay).total(), 1);
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 1);
}

TEST(PathChurnTracker, UnknownPairsIgnored) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 1, 1);
  tracker.on_path(0, 0, 11, 20, {11, 20});  // unknown vantage
  tracker.on_path(0, 0, 10, 21, {10, 21});  // unknown dest
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 0);
  EXPECT_EQ(tracker.distinct_paths_of_pair(11, 20), 0);
}

TEST(PathChurnTracker, OutOfRangeSlotsIgnored) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 1, 1);
  tracker.on_path(5, 0, 10, 20, {10, 20});   // day out of range
  tracker.on_path(0, 3, 10, 20, {10, 20});   // epoch out of range
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 0);
}

TEST(PathChurnTracker, ChurnByDestClass) {
  const auto g = tiny_graph();
  // Pick two stub dests of different classes if available; fall back to
  // same class (the test then only checks totals).
  const auto stubs = g.ases_with_tier(topo::AsTier::kStub);
  ASSERT_GE(stubs.size(), 2u);
  const topo::AsId d1 = stubs[0], d2 = stubs[1];
  PathChurnTracker tracker(g, {10}, {d1, d2}, 2, 1);
  // d1: stable path; d2: changes.
  tracker.on_path(0, 0, 10, d1, {10, d1});
  tracker.on_path(1, 0, 10, d1, {10, d1});
  tracker.on_path(0, 0, 10, d2, {10, d2});
  tracker.on_path(1, 0, 10, d2, {10, 5, d2});
  const ChurnStats stats = tracker.compute();
  double sum = 0.0;
  std::int64_t classes = 0;
  for (const auto& [cls, frac] : stats.changed_by_dest_class) {
    sum += frac;
    ++classes;
  }
  ASSERT_GE(classes, 1);
  EXPECT_GT(sum, 0.0);  // at least one class saw churn
}

// --- ChurnFold ---------------------------------------------------------

using test::expect_churn_equal;

TEST(ChurnFoldFuzz, SnapshotsMatchUnsealedFoldUnderRandomRetireInterleavings) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260731);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 21, 25};
  constexpr util::Day kDays = 5 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ChurnFold fold(graph, vantages, dests, kDays, 3);
    std::vector<std::tuple<std::size_t, util::Day, std::uint64_t>> observed;
    util::Day retired = 0;

    auto check_snapshot = [&] {
      ChurnFold reference(graph, vantages, dests, kDays, 3);
      for (const auto& [pair, day, sig] : observed) reference.observe(pair, day, sig);
      expect_churn_equal(fold.snapshot(), reference.snapshot());
      for (std::size_t p = 0; p < fold.num_pairs(); ++p) {
        EXPECT_EQ(fold.distinct_of_pair(p), reference.distinct_of_pair(p));
      }
    };

    // A day-ascending observation stream with random density, random
    // signature reuse, and random retire points — every snapshot along
    // the way must equal the unsealed batch fold of the same prefix.
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 6);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair = static_cast<std::size_t>(
            rng.index(vantages.size() * dests.size()));
        // Small signature alphabet: windows frequently see repeats (the
        // distinct-set dedup path) and occasionally 5+ distinct values
        // (the histogram overflow bucket).
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
        fold.observe(pair, day, sig);
        observed.emplace_back(pair, day, sig);
      }
      if (rng.bernoulli(0.4)) {
        // Any watermark at or below the current day is legal, including
        // replays of old ones (monotone no-op).
        const auto target = static_cast<util::Day>(rng.uniform_int(0, day));
        fold.retire_before(target);
        retired = std::max(retired, target);
        EXPECT_EQ(fold.retired_before(), retired);
      }
      if (rng.bernoulli(0.25)) check_snapshot();
    }
    fold.retire_before(kDays);
    check_snapshot();
    // Month/year windows extend past the run, so they are still open at
    // the end-of-run watermark; sealing past the year boundary drains
    // every unsealed window without changing the snapshot.
    EXPECT_GT(fold.open_window_entries(), 0u);
    fold.retire_before(util::kDaysPerYear);
    check_snapshot();
    EXPECT_EQ(fold.open_window_entries(), 0u);
  }
}

TEST(ChurnFoldFuzz, ShardedMergeMatchesSerialFoldOnRandomStreams) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260732);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 25};
  constexpr util::Day kDays = 3 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    // A random day split: windows straddle the boundary, so the merge
    // must union partial windows, not just concatenate.
    const auto split = static_cast<util::Day>(rng.uniform_int(1, kDays - 1));
    ChurnFold serial(graph, vantages, dests, kDays, 3);
    ChurnFold left(graph, vantages, dests, kDays, 3);
    ChurnFold right(graph, vantages, dests, kDays, 3);
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair =
            static_cast<std::size_t>(rng.index(vantages.size() * dests.size()));
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
        serial.observe(pair, day, sig);
        (day < split ? left : right).observe(pair, day, sig);
      }
    }
    ChurnFold merged(left);
    merged.merge(std::move(right));
    expect_churn_equal(merged.snapshot(), serial.snapshot());

    // Sealed folds refuse to merge: the same window may be open on the
    // other side.
    left.retire_before(split);
    ChurnFold other(graph, vantages, dests, kDays, 3);
    EXPECT_THROW(left.merge(std::move(other)), std::logic_error);
  }
}

/// The node-based fold ChurnFold's flat layout replaced, kept as the
/// oracle: one std::map<(window, pair), std::set<signature>> per
/// granularity, std::set per-pair run sets, the same sealed
/// accumulators, and the util::save_map/save_set checkpoint encoding.
class ReferenceChurnFold {
 public:
  ReferenceChurnFold(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
                     std::vector<topo::AsId> dests, util::Day num_days,
                     std::int32_t epochs_per_day)
      : graph_(graph),
        vantages_(std::move(vantages)),
        dests_(std::move(dests)),
        num_days_(num_days),
        epochs_per_day_(epochs_per_day),
        run_distinct_(vantages_.size() * dests_.size()) {}

  void observe(std::size_t pair, util::Day day, std::uint64_t sig) {
    ASSERT_GE(day, retired_before_);
    for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
      const std::int32_t window = util::window_of(day, util::kAllGranularities[gi]);
      grans_[gi].open[{window, static_cast<std::uint32_t>(pair)}].insert(sig);
    }
    run_distinct_[pair].insert(sig);
  }

  void retire_before(util::Day complete_before) {
    if (complete_before <= retired_before_) return;
    retired_before_ = complete_before;
    for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
      const util::Granularity g = util::kAllGranularities[gi];
      Gran& gran = grans_[gi];
      auto it = gran.open.begin();
      while (it != gran.open.end() &&
             util::window_start(it->first.first, g) + util::window_length(g) <= complete_before) {
        const auto distinct = static_cast<std::int64_t>(it->second.size());
        gran.counts.add(distinct);
        ++gran.samples;
        gran.changed += distinct >= 2 ? 1 : 0;
        it = gran.open.erase(it);
      }
    }
  }

  /// merge() and absorb_unsealed() both reduce to set unions once their
  /// preconditions hold.
  void union_with(const ReferenceChurnFold& other) {
    for (std::size_t gi = 0; gi < grans_.size(); ++gi) {
      for (const auto& [key, sigs] : other.grans_[gi].open) {
        grans_[gi].open[key].insert(sigs.begin(), sigs.end());
      }
    }
    for (std::size_t p = 0; p < run_distinct_.size(); ++p) {
      run_distinct_[p].insert(other.run_distinct_[p].begin(), other.run_distinct_[p].end());
    }
  }

  ChurnStats snapshot() const {
    ChurnStats stats;
    for (std::size_t gi = 0; gi < grans_.size(); ++gi) {
      const util::Granularity g = util::kAllGranularities[gi];
      util::BucketedCounts counts = grans_[gi].counts;
      std::int64_t samples = grans_[gi].samples;
      std::int64_t changed = grans_[gi].changed;
      for (const auto& [key, sigs] : grans_[gi].open) {
        const auto distinct = static_cast<std::int64_t>(sigs.size());
        counts.add(distinct);
        ++samples;
        changed += distinct >= 2 ? 1 : 0;
      }
      stats.changed_fraction[g] =
          samples == 0 ? 0.0 : static_cast<double>(changed) / static_cast<double>(samples);
      stats.distinct_paths.emplace(g, std::move(counts));
    }
    std::map<topo::AsClass, std::pair<std::int64_t, std::int64_t>> by_class;
    for (std::size_t vi = 0; vi < vantages_.size(); ++vi) {
      for (std::size_t di = 0; di < dests_.size(); ++di) {
        const auto& distinct = run_distinct_[vi * dests_.size() + di];
        if (distinct.empty()) continue;
        auto& [chg, tot] = by_class[graph_.as_info(dests_[di]).cls];
        ++tot;
        chg += distinct.size() >= 2 ? 1 : 0;
      }
    }
    for (const auto& [cls, counts] : by_class) {
      stats.changed_by_dest_class[cls] =
          static_cast<double>(counts.first) / static_cast<double>(counts.second);
    }
    return stats;
  }

  std::int64_t distinct_of_pair(std::size_t pair) const {
    return static_cast<std::int64_t>(run_distinct_[pair].size());
  }

  std::size_t open_window_entries() const {
    std::size_t n = 0;
    for (const Gran& gran : grans_) n += gran.open.size();
    return n;
  }

  /// The checkpoint bytes the node-based fold wrote.
  std::string save_bytes() const {
    util::ByteWriter w;
    const auto save_as = [](util::ByteWriter& w, topo::AsId as) { w.i32(as); };
    const auto save_sigs = [](util::ByteWriter& w, const std::set<std::uint64_t>& sigs) {
      util::save_set(w, sigs, [](util::ByteWriter& w, std::uint64_t s) { w.u64(s); });
    };
    util::save_vec(w, vantages_, save_as);
    util::save_vec(w, dests_, save_as);
    w.i32(num_days_);
    w.i32(epochs_per_day_);
    for (const Gran& gran : grans_) {
      gran.counts.save(w);
      w.i64(gran.samples);
      w.i64(gran.changed);
      util::save_map(
          w, gran.open,
          [](util::ByteWriter& w, const std::pair<std::int32_t, std::uint32_t>& key) {
            w.i32(key.first);
            w.u32(key.second);
          },
          save_sigs);
    }
    util::save_vec(w, run_distinct_, save_sigs);
    w.i32(retired_before_);
    return w.take();
  }

 private:
  struct Gran {
    util::BucketedCounts counts{4};
    std::int64_t samples = 0;
    std::int64_t changed = 0;
    std::map<std::pair<std::int32_t, std::uint32_t>, std::set<std::uint64_t>> open;
  };

  const topo::AsGraph& graph_;
  std::vector<topo::AsId> vantages_;
  std::vector<topo::AsId> dests_;
  util::Day num_days_;
  std::int32_t epochs_per_day_;
  std::array<Gran, util::kAllGranularities.size()> grans_;
  std::vector<std::set<std::uint64_t>> run_distinct_;
  util::Day retired_before_ = 0;
};

std::string fold_bytes(const ChurnFold& fold) {
  util::ByteWriter w;
  fold.save(w);
  return w.take();
}

TEST(ChurnFoldFuzz, FlatFoldMatchesSetReference) {
  const std::uint64_t seed = ct::test::fuzz_seed(20261019);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10, 12};
  const std::vector<topo::AsId> dests{20, 21, 25, 28};
  constexpr std::size_t kPairs = 12;
  constexpr std::int32_t kEpochs = 3;

  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto days = static_cast<util::Day>(rng.uniform_int(1, 2 * util::kDaysPerYear));
    ChurnFold fold(graph, vantages, dests, days, kEpochs);
    ReferenceChurnFold reference(graph, vantages, dests, days, kEpochs);
    util::Day retired = 0;

    // A signature alphabet small enough for repeats and 5+ buckets, with
    // the odd full-width value.
    const auto random_sig = [&] {
      return rng.bernoulli(0.05) ? rng() | 1 : static_cast<std::uint64_t>(rng.uniform_int(1, 7));
    };
    // Observations on days >= `from`, jittered so windows open out of
    // order.
    const auto fill = [&](ChurnFold& f, ReferenceChurnFold& ref, util::Day from, int n) {
      for (int k = 0; k < n; ++k) {
        const std::size_t pair = rng.index(kPairs);
        const util::Day day = from + static_cast<util::Day>(rng.uniform_int(0, 40));
        const std::uint64_t sig = random_sig();
        f.observe(pair, day, sig);
        ref.observe(pair, day, sig);
      }
    };
    const auto check = [&] {
      ASSERT_EQ(fold_bytes(fold), reference.save_bytes());
      expect_churn_equal(fold.snapshot(), reference.snapshot());
      EXPECT_EQ(fold.open_window_entries(), reference.open_window_entries());
      for (std::size_t p = 0; p < kPairs; ++p) {
        EXPECT_EQ(fold.distinct_of_pair(p), reference.distinct_of_pair(p));
      }
    };

    for (int step = 0; step < 120; ++step) {
      const double op = rng.uniform();
      if (op < 0.55) {
        fill(fold, reference, retired, 1);
      } else if (op < 0.7) {
        const util::Day target = retired + static_cast<util::Day>(rng.uniform_int(-2, 30));
        fold.retire_before(target);
        reference.retire_before(target);
        retired = std::max(retired, target);
      } else if (op < 0.8) {
        // Resident-monitor segment absorption: an unsealed fold of days
        // at or after the seal point.
        ChurnFold segment(graph, vantages, dests, days, kEpochs);
        ReferenceChurnFold segment_ref(graph, vantages, dests, days, kEpochs);
        fill(segment, segment_ref, retired, static_cast<int>(rng.uniform_int(0, 20)));
        fold.absorb_unsealed(std::move(segment));
        reference.union_with(segment_ref);
      } else if (op < 0.87) {
        // Shard merge: only unsealed folds merge.
        ChurnFold shard(graph, vantages, dests, days, kEpochs);
        ReferenceChurnFold shard_ref(graph, vantages, dests, days, kEpochs);
        fill(shard, shard_ref, 0, static_cast<int>(rng.uniform_int(0, 20)));
        if (retired == 0) {
          fold.merge(std::move(shard));
          reference.union_with(shard_ref);
        } else {
          EXPECT_THROW(fold.merge(std::move(shard)), std::logic_error);
        }
      } else if (op < 0.9 && retired > 0) {
        // A segment reaching into a sealed window is refused, and the
        // refusal leaves the fold untouched.
        ChurnFold late(graph, vantages, dests, days, kEpochs);
        late.observe(rng.index(kPairs), retired + 1, random_sig());
        late.observe(rng.index(kPairs), retired - 1, random_sig());
        const std::string before = fold_bytes(fold);
        EXPECT_THROW(fold.absorb_unsealed(std::move(late)), std::logic_error);
        EXPECT_EQ(fold_bytes(fold), before);
      } else if (op < 0.95) {
        // Checkpoint round trip, then carry on with the restored fold.
        const std::string bytes = fold_bytes(fold);
        ChurnFold restored(graph, vantages, dests, days, kEpochs);
        util::ByteReader r(bytes);
        restored.load(r);
        r.expect_end();
        fold = std::move(restored);
      } else {
        check();
      }
    }
    check();
    fold.retire_before(std::numeric_limits<util::Day>::max());
    reference.retire_before(std::numeric_limits<util::Day>::max());
    check();
    EXPECT_EQ(fold.open_window_entries(), 0u);
  }
}

TEST(ChurnFold, LateObservationAfterSealThrows) {
  const topo::AsGraph graph = tiny_graph();
  ChurnFold fold(graph, {3}, {20}, 14, 1);
  fold.observe(0, 3, 42);
  fold.retire_before(4);
  EXPECT_THROW(fold.observe(0, 3, 43), std::logic_error);
  fold.observe(0, 4, 43);  // at the watermark: still open
}

}  // namespace
}  // namespace ct::analysis
