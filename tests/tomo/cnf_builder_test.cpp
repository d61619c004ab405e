#include "tomo/cnf_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "../support/fuzz_seed.h"
#include "sat/dimacs.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::tomo {
namespace {

PathClause make_clause(PathPool& pool, std::vector<topo::AsId> path, bool observed,
                       std::int32_t url = 0, util::Day day = 0,
                       censor::Anomaly anomaly = censor::Anomaly::kDns,
                       topo::AsId vantage = 99) {
  PathClause c;
  c.path_id = pool.intern(path);
  c.url_id = url;
  c.vantage = vantage;
  c.day = day;
  c.anomaly = anomaly;
  c.observed = observed;
  return c;
}

CnfBuildOptions day_only() {
  CnfBuildOptions o;
  o.granularities = {util::Granularity::kDay};
  return o;
}

TEST(CnfBuilder, PaperExampleStructure) {
  // (X v Y v Z) = T from a censored path; clean paths eliminate X and Y.
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2, 3}, true),
      make_clause(pool, {1, 4}, false),
      make_clause(pool, {2, 4}, false),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 1u);
  const TomoCnf& tc = cnfs[0];
  EXPECT_EQ(tc.vars, (std::vector<topo::AsId>{1, 2, 3, 4}));
  EXPECT_EQ(tc.num_positive_clauses, 1);
  EXPECT_EQ(tc.num_negative_units, 3);  // ASes 1, 2, 4 seen clean
  EXPECT_EQ(tc.cnf.num_vars, 4);
  EXPECT_EQ(tc.cnf.clauses.size(), 4u);
  ASSERT_EQ(tc.positive_paths.size(), 1u);
  EXPECT_EQ(tc.positive_paths[0], (std::vector<topo::AsId>{1, 2, 3}));
  EXPECT_EQ(tc.var_of(3), 2);
  EXPECT_EQ(tc.var_of(42), -1);
}

TEST(CnfBuilder, RequirePositiveSkipsAllCleanGroups) {
  PathPool pool;
  std::vector<PathClause> clauses{make_clause(pool, {1, 2}, false)};
  EXPECT_TRUE(build_cnfs(pool, clauses, day_only()).empty());
  CnfBuildOptions keep = day_only();
  keep.require_positive = false;
  const auto cnfs = build_cnfs(pool, clauses, keep);
  ASSERT_EQ(cnfs.size(), 1u);
  EXPECT_EQ(cnfs[0].num_positive_clauses, 0);
  EXPECT_EQ(cnfs[0].num_negative_units, 2);
}

TEST(CnfBuilder, SplitsByUrl) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, true, /*url=*/0),
      make_clause(pool, {1, 2}, true, /*url=*/1),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 2u);
  EXPECT_EQ(cnfs[0].key.url_id, 0);
  EXPECT_EQ(cnfs[1].key.url_id, 1);
}

TEST(CnfBuilder, SplitsByAnomaly) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, true, 0, 0, censor::Anomaly::kDns),
      make_clause(pool, {1, 2}, true, 0, 0, censor::Anomaly::kRst),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 2u);
  EXPECT_NE(cnfs[0].key.anomaly, cnfs[1].key.anomaly);
}

TEST(CnfBuilder, SplitsByWindowPerGranularity) {
  PathPool pool;
  // Two observations nine days apart: distinct day and week windows,
  // same month window.
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, true, 0, /*day=*/0),
      make_clause(pool, {1, 3}, true, 0, /*day=*/9),
  };
  CnfBuildOptions all;
  const auto cnfs = build_cnfs(pool, clauses, all);
  int day_cnfs = 0, week_cnfs = 0, month_cnfs = 0, year_cnfs = 0;
  for (const auto& tc : cnfs) {
    switch (tc.key.granularity) {
      case util::Granularity::kDay: ++day_cnfs; break;
      case util::Granularity::kWeek: ++week_cnfs; break;
      case util::Granularity::kMonth: ++month_cnfs; break;
      case util::Granularity::kYear: ++year_cnfs; break;
    }
  }
  EXPECT_EQ(day_cnfs, 2);
  EXPECT_EQ(week_cnfs, 2);
  EXPECT_EQ(month_cnfs, 1);
  EXPECT_EQ(year_cnfs, 1);
  // The month CNF pools both positive paths.
  for (const auto& tc : cnfs) {
    if (tc.key.granularity == util::Granularity::kMonth) {
      EXPECT_EQ(tc.num_positive_clauses, 2);
      EXPECT_EQ(tc.vars, (std::vector<topo::AsId>{1, 2, 3}));
    }
  }
}

TEST(CnfBuilder, DeduplicatesRepeatedConstraints) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2, 3}, true),
      make_clause(pool, {1, 2, 3}, true),   // same positive path again
      make_clause(pool, {1, 4}, false),
      make_clause(pool, {1, 4}, false),     // same clean path again
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 1u);
  EXPECT_EQ(cnfs[0].num_positive_clauses, 1);
  EXPECT_EQ(cnfs[0].num_negative_units, 2);  // ¬1, ¬4
}

TEST(CnfBuilder, SkipsEmptyPaths) {
  PathPool pool;
  std::vector<PathClause> clauses{make_clause(pool, {}, true)};
  // An empty positive path contributes nothing; group has a positive
  // marker with no literals — skip entirely.
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  // One group exists with an empty positive path; its CNF has an empty
  // clause, making it trivially UNSAT.  We verify build doesn't crash
  // and the var set is empty.
  for (const auto& tc : cnfs) {
    EXPECT_TRUE(tc.vars.empty());
  }
}

TEST(CnfBuilder, DuplicateAsOnPathYieldsOneLiteral) {
  PathPool pool;
  std::vector<PathClause> clauses{make_clause(pool, {1, 2, 1}, true)};
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 1u);
  ASSERT_EQ(cnfs[0].cnf.clauses.size(), 1u);
  EXPECT_EQ(cnfs[0].cnf.clauses[0].size(), 2u);
}

TEST(CnfBuilder, OutputSortedByKey) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1}, true, 2, 5),
      make_clause(pool, {1}, true, 0, 3),
      make_clause(pool, {1}, true, 1, 1),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(cnfs.begin(), cnfs.end(),
                             [](const TomoCnf& a, const TomoCnf& b) { return a.key < b.key; }));
}

TEST(StripPathChurn, KeepsOnlyFirstPathPerVantageUrl) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, false, 0, 0, censor::Anomaly::kDns, /*vantage=*/7),
      make_clause(pool, {1, 3}, true, 0, 1, censor::Anomaly::kDns, /*vantage=*/7),  // churned
      make_clause(pool, {1, 2}, true, 0, 2, censor::Anomaly::kDns, /*vantage=*/7),  // back
      make_clause(pool, {4, 2}, false, 0, 0, censor::Anomaly::kDns, /*vantage=*/8),
  };
  const auto stripped = strip_path_churn(pool, clauses);
  ASSERT_EQ(stripped.size(), 3u);
  EXPECT_EQ(pool.get(stripped[0].path_id), (std::vector<topo::AsId>{1, 2}));
  EXPECT_EQ(pool.get(stripped[1].path_id), (std::vector<topo::AsId>{1, 2}));
  EXPECT_EQ(stripped[1].day, 2);
  EXPECT_EQ(stripped[2].vantage, 8);
}

TEST(StripPathChurn, DifferentUrlsTrackedSeparately) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, false, /*url=*/0, 0, censor::Anomaly::kDns, 7),
      make_clause(pool, {1, 3}, false, /*url=*/1, 0, censor::Anomaly::kDns, 7),
  };
  EXPECT_EQ(strip_path_churn(pool, clauses).size(), 2u);
}

// --- CnfBuilderFuzz: flat grouper vs a node-based reference ---------------

/// The node-based grouping algorithm StreamingCnfBuilder's flat layout
/// replaced, kept as the oracle: std::map groups keyed by CnfKey,
/// std::set dedup, per-CNF std::set/std::map variable numbering, and
/// the util::save_map/save_set checkpoint encoding.
class ReferenceGrouper {
 public:
  ReferenceGrouper(CnfBuildOptions options, bool owned)
      : options_(std::move(options)), owned_(owned) {}

  void add(const PathPool& pool, const PathClause& clause) {
    ASSERT_GE(clause.day, watermark_);
    const PathPool::PathId id = owned_ ? pool_.intern(pool.get(clause.path_id)) : clause.path_id;
    for (const util::Granularity g : options_.granularities) {
      const CnfKey key{clause.url_id, clause.anomaly, g, util::window_of(clause.day, g)};
      Group& group = groups_[key];
      if (clause.observed) {
        if (group.positive_seen.insert(id).second) group.positive_ids.push_back(id);
      } else {
        group.negative_seen.insert(id);
      }
    }
  }

  std::vector<TomoCnf> advance_watermark(const PathPool& pool, util::Day complete_before) {
    std::vector<TomoCnf> out;
    if (complete_before <= watermark_) return out;
    watermark_ = complete_before;
    for (auto it = groups_.begin(); it != groups_.end();) {
      const util::Day end = util::window_start(it->first.window, it->first.granularity) +
                            util::window_length(it->first.granularity);
      if (end > watermark_) {
        ++it;
        continue;
      }
      if (!options_.require_positive || !it->second.positive_ids.empty()) {
        out.push_back(build_group(pool, it->first, it->second));
        ++emitted_;
      }
      it = groups_.erase(it);
    }
    return out;
  }

  std::vector<TomoCnf> flush(const PathPool& pool) {
    std::vector<TomoCnf> out;
    for (const auto& [key, group] : groups_) {
      if (options_.require_positive && group.positive_ids.empty()) continue;
      out.push_back(build_group(pool, key, group));
      ++emitted_;
    }
    groups_.clear();
    watermark_ = std::numeric_limits<util::Day>::max();
    return out;
  }

  std::size_t open_windows() const { return groups_.size(); }

  /// The checkpoint bytes the node-based builder wrote.
  std::string save_bytes() const {
    util::ByteWriter w;
    pool_.save(w);
    const auto save_id = [](util::ByteWriter& w, PathPool::PathId id) { w.i32(id); };
    util::save_map(
        w, groups_,
        [](util::ByteWriter& w, const CnfKey& key) {
          w.i32(key.url_id);
          w.u8(static_cast<std::uint8_t>(key.anomaly));
          w.u8(static_cast<std::uint8_t>(key.granularity));
          w.i32(key.window);
        },
        [&](util::ByteWriter& w, const Group& group) {
          util::save_vec(w, group.positive_ids, save_id);
          util::save_set(w, group.positive_seen, save_id);
          util::save_set(w, group.negative_seen, save_id);
        });
    w.i32(watermark_);
    w.i64(emitted_);
    return w.take();
  }

 private:
  struct Group {
    std::vector<PathPool::PathId> positive_ids;
    std::set<PathPool::PathId> positive_seen;
    std::set<PathPool::PathId> negative_seen;
  };

  TomoCnf build_group(const PathPool& caller_pool, const CnfKey& key, const Group& group) const {
    const PathPool& paths = owned_ ? pool_ : caller_pool;
    TomoCnf tc;
    tc.key = key;
    std::set<topo::AsId> negative_ases;
    for (const auto id : group.negative_seen) {
      const auto& path = paths.get(id);
      negative_ases.insert(path.begin(), path.end());
    }
    std::set<topo::AsId> as_set = negative_ases;
    for (const auto id : group.positive_ids) {
      const auto& path = paths.get(id);
      as_set.insert(path.begin(), path.end());
    }
    tc.vars.assign(as_set.begin(), as_set.end());
    std::map<topo::AsId, sat::Var> var_of;
    for (std::size_t v = 0; v < tc.vars.size(); ++v) {
      var_of[tc.vars[v]] = static_cast<sat::Var>(v);
    }
    tc.cnf.num_vars = static_cast<std::int32_t>(tc.vars.size());
    for (const topo::AsId as : negative_ases) {
      tc.cnf.add_clause({sat::Lit(var_of[as], /*negated=*/true)});
      ++tc.num_negative_units;
    }
    for (const auto id : group.positive_ids) {
      const auto& path = paths.get(id);
      std::vector<sat::Lit> lits;
      std::set<sat::Var> seen;
      for (const topo::AsId as : path) {
        const sat::Var v = var_of[as];
        if (seen.insert(v).second) lits.emplace_back(v, /*negated=*/false);
      }
      tc.cnf.add_clause(std::move(lits));
      ++tc.num_positive_clauses;
      tc.positive_paths.push_back(path);
    }
    return tc;
  }

  CnfBuildOptions options_;
  bool owned_;
  PathPool pool_;
  std::map<CnfKey, Group> groups_;
  util::Day watermark_ = 0;
  std::int64_t emitted_ = 0;
};

void expect_same_batch(const std::vector<TomoCnf>& got, const std::vector<TomoCnf>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("cnf " + std::to_string(i));
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].vars, want[i].vars);
    EXPECT_EQ(got[i].positive_paths, want[i].positive_paths);
    EXPECT_EQ(got[i].num_positive_clauses, want[i].num_positive_clauses);
    EXPECT_EQ(got[i].num_negative_units, want[i].num_negative_units);
    EXPECT_EQ(sat::to_dimacs_string(got[i].cnf), sat::to_dimacs_string(want[i].cnf));
  }
}

/// A random path: length 0..6 over a small AS alphabet, so paths repeat
/// (duplicate ids), share ASes, and repeat an AS within one path.
std::vector<topo::AsId> random_path(util::Rng& rng) {
  std::vector<topo::AsId> path(static_cast<std::size_t>(rng.uniform_int(0, 6)));
  for (topo::AsId& as : path) as = static_cast<topo::AsId>(rng.uniform_int(0, 24));
  return path;
}

CnfBuildOptions random_options(util::Rng& rng) {
  CnfBuildOptions options;
  options.require_positive = rng.bernoulli(0.5);
  options.granularities.clear();
  for (const util::Granularity g : util::kAllGranularities) {
    if (rng.bernoulli(0.6)) options.granularities.push_back(g);
  }
  rng.shuffle(options.granularities);
  return options;
}

TEST(CnfBuilderFuzz, RandomStreamsMatchNodeBasedReference) {
  const std::uint64_t seed = ct::test::fuzz_seed(20261018);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const std::vector<std::int32_t> urls{0, 1, 2, 7, -3, 1 << 20};

  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const CnfBuildOptions options = random_options(rng);
    const bool owned = rng.bernoulli(0.3);
    PathPool pool;
    // Owned-pool mode re-interns per add(); the caller pool's ids need
    // not be canonical there, so seed it with paths the stream may never
    // use.
    if (owned) {
      for (int k = 0; k < 5; ++k) pool.intern(random_path(rng));
    }
    StreamingCnfBuilder builder = owned ? StreamingCnfBuilder(options)
                                        : StreamingCnfBuilder(options, &pool);
    ReferenceGrouper reference(options, owned);

    util::Day watermark = 0;
    const auto clauses = static_cast<int>(rng.uniform_int(0, 400));
    for (int c = 0; c < clauses; ++c) {
      PathClause clause;
      clause.path_id = pool.intern(random_path(rng));
      clause.url_id = urls[rng.index(urls.size())];
      clause.vantage = static_cast<topo::AsId>(rng.uniform_int(0, 5));
      // Mostly day-ascending with jitter: windows are opened out of
      // order too.
      clause.day = watermark + static_cast<util::Day>(rng.uniform_int(0, 40));
      clause.anomaly = censor::kAllAnomalies[rng.index(censor::kAllAnomalies.size())];
      clause.observed = rng.bernoulli(0.4);
      builder.add(pool, clause);
      reference.add(pool, clause);
      ASSERT_EQ(builder.open_windows(), reference.open_windows());

      if (rng.bernoulli(0.05)) {
        // Any cut point, including a replay of an older watermark.
        const util::Day cut = watermark + static_cast<util::Day>(rng.uniform_int(-3, 30));
        expect_same_batch(builder.advance_watermark(cut), reference.advance_watermark(pool, cut));
        watermark = std::max(watermark, cut);
        ASSERT_EQ(builder.watermark(), watermark);
        ASSERT_EQ(builder.open_windows(), reference.open_windows());
      }
      if (rng.bernoulli(0.02)) {
        // Checkpoint: the bytes are the node-based encoding, and a
        // restored builder carries on identically.
        util::ByteWriter w;
        builder.save(w);
        ASSERT_EQ(w.bytes(), reference.save_bytes());
        StreamingCnfBuilder restored = owned ? StreamingCnfBuilder(options)
                                             : StreamingCnfBuilder(options, &pool);
        util::ByteReader r(w.bytes());
        restored.load(r);
        r.expect_end();
        builder = std::move(restored);
        ASSERT_EQ(builder.open_windows(), reference.open_windows());
      }
    }
    expect_same_batch(builder.flush(), reference.flush(pool));
    EXPECT_EQ(builder.open_windows(), 0u);
  }
}

TEST(CnfBuilderFuzz, LoadRefusesInconsistentGroups) {
  PathPool pool;
  StreamingCnfBuilder builder(day_only(), &pool);
  builder.add(pool, make_clause(pool, {1, 2}, true, 0, 3));
  util::ByteWriter w;
  builder.save(w);
  const std::string good = w.bytes();

  // Layout: empty pool (8) | group count (8) | key (10) | positive ids
  // (8 + 4) | positive set (8 + 4) | ...  Flip the set's member.
  std::string bad = good;
  bad[8 + 8 + 10 + 12 + 8] ^= 0x7;
  StreamingCnfBuilder restored(day_only(), &pool);
  util::ByteReader r(bad);
  EXPECT_THROW(restored.load(r), util::SerdeError);

  // A group at a granularity the restoring builder does not build.
  CnfBuildOptions weekly;
  weekly.granularities = {util::Granularity::kWeek};
  StreamingCnfBuilder other(weekly, &pool);
  util::ByteReader r2(good);
  EXPECT_THROW(other.load(r2), util::SerdeError);
}

}  // namespace
}  // namespace ct::tomo
