#include "tomo/clause.h"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.h"
#include "util/serde.h"

namespace ct::tomo {
namespace {

TEST(PathPool, InternsAndDeduplicates) {
  PathPool pool;
  const auto a = pool.intern({1, 2, 3});
  const auto b = pool.intern({1, 2, 4});
  const auto c = pool.intern({1, 2, 3});
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.get(a), (std::vector<topo::AsId>{1, 2, 3}));
  EXPECT_EQ(pool.get(b), (std::vector<topo::AsId>{1, 2, 4}));
}

TEST(PathPool, EmptyPathInternable) {
  PathPool pool;
  const auto id = pool.intern({});
  EXPECT_TRUE(pool.get(id).empty());
}

TEST(PathPool, IdsMatchAMapThroughGrowthAndRoundTrip) {
  // Enough distinct paths to regrow the index many times, with repeats
  // and shared prefixes; ids are first-sight order, as a std::map
  // reference assigns them.
  util::Rng rng(7);
  PathPool pool;
  std::map<std::vector<topo::AsId>, PathPool::PathId> reference;
  for (int i = 0; i < 20000; ++i) {
    std::vector<topo::AsId> path(static_cast<std::size_t>(rng.uniform_int(0, 5)));
    for (topo::AsId& as : path) as = static_cast<topo::AsId>(rng.uniform_int(0, 11));
    const auto expected = reference.emplace(path, static_cast<PathPool::PathId>(reference.size()));
    ASSERT_EQ(pool.intern(path), expected.first->second);
  }
  ASSERT_EQ(pool.size(), reference.size());

  util::ByteWriter w;
  pool.save(w);
  PathPool restored;
  util::ByteReader r(w.bytes());
  restored.load(r);
  r.expect_end();
  for (const auto& [path, id] : reference) EXPECT_EQ(restored.intern(path), id);
  EXPECT_EQ(restored.size(), reference.size());

  // save() never writes a path twice; a payload that does is refused.
  util::ByteWriter dup;
  dup.size(2);
  for (int k = 0; k < 2; ++k) {
    dup.size(2);
    dup.i32(4);
    dup.i32(9);
  }
  util::ByteReader dup_reader(dup.bytes());
  EXPECT_THROW(restored.load(dup_reader), util::SerdeError);
}

/// Builds a measurement whose traceroutes hit the given mini address
/// plan exactly (one mapped hop per AS).
struct ClauseWorld {
  net::AddressPlan plan;
  net::Ip2AsDb db;

  ClauseWorld() {
    plan.prefixes.resize(6);
    for (std::uint32_t as = 0; as < 6; ++as) {
      plan.prefixes[as].push_back(net::Prefix::make((10u << 24) | (as << 16), 16));
    }
    db = net::build_ip2as(plan);
  }

  net::Traceroute trace_of(const std::vector<topo::AsId>& ases) const {
    net::Traceroute t;
    for (const auto as : ases) {
      t.hops.emplace_back((10u << 24) | (static_cast<std::uint32_t>(as) << 16) | 1u);
    }
    return t;
  }

  iclab::Measurement measurement(const std::vector<topo::AsId>& mapped_path,
                                 bool dns_detected) const {
    iclab::Measurement m;
    m.vantage = 0;
    m.url_id = 7;
    m.day = 3;
    m.detected[static_cast<std::size_t>(censor::Anomaly::kDns)] = dns_detected;
    for (auto& t : m.traceroutes) t = trace_of(mapped_path);
    return m;
  }
};

TEST(ClauseBuilder, EmitsOneClausePerAnomaly) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  builder.on_measurement(w.measurement({1, 2, 3}, true));
  EXPECT_EQ(builder.stats().measurements, 1);
  EXPECT_EQ(builder.stats().usable_measurements, 1);
  EXPECT_EQ(builder.stats().clauses, static_cast<std::int64_t>(censor::kNumAnomalies));
  ASSERT_EQ(builder.clauses().size(), censor::kNumAnomalies);
  // The DNS clause is positive, the others negative.
  for (const auto& clause : builder.clauses()) {
    EXPECT_EQ(clause.observed, clause.anomaly == censor::Anomaly::kDns);
    EXPECT_EQ(clause.url_id, 7);
    EXPECT_EQ(clause.vantage, 0);
    EXPECT_EQ(clause.day, 3);
    EXPECT_EQ(builder.pool().get(clause.path_id), (std::vector<topo::AsId>{1, 2, 3}));
  }
}

TEST(ClauseBuilder, SharedPathsInterned) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  builder.on_measurement(w.measurement({1, 2, 3}, false));
  builder.on_measurement(w.measurement({1, 2, 3}, true));
  builder.on_measurement(w.measurement({1, 4, 5}, false));
  EXPECT_EQ(builder.pool().size(), 2u);
  EXPECT_EQ(builder.clauses().size(), 3 * censor::kNumAnomalies);
}

TEST(ClauseBuilder, DropsTracerouteErrors) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1, 2}, false);
  m.traceroutes[1].error = true;
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_traceroute_error, 1);
  EXPECT_EQ(builder.stats().usable_measurements, 0);
  EXPECT_TRUE(builder.clauses().empty());
}

TEST(ClauseBuilder, DropsAmbiguousGaps) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1, 2}, false);
  m.traceroutes[0].hops = {(10u << 24) | (1u << 16) | 1u, std::nullopt,
                           (10u << 24) | (2u << 16) | 1u};
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_ambiguous_gap, 1);
}

TEST(ClauseBuilder, DropsDivergentTriples) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1, 2}, false);
  m.traceroutes[2] = w.trace_of({1, 4});
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_divergent_paths, 1);
}

TEST(ClauseBuilder, DropsUnmappable) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1}, false);
  for (auto& t : m.traceroutes) {
    t.hops = {std::nullopt, (192u << 24) | 1u};  // nothing mappable
  }
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_no_mapping, 1);
  EXPECT_EQ(builder.stats().dropped_total(), 1);
}

}  // namespace
}  // namespace ct::tomo
