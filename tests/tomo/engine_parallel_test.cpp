// Parallel batch analysis: analyze_cnfs must produce byte-identical
// verdict vectors for any thread count, and the session-based engine
// must load each CNF exactly once per verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tomo/engine.h"
#include "util/rng.h"

namespace ct::tomo {
namespace {

bool verdicts_equal(const CnfVerdict& a, const CnfVerdict& b) {
  return a.key == b.key && a.num_vars == b.num_vars &&
         a.solution_class == b.solution_class && a.capped_count == b.capped_count &&
         a.censors == b.censors && a.potential_censors == b.potential_censors &&
         a.definite_noncensors == b.definite_noncensors &&
         a.reduction_fraction == b.reduction_fraction;
}

/// Random tomography-shaped instance built directly (positive path
/// disjunctions + negative units), without going through build_cnfs.
TomoCnf random_tomo_cnf(util::Rng& rng, std::int32_t url) {
  TomoCnf tc;
  tc.key.url_id = url;
  tc.key.window = static_cast<std::int32_t>(rng.uniform_int(0, 5));
  const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(4, 14));
  for (std::int32_t v = 0; v < num_vars; ++v) {
    tc.vars.push_back(static_cast<topo::AsId>(100 + v));
  }
  tc.cnf.num_vars = num_vars;
  const std::int64_t positives = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<sat::Lit> clause;
    const std::int64_t width = rng.uniform_int(2, 5);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.emplace_back(static_cast<sat::Var>(rng.index(static_cast<std::size_t>(num_vars))),
                          false);
    }
    tc.cnf.add_clause(std::move(clause));
  }
  const std::int64_t negatives = rng.uniform_int(0, num_vars - 1);
  for (std::int64_t i = 0; i < negatives; ++i) {
    tc.cnf.add_clause({sat::Lit(static_cast<sat::Var>(rng.index(static_cast<std::size_t>(num_vars))),
                                true)});
  }
  tc.num_positive_clauses = static_cast<std::int32_t>(positives);
  tc.num_negative_units = static_cast<std::int32_t>(negatives);
  return tc;
}

std::vector<TomoCnf> random_batch(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<TomoCnf> cnfs;
  cnfs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cnfs.push_back(random_tomo_cnf(rng, static_cast<std::int32_t>(i)));
  }
  return cnfs;
}

TEST(EngineParallel, VerdictsIdenticalAcrossThreadCounts) {
  const std::vector<TomoCnf> cnfs = random_batch(123, 60);

  AnalysisOptions serial;
  serial.num_threads = 1;
  const std::vector<CnfVerdict> reference = analyze_cnfs(cnfs, serial);
  ASSERT_EQ(reference.size(), cnfs.size());

  for (const unsigned threads : {2u, 8u}) {
    AnalysisOptions parallel = serial;
    parallel.num_threads = threads;
    const std::vector<CnfVerdict> got = analyze_cnfs(cnfs, parallel);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(verdicts_equal(got[i], reference[i]))
          << "verdict " << i << " differs with " << threads << " threads";
    }
  }
}

TEST(EngineParallel, OneCnfLoadPerVerdict) {
  const std::vector<TomoCnf> cnfs = random_batch(77, 40);
  for (const unsigned threads : {1u, 2u, 8u}) {
    AnalysisOptions options;
    options.num_threads = threads;
    options.delta = sat::DeltaPolicy::from_env();
    EngineStats stats;
    const auto verdicts = analyze_cnfs(cnfs, options, &stats);
    EXPECT_EQ(stats.cnf_loads + stats.delta_loads, verdicts.size())
        << "session engine must load each CNF exactly once — fresh or delta ("
        << threads << " threads)";
    if (!options.delta.enabled) { EXPECT_EQ(stats.delta_loads, 0u); }
    EXPECT_GE(stats.solve_calls, verdicts.size());
    EXPECT_LE(stats.arenas, threads);
    EXPECT_GE(stats.arenas, 1u);
  }
}

TEST(EngineParallel, HardwareConcurrencyDefaultMatchesSerial) {
  const std::vector<TomoCnf> cnfs = random_batch(5, 20);
  AnalysisOptions serial;
  serial.num_threads = 1;
  AnalysisOptions automatic;
  automatic.num_threads = 0;  // hardware concurrency
  const auto a = analyze_cnfs(cnfs, serial);
  const auto b = analyze_cnfs(cnfs, automatic);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(verdicts_equal(a[i], b[i])) << "verdict " << i;
  }
}

TEST(EngineParallel, LazyCountsOnlyDifferInCappedCount) {
  const std::vector<TomoCnf> cnfs = random_batch(31, 30);
  AnalysisOptions eager;
  eager.resolve_counts = true;
  AnalysisOptions lazy;
  lazy.resolve_counts = false;
  const auto full = analyze_cnfs(cnfs, eager);
  const auto quick = analyze_cnfs(cnfs, lazy);
  ASSERT_EQ(full.size(), quick.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(quick[i].solution_class, full[i].solution_class);
    EXPECT_EQ(quick[i].censors, full[i].censors);
    EXPECT_EQ(quick[i].potential_censors, full[i].potential_censors);
    EXPECT_EQ(quick[i].definite_noncensors, full[i].definite_noncensors);
    EXPECT_EQ(quick[i].reduction_fraction, full[i].reduction_fraction);
    // Lazy counts are exact up to the class, capped by count_cap.
    EXPECT_EQ(quick[i].capped_count,
              std::min<std::uint64_t>(static_cast<std::uint64_t>(full[i].solution_class),
                                      lazy.count_cap));
    EXPECT_GE(full[i].capped_count, quick[i].capped_count);
  }
}

TEST(EngineParallel, LazyCountsDoLessSolving) {
  const std::vector<TomoCnf> cnfs = random_batch(97, 30);
  // Pin the CDCL backend: the lazy-vs-eager effort comparison is only
  // meaningful with the backend held constant (auto would route the
  // eager pass to the counting backend, which enumerates nothing).
  AnalysisOptions eager;
  eager.resolve_counts = true;
  eager.backend.mode = sat::BackendSelector::Mode::kCdcl;
  AnalysisOptions lazy;
  lazy.resolve_counts = false;
  lazy.backend.mode = sat::BackendSelector::Mode::kCdcl;
  EngineStats full_stats;
  EngineStats lazy_stats;
  analyze_cnfs(cnfs, eager, &full_stats);
  analyze_cnfs(cnfs, lazy, &lazy_stats);
  EXPECT_LE(lazy_stats.solve_calls, full_stats.solve_calls);
  EXPECT_LE(lazy_stats.models_found, full_stats.models_found);
}

TEST(EngineParallel, ThrowawayAnalyzeCnfMatchesArena) {
  const std::vector<TomoCnf> cnfs = random_batch(11, 10);
  CnfAnalyzer arena;
  for (const TomoCnf& tc : cnfs) {
    const CnfVerdict via_arena = arena.analyze(tc);
    const CnfVerdict via_free = analyze_cnf(tc);
    EXPECT_TRUE(verdicts_equal(via_arena, via_free));
  }
  const sat::SessionStats stats = arena.session_stats();
  EXPECT_EQ(stats.cnf_loads + stats.delta_loads, cnfs.size());
}

}  // namespace
}  // namespace ct::tomo
