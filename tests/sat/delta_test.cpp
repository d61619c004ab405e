// Delta-loading suite (README "Delta loading").
//
// Cross-window delta solving edits the previous window's formula in
// place — retract the clauses the new window dropped, assert the ones
// it added, keep every learnt clause whose premises survive — instead
// of rebuilding the solver from scratch.  The contract these tests pin:
//
//   * compute_cnf_delta is a canonical multiset diff — insensitive to
//     clause order and literal order, exact on duplicates;
//   * a session driven by load_next() answers every query exactly as a
//     fresh session loaded from scratch would, across randomized
//     window chains (the soundness property the equivalence and golden
//     suites then re-check end to end);
//   * load_next() falls back to a fresh load on every chain-breaking
//     event: projection changes, oversized diffs, variable growth past
//     the reserved headroom, backend switches, chain caps, and
//     CT_SAT_DELTA=0.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/fuzz_seed.h"
#include "sat/backend.h"
#include "sat/session.h"
#include "util/env.h"
#include "util/rng.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

/// Random tomography-shaped CNF (positive disjunctions + negative
/// units + a few mixed clauses), as in the session and backend suites.
Cnf random_cnf(util::Rng& rng, std::int32_t num_vars) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  const std::int64_t positives = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.push_back(pos(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars)))));
    }
    cnf.add_clause(std::move(clause));
  }
  const std::int64_t negatives = rng.uniform_int(0, num_vars);
  for (std::int64_t i = 0; i < negatives; ++i) {
    cnf.add_clause({neg(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars))))});
  }
  const std::int64_t mixed = rng.uniform_int(0, 2);
  for (std::int64_t i = 0; i < mixed; ++i) {
    std::vector<Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.emplace_back(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars))),
                          rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

/// The next window of a chain: mostly the previous window's clauses
/// (adjacent tumbling windows share most of their path constraints),
/// a few dropped, a few added, occasionally one more variable.
Cnf mutate_cnf(util::Rng& rng, const Cnf& prev) {
  Cnf next;
  next.num_vars = prev.num_vars;
  if (next.num_vars < 10 && rng.bernoulli(0.25)) ++next.num_vars;
  for (const auto& clause : prev.clauses) {
    if (!rng.bernoulli(0.2)) next.add_clause(clause);
  }
  const std::int64_t adds = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < adds; ++i) {
    std::vector<Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.emplace_back(
          static_cast<Var>(rng.index(static_cast<std::size_t>(next.num_vars))),
          rng.bernoulli(0.3));
    }
    next.add_clause(std::move(clause));
  }
  if (next.clauses.empty()) next.add_clause({pos(0)});
  return next;
}

std::uint64_t model_bits(const std::vector<Lit>& model) {
  std::uint64_t bits = 0;
  for (const Lit l : model) {
    if (!l.negated()) bits |= 1ull << l.var();
  }
  return bits;
}

std::set<std::uint64_t> model_set(const std::vector<std::vector<Lit>>& models) {
  std::set<std::uint64_t> out;
  for (const auto& m : models) out.insert(model_bits(m));
  return out;
}

/// Every session query on `chained` (which may have delta-loaded `cnf`)
/// must agree with a from-scratch session on the same CNF.
void expect_matches_fresh(SolverSession& chained, const Cnf& cnf) {
  SolverSession fresh(cnf);

  const SolutionClassification a = chained.classify();
  const SolutionClassification b = fresh.classify();
  EXPECT_EQ(a.solution_class, b.solution_class);
  ASSERT_EQ(a.unique_model.has_value(), b.unique_model.has_value());
  if (a.unique_model.has_value()) {
    EXPECT_EQ(model_bits(*a.unique_model), model_bits(*b.unique_model));
  }

  EXPECT_EQ(chained.satisfiable(), fresh.satisfiable());
  EXPECT_EQ(chained.count_models_capped(3), fresh.count_models_capped(3));
  EXPECT_EQ(chained.count_models_capped(0), fresh.count_models_capped(0));

  const EnumerateOptions all{.max_models = 1ull << std::min<std::int32_t>(cnf.num_vars, 16),
                             .projection = {}};
  EXPECT_EQ(model_set(chained.enumerate(all).models),
            model_set(fresh.enumerate(all).models));

  const PotentialTrueResult pa = chained.potential_true_vars();
  const PotentialTrueResult pb = fresh.potential_true_vars();
  EXPECT_EQ(pa.satisfiable, pb.satisfiable);
  EXPECT_EQ(pa.potential_true, pb.potential_true);
  EXPECT_EQ(pa.always_false, pb.always_false);
}

TEST(CnfDelta, IdenticalCnfsDiffEmpty) {
  util::Rng rng(1);
  const Cnf cnf = random_cnf(rng, 6);
  const CnfDelta delta = compute_cnf_delta(cnf, cnf);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.size(), 0u);
  EXPECT_EQ(delta.shared, cnf.clauses.size());
  EXPECT_EQ(delta.var_growth, 0);
}

TEST(CnfDelta, DiffIsCanonical) {
  // Reordering clauses and literals within clauses must not create
  // edits: the diff is over canonical forms, not storage order.
  util::Rng rng(2);
  const Cnf cnf = random_cnf(rng, 8);
  Cnf shuffled;
  shuffled.num_vars = cnf.num_vars;
  std::vector<std::vector<Lit>> clauses = cnf.clauses;
  std::mt19937_64 gen(7);
  std::shuffle(clauses.begin(), clauses.end(), gen);
  for (auto& clause : clauses) {
    std::shuffle(clause.begin(), clause.end(), gen);
    shuffled.add_clause(std::move(clause));
  }
  const CnfDelta delta = compute_cnf_delta(cnf, shuffled);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.shared, cnf.clauses.size());
}

TEST(CnfDelta, DisjointCnfsDiffCompletely) {
  Cnf prev;
  prev.num_vars = 4;
  prev.add_clause({pos(0), pos(1)});
  prev.add_clause({neg(2)});
  Cnf next;
  next.num_vars = 6;
  next.add_clause({pos(3), pos(4)});
  next.add_clause({neg(5)});
  next.add_clause({pos(0), neg(1)});

  const CnfDelta delta = compute_cnf_delta(prev, next);
  EXPECT_EQ(delta.removed.size(), prev.clauses.size());
  EXPECT_EQ(delta.added.size(), next.clauses.size());
  EXPECT_EQ(delta.shared, 0u);
  EXPECT_EQ(delta.var_growth, 2);
  EXPECT_EQ(delta.size(), prev.clauses.size() + next.clauses.size());
}

TEST(CnfDelta, DuplicateClausesDiffAsMultiset) {
  // prev holds clause C twice, next once: exactly one copy is removed.
  Cnf prev;
  prev.num_vars = 3;
  prev.add_clause({pos(0), pos(1)});
  prev.add_clause({pos(1), pos(0)});  // same canonical clause
  prev.add_clause({neg(2)});
  Cnf next;
  next.num_vars = 3;
  next.add_clause({pos(0), pos(1)});
  next.add_clause({neg(2)});

  const CnfDelta delta = compute_cnf_delta(prev, next);
  EXPECT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.added.size(), 0u);
  EXPECT_EQ(delta.shared, 2u);
}

TEST(DeltaChain, FuzzedChainsMatchFreshLoads) {
  // 200 randomized window chains, each driven through one session via
  // load_next(): every query on every window must agree with a session
  // loaded from scratch, and a healthy share of the transitions must
  // actually take the delta path (else this suite tests nothing).
  const std::uint64_t seed = ct::test::fuzz_seed(20260808);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);

  SolverSession session;  // one arena across all chains, like the engine
  const BackendPlan plan;  // CDCL primary — the chainable route
  const DeltaPolicy policy;
  std::uint64_t windows = 0;

  for (int chain = 0; chain < 200; ++chain) {
    SCOPED_TRACE("chain " + std::to_string(chain));
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(3, 9));
    Cnf cnf = random_cnf(rng, num_vars);
    const auto length = static_cast<int>(rng.uniform_int(3, 6));
    for (int window = 0; window < length; ++window) {
      SCOPED_TRACE("window " + std::to_string(window));
      session.load_next(cnf, plan, policy);
      ++windows;
      expect_matches_fresh(session, cnf);
      cnf = mutate_cnf(rng, cnf);
    }
  }

  const SessionStats& stats = session.stats();
  EXPECT_EQ(stats.cnf_loads + stats.delta_loads, windows)
      << "every window is exactly one fresh or one delta load";
  EXPECT_GT(stats.delta_loads, windows / 4)
      << "most in-chain transitions should take the delta path";
  EXPECT_GT(stats.clauses_reused, 0u);
  EXPECT_GT(stats.clauses_retracted, 0u);
}

TEST(DeltaChain, ProjectedQueryForcesFreshLoad) {
  // A projected query between windows means the session's enumeration
  // state no longer covers the full variable set — the next load_next()
  // must rebuild from scratch, and still answer correctly.
  util::Rng rng(3);
  const Cnf w0 = random_cnf(rng, 6);
  const Cnf w1 = mutate_cnf(rng, w0);
  const Cnf w2 = mutate_cnf(rng, w1);

  SolverSession session;
  const BackendPlan plan;
  const DeltaPolicy policy;

  session.load_next(w0, plan, policy);
  session.load_next(w1, plan, policy);
  EXPECT_EQ(session.stats().cnf_loads, 1u);
  EXPECT_EQ(session.stats().delta_loads, 1u);

  // Projected count: narrows the enumeration projection mid-chain.
  session.count_models_capped(100, {0});

  session.load_next(w2, plan, policy);
  EXPECT_EQ(session.stats().cnf_loads, 2u) << "projection change must break the chain";
  EXPECT_EQ(session.stats().delta_loads, 1u);
  expect_matches_fresh(session, w2);
}

TEST(DeltaChain, OversizedDiffFallsBackFresh) {
  // Two unrelated windows: the diff rewrites (nearly) every clause, so
  // replaying it would cost more than a rebuild — the size budget must
  // route the transition to a fresh load.
  util::Rng rng(4);
  const Cnf w0 = random_cnf(rng, 7);
  const Cnf w1 = random_cnf(rng, 7);  // independent draw, not a mutation

  SolverSession session;
  const BackendPlan plan;
  DeltaPolicy policy;
  policy.max_delta_fraction = 0.0;  // no edit budget at all

  session.load_next(w0, plan, policy);
  session.load_next(w1, plan, policy);
  EXPECT_EQ(session.stats().cnf_loads, 2u);
  EXPECT_EQ(session.stats().delta_loads, 0u);
  expect_matches_fresh(session, w1);
}

TEST(DeltaChain, VarGrowthPastHeadroomFallsBackFresh) {
  // CdclBackend reserves bounded variable headroom above the loaded
  // CNF for selectors; a window that outgrows it cannot be delta-loaded
  // (the new variables would collide with the guard space) and must be
  // declined — load_next() then rebuilds and the chain restarts.
  util::Rng rng(5);
  const Cnf w0 = random_cnf(rng, 4);
  Cnf w1 = w0;
  w1.num_vars = w0.num_vars + 56;  // far past any reserved headroom
  // Pin every new variable False so the model count stays that of w0
  // (the growth, not the satisfying set, is what this test exercises).
  for (Var v = w0.num_vars; v < w1.num_vars; ++v) w1.add_clause({neg(v)});

  SolverSession session;
  const BackendPlan plan;
  DeltaPolicy policy;
  policy.max_delta_fraction = 1e9;  // size budget never the limiter here

  session.load_next(w0, plan, policy);
  session.load_next(w1, plan, policy);
  EXPECT_EQ(session.stats().cnf_loads, 2u) << "variable overflow must decline the delta";
  EXPECT_EQ(session.stats().delta_loads, 0u);
  expect_matches_fresh(session, w1);

  // The rebuilt load re-arms the chain: a small follow-up delta works.
  Cnf w2 = w1;
  w2.add_clause({pos(0), pos(1)});
  session.load_next(w2, plan, policy);
  EXPECT_EQ(session.stats().delta_loads, 1u);
  expect_matches_fresh(session, w2);
}

TEST(DeltaChain, BackendSwitchBreaksTheChain) {
  // Only the CDCL route chains; a window planned onto another backend
  // loads fresh there, and the chain does not resume until a CDCL
  // window rebuilds the retractable state.
  util::Rng rng(6);
  const Cnf w0 = random_cnf(rng, 6);
  const Cnf w1 = mutate_cnf(rng, w0);
  const Cnf w2 = mutate_cnf(rng, w1);

  SolverSession session;
  const DeltaPolicy policy;
  const BackendPlan cdcl;
  BackendPlan count;
  count.primary = BackendKind::kCount;
  count.fallback = BackendKind::kCount;

  session.load_next(w0, cdcl, policy);
  session.load_next(w1, count, policy);
  EXPECT_EQ(session.stats().delta_loads, 0u);
  EXPECT_EQ(session.stats().cnf_loads, 2u);
  EXPECT_EQ(session.active_backend(), BackendKind::kCount);

  session.load_next(w2, cdcl, policy);
  EXPECT_EQ(session.stats().cnf_loads, 3u)
      << "the chain must not resume across a non-retractable load";
  expect_matches_fresh(session, w2);
}

TEST(DeltaChain, ChainCapForcesPeriodicRebuild) {
  // max_chain_loads bounds the solver garbage a chain can accumulate:
  // after that many consecutive deltas the next load must be fresh.
  util::Rng rng(8);
  SolverSession session;
  const BackendPlan plan;
  DeltaPolicy policy;
  policy.max_chain_loads = 2;
  policy.max_delta_fraction = 1e9;  // only the cap breaks the chain

  Cnf cnf = random_cnf(rng, 6);
  for (int window = 0; window < 6; ++window) {
    session.load_next(cnf, plan, policy);
    cnf = mutate_cnf(rng, cnf);
  }
  // fresh, delta, delta, fresh, delta, delta.
  EXPECT_EQ(session.stats().cnf_loads, 2u);
  EXPECT_EQ(session.stats().delta_loads, 4u);
}

TEST(DeltaChain, DisabledPolicyAlwaysLoadsFresh) {
  util::Rng rng(9);
  SolverSession session;
  const BackendPlan plan;
  DeltaPolicy policy;
  policy.enabled = false;

  Cnf cnf = random_cnf(rng, 6);
  for (int window = 0; window < 4; ++window) {
    session.load_next(cnf, plan, policy);
    expect_matches_fresh(session, cnf);
    cnf = mutate_cnf(rng, cnf);
  }
  EXPECT_EQ(session.stats().cnf_loads, 4u);
  EXPECT_EQ(session.stats().delta_loads, 0u);
  EXPECT_EQ(session.stats().clauses_reused, 0u);
}

TEST(DeltaChain, PolicyFromEnvReadsCtSatDelta) {
  EXPECT_TRUE(DeltaPolicy{}.enabled) << "delta loading defaults on";
  // Preserve whatever the harness set (CI runs the suite under both
  // values), then exercise the strict parser explicitly.
  const char* old = std::getenv("CT_SAT_DELTA");
  const std::string saved = old == nullptr ? "" : old;

  ASSERT_EQ(setenv("CT_SAT_DELTA", "0", 1), 0);
  EXPECT_FALSE(DeltaPolicy::from_env().enabled);
  ASSERT_EQ(setenv("CT_SAT_DELTA", "on", 1), 0);
  EXPECT_TRUE(DeltaPolicy::from_env().enabled);
  // strtoul-style parsing used to read any non-numeric value as 0 —
  // a typo'd CT_SAT_DELTA silently disabled delta loading.  Now it
  // fails fast instead of testing the wrong configuration.
  ASSERT_EQ(setenv("CT_SAT_DELTA", "noo", 1), 0);
  EXPECT_THROW(DeltaPolicy::from_env(), ct::util::EnvParseError);

  if (old == nullptr) {
    unsetenv("CT_SAT_DELTA");
    EXPECT_TRUE(DeltaPolicy::from_env().enabled);
  } else {
    ASSERT_EQ(setenv("CT_SAT_DELTA", saved.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace ct::sat
