// SolverSession equivalence tests: every session query must agree with
// a brute-force truth-table oracle on randomized CNFs, no matter how
// queries interleave on one incremental solver — the property that makes
// the tomography engine's one-load-per-verdict design sound.
#include "sat/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

bool clause_satisfied(const std::vector<Lit>& clause, std::uint32_t assignment) {
  for (const Lit l : clause) {
    const bool value = (assignment >> l.var()) & 1u;
    if (value != l.negated()) return true;
  }
  return false;
}

/// Ground truth computed by exhausting all 2^num_vars assignments.
struct Oracle {
  std::vector<std::uint32_t> models;  // satisfying assignments, ascending
  std::vector<Var> potential_true;
  std::vector<Var> always_false;

  explicit Oracle(const Cnf& cnf) {
    std::uint32_t ever_true = 0;
    for (std::uint32_t a = 0; a < (1u << cnf.num_vars); ++a) {
      bool sat = true;
      for (const auto& clause : cnf.clauses) {
        if (!clause_satisfied(clause, a)) {
          sat = false;
          break;
        }
      }
      if (sat) {
        models.push_back(a);
        ever_true |= a;
      }
    }
    if (!models.empty()) {
      for (Var v = 0; v < cnf.num_vars; ++v) {
        if ((ever_true >> v) & 1u) {
          potential_true.push_back(v);
        } else {
          always_false.push_back(v);
        }
      }
    }
  }
};

/// Converts a projected model (full projection, var order) to a bitmask.
std::uint32_t model_bits(const std::vector<Lit>& model) {
  std::uint32_t bits = 0;
  for (const Lit l : model) {
    if (!l.negated()) bits |= 1u << l.var();
  }
  return bits;
}

std::set<std::uint32_t> model_set(const std::vector<std::vector<Lit>>& models) {
  std::set<std::uint32_t> out;
  for (const auto& m : models) out.insert(model_bits(m));
  return out;
}

/// Random tomography-shaped CNF: positive disjunctions of "censor"
/// variables plus negative units, the shape build_cnfs emits.
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
  // A few fully random clauses to leave the tomo shape occasionally.
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

void expect_session_matches_oracle(SolverSession& session, const Oracle& oracle,
                                   const Cnf& cnf) {
  const auto count = static_cast<std::uint64_t>(oracle.models.size());

  const SolutionClassification cls = session.classify();
  EXPECT_EQ(cls.solution_class, static_cast<int>(std::min<std::uint64_t>(count, 2)));
  if (count == 1) {
    ASSERT_TRUE(cls.unique_model.has_value());
    EXPECT_EQ(model_bits(*cls.unique_model), oracle.models.front());
  }

  EXPECT_EQ(session.satisfiable(), count > 0);
  EXPECT_EQ(session.count_models_capped(3), std::min<std::uint64_t>(count, 3));
  EXPECT_EQ(session.count_models_capped(0), count);  // 0 = no cap

  // Full enumeration extends the classify/count enumeration in place.
  const EnumerateResult all =
      session.enumerate({.max_models = 1u << cnf.num_vars, .projection = {}});
  EXPECT_FALSE(all.truncated);
  EXPECT_EQ(model_set(all.models),
            std::set<std::uint32_t>(oracle.models.begin(), oracle.models.end()));

  const PotentialTrueResult split = session.potential_true_vars();
  EXPECT_EQ(split.satisfiable, count > 0);
  EXPECT_EQ(split.potential_true, oracle.potential_true);
  EXPECT_EQ(split.always_false, oracle.always_false);
}

TEST(SolverSession, MatchesBruteForceOnRandomCnfs) {
  util::Rng rng(20170711);
  for (int round = 0; round < 200; ++round) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(2, 10));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);

    SolverSession session(cnf);
    expect_session_matches_oracle(session, oracle, cnf);
    EXPECT_EQ(session.stats().cnf_loads, 1u)
        << "all queries must share the single CNF load";
  }
}

TEST(SolverSession, QueriesInAnyOrderAgree) {
  // potential_true before, between, and after enumeration: the
  // activation guard must keep blocking clauses out of assumption
  // solves.
  util::Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(3, 8));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);
    if (oracle.models.empty()) continue;

    SolverSession session(cnf);
    const PotentialTrueResult before = session.potential_true_vars();
    session.classify();
    const PotentialTrueResult between = session.potential_true_vars();
    session.enumerate({.max_models = 1u << num_vars, .projection = {}});
    const PotentialTrueResult after = session.potential_true_vars();

    EXPECT_EQ(before.potential_true, oracle.potential_true);
    EXPECT_EQ(between.potential_true, oracle.potential_true);
    EXPECT_EQ(after.potential_true, oracle.potential_true);
    EXPECT_EQ(after.always_false, oracle.always_false);
    EXPECT_EQ(session.stats().cnf_loads, 1u);
  }
}

TEST(SolverSession, RetractionRestartsEnumeration) {
  util::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(3, 8));
    const Cnf cnf = random_cnf(rng, num_vars);
    SolverSession session(cnf);

    const EnumerateOptions all{.max_models = 1u << num_vars, .projection = {}};
    const auto first = model_set(session.enumerate(all).models);
    session.retract_enumeration();
    const auto second = model_set(session.enumerate(all).models);
    EXPECT_EQ(first, second);
    EXPECT_GE(session.stats().retractions, 1u);
    // Each model beyond the first leaves at least one stored guarded
    // blocking clause (the final one may simplify to a bare ~a unit).
    if (first.size() >= 2) {
      EXPECT_GE(session.solver_stats().retracted_clauses, first.size() - 1);
    }
  }
}

TEST(SolverSession, GrowingTheCapNeverRederivesModels) {
  // (x0 v x1 v x2) has 7 models; counting at increasing caps must add
  // at most one probe model per step beyond the cap.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  SolverSession session(cnf);

  EXPECT_EQ(session.count_models_capped(2), 2u);
  const std::uint64_t after_two = session.stats().models_found;
  EXPECT_EQ(after_two, 2u);
  EXPECT_EQ(session.count_models_capped(5), 5u);
  EXPECT_EQ(session.stats().models_found, 5u);
  EXPECT_EQ(session.count_models_capped(100), 7u);
  EXPECT_EQ(session.stats().models_found, 7u);
  // Re-asking smaller caps costs nothing.
  const std::uint64_t solves = session.stats().solve_calls;
  EXPECT_EQ(session.count_models_capped(3), 3u);
  EXPECT_EQ(session.stats().solve_calls, solves);
}

TEST(SolverSession, ArenaReloadMatchesFreshSession) {
  util::Rng rng(99);
  SolverSession arena;
  for (int round = 0; round < 50; ++round) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(2, 8));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);

    arena.load(cnf);
    expect_session_matches_oracle(arena, oracle, cnf);
  }
  EXPECT_EQ(arena.stats().cnf_loads, 50u);
}

TEST(SolverSession, ProjectionChangeRestartsEnumeration) {
  // (x0 v x1 v x2): 7 full models, 2 models projected onto {x0}.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  SolverSession session(cnf);

  EXPECT_EQ(session.count_models_capped(100), 7u);
  EXPECT_EQ(session.count_models_capped(100, {0}), 2u);
  EXPECT_EQ(session.count_models_capped(100), 7u);
}

TEST(SolverSession, TruncationFlagHonest) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  SolverSession session(cnf);
  EXPECT_TRUE(session.enumerate({.max_models = 3, .projection = {}}).truncated);
  EXPECT_FALSE(session.enumerate({.max_models = 7, .projection = {}}).truncated);
  EXPECT_FALSE(session.enumerate({.max_models = 100, .projection = {}}).truncated);
}

TEST(SolverSession, ProjectionChangeMidEnumerationThenCount) {
  // (x0 v x1 v x2): 7 full models, 2 projected onto {x0}.  Changing the
  // projection in the middle of a truncated enumeration must retract
  // the active blocking clauses, and the counts on either side of the
  // change must stay exact.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  SolverSession session(cnf);

  const EnumerateResult partial = session.enumerate({.max_models = 3, .projection = {}});
  EXPECT_EQ(partial.models.size(), 3u);
  EXPECT_TRUE(partial.truncated);
  const std::uint64_t retractions_before = session.stats().retractions;
  const std::uint64_t models_before = session.stats().models_found;

  // Projection change mid-enumeration: one retraction, fresh projected
  // enumeration, exact count.
  EXPECT_EQ(session.count_models_capped(100, {0}), 2u);
  EXPECT_EQ(session.stats().retractions, retractions_before + 1);

  // Back to the full projection: another retraction, and the count is
  // re-derived from scratch without the stale truncated state.
  EXPECT_EQ(session.count_models_capped(0), 7u);
  EXPECT_EQ(session.stats().retractions, retractions_before + 2);
  EXPECT_EQ(session.count_models_capped(2), 2u) << "shrunken caps stay exact";

  // SessionStats invariants: one load served everything, every found
  // model carried a blocking clause, and the projected + re-derived
  // models were all counted.
  EXPECT_EQ(session.stats().cnf_loads, 1u);
  EXPECT_EQ(session.stats().blocking_clauses, session.stats().models_found);
  EXPECT_EQ(session.stats().models_found, models_before + 2u + 7u);
}

TEST(SolverSession, RetractEnumerationAfterUnsat) {
  // x0 & ~x0: classification creates the activation guard, finds
  // UNSAT, and a retraction afterwards must leave the session able to
  // re-derive the same answer on a fresh enumeration.
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  SolverSession session(cnf);

  EXPECT_EQ(session.classify().solution_class, 0);
  EXPECT_EQ(session.stats().models_found, 0u);

  session.retract_enumeration();
  EXPECT_EQ(session.stats().retractions, 1u);

  const std::uint64_t solves_before = session.stats().solve_calls;
  EXPECT_EQ(session.count_models_capped(5), 0u);
  EXPECT_GT(session.stats().solve_calls, solves_before)
      << "the retracted enumeration must restart, not reuse stale state";
  EXPECT_EQ(session.classify().solution_class, 0);
  EXPECT_FALSE(session.satisfiable());
  EXPECT_FALSE(session.potential_true_vars().satisfiable);

  // Invariants: single load, nothing ever counted as a model, and a
  // second retraction of the re-created guard still accounts.
  session.retract_enumeration();
  EXPECT_EQ(session.stats().retractions, 2u);
  EXPECT_EQ(session.stats().cnf_loads, 1u);
  EXPECT_EQ(session.stats().models_found, 0u);
  EXPECT_EQ(session.stats().blocking_clauses, 0u);
}

TEST(SolverSession, UnsatCnf) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  SolverSession session(cnf);
  EXPECT_FALSE(session.satisfiable());
  EXPECT_EQ(session.classify().solution_class, 0);
  EXPECT_EQ(session.count_models_capped(10), 0u);
  EXPECT_FALSE(session.potential_true_vars().satisfiable);
}

}  // namespace
}  // namespace ct::sat
