// Stress and self-consistency tests for the CDCL solver on instances too
// large for brute force: model validity, assumption monotonicity,
// incremental solving patterns, and clause-database reduction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "sat/solver.h"
#include "util/rng.h"

namespace ct::sat {
namespace {

Cnf random_3sat(int num_vars, int num_clauses, std::uint64_t seed) {
  util::Rng rng(seed);
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const auto v = static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars)));
      bool dup = false;
      for (const Lit l : clause) dup = dup || l.var() == v;
      if (!dup) clause.emplace_back(v, rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

bool model_satisfies(const Solver& solver, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      const LBool v = solver.model_value(l.var());
      sat = sat || (l.negated() ? v == LBool::kFalse : v == LBool::kTrue);
    }
    if (!sat) return false;
  }
  return true;
}

class SolverStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverStress, UnderconstrainedInstancesAreSatWithValidModels) {
  // Ratio ~3.0 (below the ~4.27 threshold): almost surely SAT.
  const Cnf cnf = random_3sat(150, 450, GetParam());
  Solver solver;
  ASSERT_TRUE(solver.add_cnf(cnf));
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_TRUE(model_satisfies(solver, cnf));
}

TEST_P(SolverStress, NearThresholdInstancesAreSelfConsistent) {
  // Ratio ~4.3: could go either way; whatever the answer, it must be
  // stable across repeated solves and models must be valid.
  const Cnf cnf = random_3sat(80, 344, GetParam() + 1000);
  Solver solver;
  solver.add_cnf(cnf);
  const SolveResult first = solver.solve();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(solver.solve(), first);
  }
  if (first == SolveResult::kSat) {
    EXPECT_TRUE(model_satisfies(solver, cnf));
  }
}

TEST_P(SolverStress, AssumptionMonotonicity) {
  const Cnf cnf = random_3sat(60, 200, GetParam() + 2000);
  Solver solver;
  solver.add_cnf(cnf);
  if (solver.solve() != SolveResult::kSat) return;
  // Assuming the literals of a found model keeps the formula SAT.
  std::vector<Lit> model_lits;
  for (Var v = 0; v < cnf.num_vars; ++v) {
    model_lits.emplace_back(v, solver.model_value(v) != LBool::kTrue);
  }
  EXPECT_EQ(solver.solve(model_lits), SolveResult::kSat);
  // If UNSAT under assumptions {a, b}, it stays UNSAT under {a, b, c}.
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 4; ++k) {
      assumptions.emplace_back(static_cast<Var>(rng.index(60)), rng.bernoulli(0.5));
    }
    const SolveResult base = solver.solve(std::span<const Lit>(assumptions.data(), 2));
    if (base == SolveResult::kUnsat) {
      EXPECT_EQ(solver.solve(assumptions), SolveResult::kUnsat);
    }
  }
}

TEST_P(SolverStress, IncrementalTighteningMonotone) {
  // Adding clauses can only turn SAT into UNSAT, never back.
  Cnf cnf = random_3sat(50, 120, GetParam() + 3000);
  Solver solver;
  solver.add_cnf(cnf);
  util::Rng rng(GetParam() + 4000);
  bool was_unsat = false;
  for (int round = 0; round < 30; ++round) {
    const SolveResult r = solver.solve();
    if (was_unsat) {
      EXPECT_EQ(r, SolveResult::kUnsat);
    }
    was_unsat = was_unsat || r == SolveResult::kUnsat;
    // Add a random unit clause (aggressively tightening).
    solver.add_clause({Lit(static_cast<Var>(rng.index(50)), rng.bernoulli(0.5))});
  }
  EXPECT_TRUE(was_unsat) << "30 random units should have created a conflict";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverStress, ::testing::Range<std::uint64_t>(1, 9));

TEST(SolverStress, ClauseDatabaseReductionTriggers) {
  // A hard instance forces enough conflicts that reduce_db runs; verify
  // via stats and continued correctness.
  Cnf cnf;
  const int pigeons = 9, holes = 8;
  cnf.num_vars = pigeons * holes;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.emplace_back(p * holes + h, false);
    cnf.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_clause({Lit(p1 * holes + h, true), Lit(p2 * holes + h, true)});
      }
    }
  }
  Solver solver;
  solver.add_cnf(cnf);
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().learnt_clauses, 100u);
  EXPECT_GT(solver.stats().restarts, 0u);
}

// --- cooperative cancellation (Solver::set_stop_flag) ---------------
// The portfolio racer's loser-teardown path: a raised stop flag must
// abandon the search promptly, leave the solver exactly as consistent
// as a budget timeout would, and — with the flag lowered — re-solve to
// the correct answer on the same instance.

TEST(SolverCancellation, FlagRaisedBeforeStartReturnsUnknownAndRecovers) {
  const Cnf cnf = random_3sat(80, 344, 501);
  Solver reference;
  reference.add_cnf(cnf);
  const SolveResult expected = reference.solve();

  std::atomic<bool> stop{true};
  Solver solver;
  solver.add_cnf(cnf);
  solver.set_stop_flag(&stop);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  stop.store(false);
  EXPECT_EQ(solver.solve(), expected);
  if (expected == SolveResult::kSat) { EXPECT_TRUE(model_satisfies(solver, cnf)); }
}

TEST(SolverCancellation, FlagRaisedAfterAnswerDoesNotDisturbTheModel) {
  const Cnf cnf = random_3sat(150, 450, 502);  // underconstrained: SAT
  std::atomic<bool> stop{false};
  Solver solver;
  solver.add_cnf(cnf);
  solver.set_stop_flag(&stop);
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  stop.store(true);  // too late: the answer is already out
  EXPECT_TRUE(model_satisfies(solver, cnf));
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown) << "but the next solve sees the flag";
  stop.store(false);
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
}

TEST(SolverCancellation, DetachingTheFlagRestoresNormalSolving) {
  const Cnf cnf = random_3sat(60, 250, 503);
  Solver reference;
  reference.add_cnf(cnf);
  const SolveResult expected = reference.solve();

  std::atomic<bool> stop{true};
  Solver solver;
  solver.add_cnf(cnf);
  solver.set_stop_flag(&stop);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
  solver.set_stop_flag(nullptr);
  EXPECT_EQ(solver.solve(), expected);
}

class CancellationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CancellationFuzz, RandomMidSearchCancellationKeepsTheSolverConsistent) {
  // A near-threshold instance big enough that the solve takes real work,
  // cancelled from another thread after a random delay.  Whatever the
  // interleaving hits — mid-propagate, mid-analyze, between restarts,
  // before the search even starts, or after the answer is out — the
  // result is either the reference answer or kUnknown, and a re-solve
  // with the flag lowered always produces the reference answer.
  const Cnf cnf = random_3sat(110, 470, GetParam() + 7000);
  Solver reference;
  reference.add_cnf(cnf);
  const SolveResult expected = reference.solve();
  ASSERT_NE(expected, SolveResult::kUnknown);

  util::Rng rng(GetParam() + 8000);
  Solver solver;
  solver.add_cnf(cnf);
  std::atomic<bool> stop{false};
  solver.set_stop_flag(&stop);
  for (int round = 0; round < 6; ++round) {
    stop.store(false);
    const auto delay = std::chrono::microseconds(rng.index(3000));
    std::thread canceller([&stop, delay] {
      std::this_thread::sleep_for(delay);
      stop.store(true, std::memory_order_relaxed);
    });
    const SolveResult r = solver.solve();
    canceller.join();
    EXPECT_TRUE(r == expected || r == SolveResult::kUnknown)
        << "round " << round << " returned " << static_cast<int>(r);
    if (r == SolveResult::kSat) { EXPECT_TRUE(model_satisfies(solver, cnf)); }

    // Recovery: the same solver (learnt clauses from the aborted run
    // and all) must still deliver the right answer.
    stop.store(false);
    ASSERT_EQ(solver.solve(), expected) << "round " << round;
    if (expected == SolveResult::kSat) { EXPECT_TRUE(model_satisfies(solver, cnf)); }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancellationFuzz, ::testing::Range<std::uint64_t>(1, 7));

TEST(SolverStress, ManySmallSolvesReuseOneSolver) {
  // The tomography layer's pattern: tiny instances, many solves with
  // varying assumptions on a shared solver.
  Solver solver;
  solver.ensure_vars(20);
  for (Var v = 0; v + 1 < 20; v += 2) {
    solver.add_clause({Lit(v, false), Lit(v + 1, false)});
  }
  for (Var v = 0; v < 20; ++v) {
    ASSERT_EQ(solver.solve({Lit(v, false)}), SolveResult::kSat);
    EXPECT_EQ(solver.model_value(v), LBool::kTrue);
  }
  // Assume both literals of one clause false: UNSAT, then recovers.
  EXPECT_EQ(solver.solve({Lit(0, true), Lit(1, true)}), SolveResult::kUnsat);
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
}

}  // namespace
}  // namespace ct::sat
