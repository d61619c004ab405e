// Property-based tests: the CDCL solver, the enumerator, and the exact
// counter must all agree with a brute-force reference on random small
// formulas.  Parameterized over (seed, num_vars, num_clauses, clause_len)
// sweeps.
#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sat/counter.h"
#include "sat/enumerate.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace ct::sat {
namespace {

struct RandomCnfParams {
  std::uint64_t seed;
  int num_vars;
  int num_clauses;
  int max_clause_len;
};

Cnf random_cnf(const RandomCnfParams& p) {
  util::Rng rng(p.seed);
  Cnf cnf;
  cnf.num_vars = p.num_vars;
  for (int c = 0; c < p.num_clauses; ++c) {
    const int len = static_cast<int>(rng.uniform_int(1, p.max_clause_len));
    std::vector<Lit> clause;
    for (int i = 0; i < len; ++i) {
      const auto v = static_cast<Var>(rng.index(static_cast<std::size_t>(p.num_vars)));
      clause.emplace_back(v, rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

/// Brute force: iterate over all 2^n assignments.
std::uint64_t brute_force_count(const Cnf& cnf) {
  std::uint64_t count = 0;
  const auto n = static_cast<std::uint32_t>(cnf.num_vars);
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool all_sat = true;
    for (const auto& clause : cnf.clauses) {
      bool sat = false;
      for (const Lit l : clause) {
        const bool val = (mask >> l.var()) & 1;
        if (val != l.negated()) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all_sat = false;
        break;
      }
    }
    count += all_sat ? 1 : 0;
  }
  return count;
}

/// Brute force per-variable "true in some model".
std::vector<bool> brute_force_potential_true(const Cnf& cnf) {
  std::vector<bool> potential(static_cast<std::size_t>(cnf.num_vars), false);
  const auto n = static_cast<std::uint32_t>(cnf.num_vars);
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool all_sat = true;
    for (const auto& clause : cnf.clauses) {
      bool sat = false;
      for (const Lit l : clause) {
        if (((mask >> l.var()) & 1) != static_cast<unsigned>(l.negated())) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all_sat = false;
        break;
      }
    }
    if (!all_sat) continue;
    for (std::uint32_t v = 0; v < n; ++v) {
      if ((mask >> v) & 1) potential[v] = true;
    }
  }
  return potential;
}

class SatAgreement : public ::testing::TestWithParam<RandomCnfParams> {};

TEST_P(SatAgreement, SolverAgreesWithBruteForce) {
  const Cnf cnf = random_cnf(GetParam());
  const std::uint64_t expected = brute_force_count(cnf);
  Solver solver;
  const bool added = solver.add_cnf(cnf);
  const SolveResult result = added ? solver.solve() : SolveResult::kUnsat;
  EXPECT_EQ(result == SolveResult::kSat, expected > 0);
  if (result == SolveResult::kSat) {
    // The model must satisfy every clause.
    for (const auto& clause : cnf.clauses) {
      bool sat = false;
      for (const Lit l : clause) {
        const LBool v = solver.model_value(l.var());
        sat = sat || (l.negated() ? v == LBool::kFalse : v == LBool::kTrue);
      }
      EXPECT_TRUE(sat);
    }
  }
}

TEST_P(SatAgreement, CounterAgreesWithBruteForce) {
  const Cnf cnf = random_cnf(GetParam());
  ModelCounter mc;
  EXPECT_EQ(mc.count(cnf).count, brute_force_count(cnf));
}

TEST_P(SatAgreement, EnumerationAgreesWithBruteForce) {
  const Cnf cnf = random_cnf(GetParam());
  const std::uint64_t expected = brute_force_count(cnf);
  const auto r = enumerate_models(cnf, {.max_models = 1ULL << 16, .projection = {}});
  EXPECT_EQ(r.models.size(), expected);
  EXPECT_FALSE(r.truncated);
}

TEST_P(SatAgreement, PotentialTrueAgreesWithBruteForce) {
  const Cnf cnf = random_cnf(GetParam());
  const auto expected = brute_force_potential_true(cnf);
  const auto r = potential_true_vars(cnf);
  if (brute_force_count(cnf) == 0) {
    EXPECT_FALSE(r.satisfiable);
    return;
  }
  ASSERT_TRUE(r.satisfiable);
  std::vector<bool> got(static_cast<std::size_t>(cnf.num_vars), false);
  for (const Var v : r.potential_true) got[static_cast<std::size_t>(v)] = true;
  EXPECT_EQ(got, expected);
  // always_false must be the exact complement.
  for (const Var v : r.always_false) EXPECT_FALSE(expected[static_cast<std::size_t>(v)]);
  EXPECT_EQ(r.potential_true.size() + r.always_false.size(),
            static_cast<std::size_t>(cnf.num_vars));
}

std::vector<RandomCnfParams> make_params() {
  std::vector<RandomCnfParams> params;
  std::uint64_t seed = 1000;
  for (const int vars : {3, 5, 8, 10, 12}) {
    for (const int clauses : {2, 5, 10, 20, 40}) {
      for (const int len : {2, 3, 4}) {
        params.push_back({seed++, vars, clauses, len});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomCnfs, SatAgreement, ::testing::ValuesIn(make_params()),
                         [](const ::testing::TestParamInfo<RandomCnfParams>& info) {
                           // Appended piecewise: GCC 12 misreports
                           // `"literal" + std::string` as -Wrestrict.
                           const auto& p = info.param;
                           std::string name = "s";
                           name += std::to_string(p.seed);
                           name += "_v";
                           name += std::to_string(p.num_vars);
                           name += "_c";
                           name += std::to_string(p.num_clauses);
                           name += "_l";
                           name += std::to_string(p.max_clause_len);
                           return name;
                         });

// Tomography-shaped formulas: unit-negative clauses plus positive
// disjunctions, exactly the structure the paper generates.
class TomoShapedCnf : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TomoShapedCnf, AllEnginesAgree) {
  util::Rng rng(GetParam());
  Cnf cnf;
  cnf.num_vars = 12;
  // A few "censored path" clauses.
  const int positives = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < positives; ++i) {
    std::vector<Lit> clause;
    const int len = static_cast<int>(rng.uniform_int(2, 5));
    for (int k = 0; k < len; ++k) {
      clause.emplace_back(static_cast<Var>(rng.index(12)), false);
    }
    cnf.add_clause(std::move(clause));
  }
  // Many "clean path" negative units.
  const int negatives = static_cast<int>(rng.uniform_int(2, 10));
  for (int i = 0; i < negatives; ++i) {
    cnf.add_clause({Lit(static_cast<Var>(rng.index(12)), true)});
  }

  const std::uint64_t expected = brute_force_count(cnf);
  ModelCounter mc;
  EXPECT_EQ(mc.count(cnf).count, expected);
  const auto r = enumerate_models(cnf, {.max_models = 1ULL << 16, .projection = {}});
  EXPECT_EQ(r.models.size(), expected);
  Solver solver;
  const bool ok = solver.add_cnf(cnf);
  EXPECT_EQ(ok && solver.solve() == SolveResult::kSat, expected > 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TomoShapedCnf, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace ct::sat
