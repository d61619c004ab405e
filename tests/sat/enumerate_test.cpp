#include "sat/enumerate.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

Cnf disjunction3() {
  // (x0 v x1 v x2): 7 models over 3 vars.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  return cnf;
}

TEST(Enumerate, CountsSimpleDisjunction) {
  const auto r = enumerate_models(disjunction3(), {.max_models = 100, .projection = {}});
  EXPECT_EQ(r.models.size(), 7u);
  EXPECT_FALSE(r.truncated);
}

TEST(Enumerate, ModelsAreDistinct) {
  auto r = enumerate_models(disjunction3(), {.max_models = 100, .projection = {}});
  auto models = r.models;
  for (auto& m : models) std::sort(m.begin(), m.end(), [](Lit a, Lit b) { return a.code() < b.code(); });
  std::sort(models.begin(), models.end(), [](const auto& a, const auto& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                        [](Lit x, Lit y) { return x.code() < y.code(); });
  });
  EXPECT_EQ(std::adjacent_find(models.begin(), models.end()), models.end());
}

TEST(Enumerate, TruncationFlag) {
  const auto r = enumerate_models(disjunction3(), {.max_models = 3, .projection = {}});
  EXPECT_EQ(r.models.size(), 3u);
  EXPECT_TRUE(r.truncated);
}

TEST(Enumerate, ExactCapNotMarkedTruncated) {
  const auto r = enumerate_models(disjunction3(), {.max_models = 7, .projection = {}});
  EXPECT_EQ(r.models.size(), 7u);
  EXPECT_FALSE(r.truncated);
}

TEST(Enumerate, UnsatHasNoModels) {
  Cnf cnf;
  cnf.num_vars = 1;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  const auto r = enumerate_models(cnf);
  EXPECT_TRUE(r.models.empty());
}

TEST(Enumerate, ProjectionMergesModels) {
  // (x0 v x1 v x2), projected onto {x0}: models are x0=T and x0=F
  // (the latter covered by x1/x2), so exactly 2 projected models.
  Cnf cnf = disjunction3();
  EnumerateOptions opt;
  opt.max_models = 100;
  opt.projection = {0};
  const auto r = enumerate_models(cnf, opt);
  EXPECT_EQ(r.models.size(), 2u);
}

TEST(Enumerate, FreeVariableDoubles) {
  // x0 forced true; x1 unconstrained: 2 models over both vars.
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0)});
  const auto r = enumerate_models(cnf, {.max_models = 100, .projection = {}});
  EXPECT_EQ(r.models.size(), 2u);
}

TEST(CountCapped, MatchesEnumeration) {
  EXPECT_EQ(count_models_capped(disjunction3(), 100), 7u);
  EXPECT_EQ(count_models_capped(disjunction3(), 4), 4u);
}

TEST(Classify, ZeroSolutions) {
  Cnf cnf;
  cnf.num_vars = 1;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  const auto c = classify_solution_count(cnf);
  EXPECT_EQ(c.solution_class, 0);
  EXPECT_FALSE(c.unique_model.has_value());
}

TEST(Classify, UniqueSolution) {
  // Paper scenario: (X v Y v Z) & ~X & ~Y  ==> unique model Z.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  cnf.add_clause({neg(0)});
  cnf.add_clause({neg(1)});
  const auto c = classify_solution_count(cnf);
  ASSERT_EQ(c.solution_class, 1);
  ASSERT_TRUE(c.unique_model.has_value());
  // Find x2's polarity in the unique model.
  bool z_true = false;
  for (const Lit l : *c.unique_model) {
    if (l.var() == 2) z_true = !l.negated();
  }
  EXPECT_TRUE(z_true);
}

TEST(Classify, MultipleSolutions) {
  const auto c = classify_solution_count(disjunction3());
  EXPECT_EQ(c.solution_class, 2);
}

TEST(PotentialTrue, SplitsCensorsFromNonCensors) {
  // (x0 v x1 v x2) & ~x0: x0 can never be true; x1, x2 can.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  cnf.add_clause({neg(0)});
  const auto r = potential_true_vars(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.always_false, (std::vector<Var>{0}));
  EXPECT_EQ(r.potential_true, (std::vector<Var>{1, 2}));
}

TEST(PotentialTrue, UnsatGivesNothing) {
  Cnf cnf;
  cnf.num_vars = 1;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  const auto r = potential_true_vars(cnf);
  EXPECT_FALSE(r.satisfiable);
  EXPECT_TRUE(r.potential_true.empty());
  EXPECT_TRUE(r.always_false.empty());
}

TEST(PotentialTrue, RestrictedVariableSet) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.add_clause({pos(0), pos(1)});
  cnf.add_clause({neg(2)});
  const auto r = potential_true_vars(cnf, {2, 3});
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.always_false, (std::vector<Var>{2}));
  EXPECT_EQ(r.potential_true, (std::vector<Var>{3}));
}

TEST(PotentialTrue, AllFreeVarsPotentiallyTrue) {
  Cnf cnf;
  cnf.num_vars = 3;  // no clauses at all
  const auto r = potential_true_vars(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.potential_true.size(), 3u);
  EXPECT_TRUE(r.always_false.empty());
}

}  // namespace
}  // namespace ct::sat
