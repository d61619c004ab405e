// SolverBackend contract tests: the unit-prop presolve fast path, the
// counting backend's exact-count shortcut, the selection policy, and
// the session's per-backend accounting (selected / served / escalated).
#include "sat/backend.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "sat/session.h"
#include "util/env.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

// (x0 v x1), ~x1  — propagation forces x0, x2 stays free: class 2.
Cnf propagation_decided_free() {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1)});
  cnf.add_clause({neg(1)});
  return cnf;
}

// (x0 v x1), ~x1, ~x2 — every variable forced: the unique model x0=T.
Cnf propagation_decided_unique() {
  Cnf cnf = propagation_decided_free();
  cnf.add_clause({neg(2)});
  return cnf;
}

// x0, ~x0 — propagation conflicts: UNSAT.
Cnf propagation_conflict() {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  return cnf;
}

// (x0 v x1)(~x0 v ~x1) — no units at all: propagation cannot decide.
Cnf propagation_undecided() {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0), pos(1)});
  cnf.add_clause({neg(0), neg(1)});
  return cnf;
}

TEST(UnitPropBackend, DecidesByPropagation) {
  UnitPropBackend backend;

  backend.load(propagation_decided_free());
  auto outcome = backend.presolve();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->solution_class, 2);
  EXPECT_EQ(outcome->free_vars, 1);
  EXPECT_EQ(outcome->values[0], LBool::kTrue);
  EXPECT_EQ(outcome->values[1], LBool::kFalse);
  EXPECT_EQ(outcome->values[2], LBool::kUndef);

  backend.load(propagation_decided_unique());
  outcome = backend.presolve();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->solution_class, 1);
  EXPECT_EQ(outcome->free_vars, 0);

  backend.load(propagation_conflict());
  outcome = backend.presolve();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->solution_class, 0);

  backend.load(propagation_undecided());
  EXPECT_FALSE(backend.presolve().has_value()) << "must report escalate";
}

TEST(UnitPropBackend, SearchOpsThrow) {
  UnitPropBackend backend;
  backend.load(propagation_undecided());
  EXPECT_FALSE(backend.supports_search());
  EXPECT_THROW(backend.solve({}), std::logic_error);
  EXPECT_THROW(backend.new_var(), std::logic_error);
  EXPECT_THROW(backend.add_clause({}), std::logic_error);
}

TEST(CountingBackend, ExactCountAndSearchAgree) {
  // (x0 v x1 v x2): 7 models.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});

  CountingBackend backend;
  backend.load(cnf);
  ASSERT_TRUE(backend.exact_count().has_value());
  EXPECT_EQ(*backend.exact_count(), 7u);
  // The CDCL half still answers search queries on the same load.
  EXPECT_EQ(backend.solve({}), SolveResult::kSat);

  backend.load(propagation_conflict());
  EXPECT_EQ(*backend.exact_count(), 0u);

  // CdclBackend has no counting path.
  CdclBackend cdcl;
  cdcl.load(cnf);
  EXPECT_FALSE(cdcl.exact_count().has_value());
  EXPECT_FALSE(cdcl.presolve().has_value());
}

TEST(BackendSelector, ForcedModesPinTheBackend) {
  const FormulaShape shape = shape_of(propagation_decided_free());
  const BackendWorkload workload{6, true};

  BackendSelector selector;
  selector.mode = BackendSelector::Mode::kCdcl;
  EXPECT_EQ(selector.plan(shape, workload).primary, BackendKind::kCdcl);
  selector.mode = BackendSelector::Mode::kCount;
  EXPECT_EQ(selector.plan(shape, workload).primary, BackendKind::kCount);
  EXPECT_EQ(selector.plan(shape, workload).fallback, BackendKind::kCount);
  selector.mode = BackendSelector::Mode::kUnitProp;
  EXPECT_EQ(selector.plan(shape, workload).primary, BackendKind::kUnitProp);
  EXPECT_EQ(selector.plan(shape, workload).fallback, BackendKind::kCdcl);
}

TEST(BackendSelector, AutoPicksByShapeAndWorkload) {
  BackendSelector selector;  // auto

  // Unit-rich (tomography shape): unit-prop first, whatever the size.
  FormulaShape unit_rich;
  unit_rich.num_vars = 100;
  unit_rich.num_clauses = 40;
  unit_rich.num_units = 30;
  EXPECT_EQ(selector.plan(unit_rich, {2, false}).primary, BackendKind::kUnitProp);

  // Large, few units, classification-only: plain CDCL.
  FormulaShape wide;
  wide.num_vars = 100;
  wide.num_clauses = 40;
  wide.num_units = 2;
  EXPECT_EQ(selector.plan(wide, {2, false}).primary, BackendKind::kCdcl);
  EXPECT_EQ(selector.plan(wide, {6, false}).primary, BackendKind::kCdcl);

  // Deep or unbounded counts on a sparse formula: counting backend
  // (also as the escalation target of unit-rich formulas).  A shallow
  // cap (Figure 4's 6) stays on enumeration — cheaper than one full
  // exact count.
  EXPECT_EQ(selector.plan(wide, {0, true}).primary, BackendKind::kCount);
  EXPECT_EQ(selector.plan(wide, {64, true}).primary, BackendKind::kCount);
  EXPECT_EQ(selector.plan(wide, {6, true}).primary, BackendKind::kCdcl);
  EXPECT_EQ(selector.plan(unit_rich, {0, true}).fallback, BackendKind::kCount);
  EXPECT_EQ(selector.plan(unit_rich, {6, true}).fallback, BackendKind::kCdcl);

  // ...but not on dense formulas, where DPLL counting explodes.
  FormulaShape dense;
  dense.num_vars = 40;
  dense.num_clauses = 200;
  dense.num_units = 2;
  EXPECT_EQ(selector.plan(dense, {0, true}).primary, BackendKind::kCdcl);

  // Tiny formulas always get the (nearly free) presolve attempt.
  FormulaShape tiny;
  tiny.num_vars = 8;
  tiny.num_clauses = 12;
  tiny.num_units = 1;
  EXPECT_EQ(selector.plan(tiny, {2, false}).primary, BackendKind::kUnitProp);
}

TEST(BackendSelector, ShapeOfCountsUnits) {
  const FormulaShape shape = shape_of(propagation_decided_unique());
  EXPECT_EQ(shape.num_vars, 3);
  EXPECT_EQ(shape.num_clauses, 3);
  EXPECT_EQ(shape.num_units, 2);
  EXPECT_DOUBLE_EQ(shape.density(), 1.0);
}

TEST(BackendSelector, ParseAndEnv) {
  EXPECT_EQ(BackendSelector::parse("auto"), BackendSelector::Mode::kAuto);
  EXPECT_EQ(BackendSelector::parse("cdcl"), BackendSelector::Mode::kCdcl);
  EXPECT_EQ(BackendSelector::parse("count"), BackendSelector::Mode::kCount);
  EXPECT_EQ(BackendSelector::parse("unitprop"), BackendSelector::Mode::kUnitProp);
  EXPECT_EQ(BackendSelector::parse("ipasir"), BackendSelector::Mode::kIpasir);
  EXPECT_EQ(BackendSelector::parse("portfolio"), BackendSelector::Mode::kPortfolio);
  EXPECT_FALSE(BackendSelector::parse("minisat").has_value());

  ASSERT_EQ(setenv("CT_SAT_BACKEND", "count", 1), 0);
  EXPECT_EQ(BackendSelector::from_env().mode, BackendSelector::Mode::kCount);
  // A typo'd value must fail fast, not silently fall back to auto (the
  // run would test the wrong configuration while passing).
  ASSERT_EQ(setenv("CT_SAT_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(BackendSelector::from_env(), ct::util::EnvParseError);
  ASSERT_EQ(setenv("CT_SAT_BACKEND", "", 1), 0);
  EXPECT_THROW(BackendSelector::from_env(), ct::util::EnvParseError);
  unsetenv("CT_SAT_BACKEND");
  EXPECT_EQ(BackendSelector::from_env().mode, BackendSelector::Mode::kAuto);
}

TEST(BackendSelector, PortfolioEnvKnobs) {
  unsetenv("CT_SAT_BACKEND");
  unsetenv("CT_SAT_PORTFOLIO");
  unsetenv("CT_SAT_PORTFOLIO_WIDTH");

  // Default: racing off, width 1 (no thread-budget division).
  EXPECT_EQ(BackendSelector::from_env().portfolio_width, 0u);
  EXPECT_EQ(BackendSelector::from_env().racing_width(), 1u);

  // CT_SAT_PORTFOLIO=1 arms auto-mode racing at the default width.
  ASSERT_EQ(setenv("CT_SAT_PORTFOLIO", "1", 1), 0);
  EXPECT_EQ(BackendSelector::from_env().portfolio_width, kDefaultPortfolioWidth);
  EXPECT_EQ(BackendSelector::from_env().racing_width(), kDefaultPortfolioWidth);

  ASSERT_EQ(setenv("CT_SAT_PORTFOLIO_WIDTH", "3", 1), 0);
  EXPECT_EQ(BackendSelector::from_env().portfolio_width, 3u);

  // The width knob alone changes nothing while racing is off.
  ASSERT_EQ(setenv("CT_SAT_PORTFOLIO", "0", 1), 0);
  EXPECT_EQ(BackendSelector::from_env().portfolio_width, 0u);

  // Bad values fail fast, with the accepted values in the message.
  ASSERT_EQ(setenv("CT_SAT_PORTFOLIO", "yes", 1), 0);
  EXPECT_THROW(BackendSelector::from_env(), ct::util::EnvParseError);
  ASSERT_EQ(setenv("CT_SAT_PORTFOLIO", "1", 1), 0);
  for (const char* bad : {"1", "5", "22", "two", ""}) {
    ASSERT_EQ(setenv("CT_SAT_PORTFOLIO_WIDTH", bad, 1), 0);
    try {
      BackendSelector::from_env();
      FAIL() << "width \"" << bad << "\" should be rejected";
    } catch (const ct::util::EnvParseError& e) {
      EXPECT_NE(std::string(e.what()).find("2..4"), std::string::npos) << e.what();
    }
  }

  // Forced portfolio mode parses from the same CT_SAT_BACKEND knob.
  unsetenv("CT_SAT_PORTFOLIO");
  unsetenv("CT_SAT_PORTFOLIO_WIDTH");
  ASSERT_EQ(setenv("CT_SAT_BACKEND", "portfolio", 1), 0);
  const BackendSelector forced = BackendSelector::from_env();
  EXPECT_EQ(forced.mode, BackendSelector::Mode::kPortfolio);
  EXPECT_GE(forced.racing_width(), 2u) << "forced mode always races";
  ASSERT_EQ(setenv("CT_SAT_BACKEND", "ipasir", 1), 0);
  EXPECT_EQ(BackendSelector::from_env().mode, BackendSelector::Mode::kIpasir);
  unsetenv("CT_SAT_BACKEND");
}

TEST(SolverSession, CountsBackendSelectionAndEscalation) {
  SolverSession session;
  const BackendPlan unitprop{BackendKind::kUnitProp, BackendKind::kCdcl};

  session.load(propagation_decided_free(), unitprop);
  EXPECT_TRUE(session.presolved());
  EXPECT_EQ(session.active_backend(), BackendKind::kUnitProp);
  EXPECT_EQ(session.classify().solution_class, 2);

  session.load(propagation_undecided(), unitprop);
  EXPECT_FALSE(session.presolved());
  EXPECT_EQ(session.active_backend(), BackendKind::kCdcl) << "escalated";
  EXPECT_EQ(session.classify().solution_class, 2);

  const auto& stats = session.stats();
  const auto up = static_cast<std::size_t>(BackendKind::kUnitProp);
  const auto cdcl = static_cast<std::size_t>(BackendKind::kCdcl);
  EXPECT_EQ(stats.backends[up].selected, 2u);
  EXPECT_EQ(stats.backends[up].served, 1u);
  EXPECT_EQ(stats.backends[up].escalated, 1u);
  EXPECT_EQ(stats.backends[cdcl].served, 1u);
  EXPECT_EQ(stats.cnf_loads, 2u);
}

TEST(SolverSession, DefaultLoadServesCdcl) {
  SolverSession session(propagation_decided_free());
  EXPECT_FALSE(session.presolved());
  EXPECT_EQ(session.active_backend(), BackendKind::kCdcl);
  const auto cdcl = static_cast<std::size_t>(BackendKind::kCdcl);
  EXPECT_EQ(session.stats().backends[cdcl].selected, 1u);
  EXPECT_EQ(session.stats().backends[cdcl].served, 1u);
  EXPECT_EQ(session.stats().backends[cdcl].escalated, 0u);
}

TEST(SolverSession, PresolveEnumerationBeyond64FreeVars) {
  // ~x0 over 70 variables: presolve-decided with 69 free vars, count
  // saturated at kCountCap.  Enumeration must stay defined (free
  // positions past bit 61 of the model index are always 0) and yield
  // distinct models.
  Cnf cnf;
  cnf.num_vars = 70;
  cnf.add_clause({neg(0)});
  SolverSession session(cnf, BackendPlan{BackendKind::kUnitProp, BackendKind::kCdcl});
  ASSERT_TRUE(session.presolved());
  EXPECT_EQ(session.count_models_capped(5), 5u);
  EXPECT_EQ(session.count_models_capped(0), kCountCap) << "saturated exact count";

  const EnumerateResult models = session.enumerate({.max_models = 4, .projection = {}});
  ASSERT_EQ(models.models.size(), 4u);
  EXPECT_TRUE(models.truncated);
  for (std::size_t i = 0; i < models.models.size(); ++i) {
    for (std::size_t j = i + 1; j < models.models.size(); ++j) {
      EXPECT_NE(models.models[i], models.models[j]) << "duplicate materialized model";
    }
    EXPECT_EQ(models.models[i][0], neg(0)) << "forced literal must hold in every model";
  }
}

TEST(MakeBackend, ProducesEveryKind) {
  for (const BackendKind kind :
       {BackendKind::kCdcl, BackendKind::kCount, BackendKind::kUnitProp}) {
    const auto backend = make_backend(kind);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
  }
  EXPECT_STREQ(to_string(BackendKind::kUnitProp), "unitprop");
}

}  // namespace
}  // namespace ct::sat
