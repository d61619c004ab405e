// Randomized cross-backend agreement (the multi-backend determinism
// contract at the sat layer): on random small CNFs, the DPLL
// ModelCounter, SolverSession enumeration on the CDCL backend, the
// counting backend's fast paths, and UnitPropBackend classifications
// must all agree — with a brute-force truth table as the referee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "../support/fuzz_seed.h"
#include "sat/backend.h"
#include "sat/counter.h"
#include "sat/session.h"
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

/// Ground truth by exhausting all 2^num_vars assignments.
struct Oracle {
  std::uint64_t count = 0;
  std::uint32_t ever_true = 0;  // bitmask of vars true in some model

  explicit Oracle(const Cnf& cnf) {
    for (std::uint32_t a = 0; a < (1u << cnf.num_vars); ++a) {
      bool sat = true;
      for (const auto& clause : cnf.clauses) {
        if (!clause_satisfied(clause, a)) {
          sat = false;
          break;
        }
      }
      if (sat) {
        ++count;
        ever_true |= a;
      }
    }
  }
};

std::set<std::uint32_t> model_set(const std::vector<std::vector<Lit>>& models) {
  std::set<std::uint32_t> out;
  for (const auto& m : models) {
    std::uint32_t bits = 0;
    for (const Lit l : m) {
      if (!l.negated()) bits |= 1u << l.var();
    }
    out.insert(bits);
  }
  return out;
}

/// Tomography-shaped random CNF (positive disjunctions + negative
/// units + a few mixed clauses), as the engine's CNFs look.
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

TEST(BackendFuzz, CounterSessionAndUnitPropAgreeOnRandomCnfs) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260730);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::int64_t presolve_decided = 0;
  std::int64_t escalated = 0;

  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(2, 10));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);

    // Referee 1: the DPLL model counter.
    ModelCounter counter;
    EXPECT_EQ(counter.count(cnf).count, oracle.count);

    // Referee 2: CDCL-backed session enumeration.
    SolverSession cdcl(cnf, BackendPlan{BackendKind::kCdcl, BackendKind::kCdcl});
    EXPECT_EQ(cdcl.count_models_capped(0), oracle.count);
    EXPECT_EQ(cdcl.classify().solution_class,
              static_cast<int>(std::min<std::uint64_t>(oracle.count, 2)));
    const PotentialTrueResult cdcl_split = cdcl.potential_true_vars();

    // Counting backend: classification and counts without enumeration.
    SolverSession count(cnf, BackendPlan{BackendKind::kCount, BackendKind::kCount});
    EXPECT_EQ(count.classify().solution_class, cdcl.classify().solution_class);
    EXPECT_EQ(count.count_models_capped(0), oracle.count);
    EXPECT_EQ(count.count_models_capped(3), std::min<std::uint64_t>(oracle.count, 3));
    const PotentialTrueResult count_split = count.potential_true_vars();
    EXPECT_EQ(count_split.potential_true, cdcl_split.potential_true);
    EXPECT_EQ(count_split.always_false, cdcl_split.always_false);

    // Unit-prop fast path (with CDCL escalation when undecided): every
    // query must agree with the CDCL session, and a decided presolve
    // must match the oracle exactly.
    SolverSession unitprop(cnf, BackendPlan{BackendKind::kUnitProp, BackendKind::kCdcl});
    (unitprop.presolved() ? presolve_decided : escalated) += 1;
    EXPECT_EQ(unitprop.classify().solution_class, cdcl.classify().solution_class);
    EXPECT_EQ(unitprop.count_models_capped(0), oracle.count);
    EXPECT_EQ(unitprop.satisfiable(), oracle.count > 0);
    const PotentialTrueResult up_split = unitprop.potential_true_vars();
    EXPECT_EQ(up_split.potential_true, cdcl_split.potential_true);
    EXPECT_EQ(up_split.always_false, cdcl_split.always_false);

    // Full enumerations yield the same model *set* whichever engine
    // produced them (discovery order is backend-specific).
    const auto cap = static_cast<std::uint64_t>(1) << num_vars;
    const EnumerateOptions all{.max_models = cap, .projection = {}};
    const auto cdcl_models = model_set(cdcl.enumerate(all).models);
    EXPECT_EQ(cdcl_models.size(), oracle.count);
    EXPECT_EQ(model_set(unitprop.enumerate(all).models), cdcl_models);
    EXPECT_EQ(model_set(count.enumerate(all).models), cdcl_models);

    // Standalone UnitPropBackend: a decided outcome is oracle-exact.
    UnitPropBackend backend;
    backend.load(cnf);
    if (const auto outcome = backend.presolve()) {
      EXPECT_EQ(outcome->solution_class,
                static_cast<int>(std::min<std::uint64_t>(oracle.count, 2)));
      if (outcome->solution_class > 0) {
        EXPECT_EQ(std::uint64_t{1} << outcome->free_vars, oracle.count);
        for (Var v = 0; v < num_vars; ++v) {
          const bool can_be_true = (oracle.ever_true >> v) & 1u;
          EXPECT_EQ(outcome->values[static_cast<std::size_t>(v)] != LBool::kFalse,
                    can_be_true)
              << "var " << v;
        }
      }
    }
  }

  // The generator must exercise both paths, or the suite proves nothing.
  EXPECT_GT(presolve_decided, 0) << "no CNF was decided by unit propagation";
  EXPECT_GT(escalated, 0) << "no CNF escalated to the CDCL fallback";
}

}  // namespace
}  // namespace ct::sat
