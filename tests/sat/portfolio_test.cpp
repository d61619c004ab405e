// Portfolio racing backend (sat/portfolio.h): first-writer-wins
// arbitration under real contention, byte-identical answers whichever
// diversified member wins (forced via injected delays), prompt loser
// cancellation, hardness-probe short-circuiting, session reuse across
// races, and the racing stats accounting.
#include "sat/portfolio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sat/session.h"
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

bool model_satisfies(const SolverBackend& backend, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      const LBool v = backend.model_value(l.var());
      sat = sat || (l.negated() ? v == LBool::kFalse : v == LBool::kTrue);
    }
    if (!sat) return false;
  }
  return true;
}

/// Clears the process-wide injected delays on scope exit, so a failing
/// assertion cannot leak a forced-winner setup into later tests.
struct DelayGuard {
  ~DelayGuard() { set_portfolio_test_delays({}); }
};

TEST(RaceArbiter, FirstClaimWinsAndCancelsEveryoneElse) {
  RaceArbiter arbiter;
  arbiter.reset(4);
  EXPECT_EQ(arbiter.winner(), -1);
  for (unsigned m = 0; m < 4; ++m) {
    EXPECT_FALSE(arbiter.stop_flag(m)->load());
  }
  EXPECT_TRUE(arbiter.claim(2));
  EXPECT_FALSE(arbiter.claim(1)) << "second claim must lose";
  EXPECT_EQ(arbiter.winner(), 2);
  for (unsigned m = 0; m < 4; ++m) {
    EXPECT_EQ(arbiter.stop_flag(m)->load(), m != 2) << "member " << m;
  }
  arbiter.reset(4);
  EXPECT_EQ(arbiter.winner(), -1);
  for (unsigned m = 0; m < 4; ++m) {
    EXPECT_FALSE(arbiter.stop_flag(m)->load()) << "reset must lower flag " << m;
  }
}

TEST(RaceArbiter, ConcurrentClaimsElectExactlyOneWinner) {
  RaceArbiter arbiter;
  for (int trial = 0; trial < 64; ++trial) {
    arbiter.reset(4);
    std::atomic<int> wins{0};
    std::atomic<int> winner_id{-1};
    std::vector<std::thread> claimers;
    for (unsigned m = 0; m < 4; ++m) {
      claimers.emplace_back([&arbiter, &wins, &winner_id, m] {
        if (arbiter.claim(m)) {
          wins.fetch_add(1);
          winner_id.store(static_cast<int>(m));
        }
      });
    }
    for (std::thread& t : claimers) t.join();
    EXPECT_EQ(wins.load(), 1);
    EXPECT_EQ(arbiter.winner(), winner_id.load());
    // Every loser's stop flag is raised; the winner's is not.
    for (unsigned m = 0; m < 4; ++m) {
      EXPECT_EQ(arbiter.stop_flag(m)->load(), static_cast<int>(m) != arbiter.winner());
    }
  }
}

TEST(Portfolio, WidthIsClampedAndRebuildsMembers) {
  PortfolioBackend p(99);
  EXPECT_EQ(p.width(), kMaxPortfolioWidth);
  p.set_width(0);
  EXPECT_EQ(p.width(), 1u);
  p.set_width(3);
  EXPECT_EQ(p.width(), 3u);
}

TEST(Portfolio, MemberConfigsAreDiversified) {
  // Racing identical searches would be pure waste: every slot must
  // differ from slot 0 in at least one semantically-neutral knob.
  const SolverConfig base = PortfolioBackend::member_config(0);
  for (unsigned m = 1; m < kMaxPortfolioWidth; ++m) {
    const SolverConfig c = PortfolioBackend::member_config(m);
    const bool differs = c.restart_base != base.restart_base ||
                         c.restart_scale != base.restart_scale ||
                         c.init_polarity != base.init_polarity ||
                         c.var_decay != base.var_decay ||
                         c.clause_decay != base.clause_decay;
    EXPECT_TRUE(differs) << "member " << m << " duplicates the reference config";
  }
}

TEST(Portfolio, RacedAnswersMatchCdclAtEveryWidth) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // Ratio ~4.2: near the threshold, mixed SAT/UNSAT across seeds.
    const Cnf cnf = random_3sat(60, 252, seed);
    CdclBackend reference;
    reference.load(cnf);
    const SolveResult expected = reference.solve({});
    ASSERT_NE(expected, SolveResult::kUnknown);

    for (unsigned width = 1; width <= kMaxPortfolioWidth; ++width) {
      SCOPED_TRACE("width=" + std::to_string(width));
      PortfolioBackend p(width);
      p.set_probe_budget(0);  // race immediately — no probe short-circuit
      p.load(cnf);
      EXPECT_EQ(p.solve({}), expected);
      if (expected == SolveResult::kSat) {
        EXPECT_TRUE(model_satisfies(p, cnf)) << "winner must serve a real model";
      }
      const PortfolioStats& stats = p.portfolio_stats();
      if (width >= 2) {
        EXPECT_EQ(stats.races, 1u);
        EXPECT_EQ(stats.races_won_total(), 1u);
        EXPECT_EQ(stats.probe_decided, 0u);
      } else {
        EXPECT_EQ(stats.races, 0u);
      }
    }
  }
}

TEST(Portfolio, ProbeDecidesEasyFormulasWithoutSpawningARace) {
  // Far below the threshold: the 2k-conflict probe decides instantly.
  const Cnf cnf = random_3sat(40, 80, 7);
  PortfolioBackend p(2);
  p.load(cnf);
  EXPECT_EQ(p.solve({}), SolveResult::kSat);
  EXPECT_EQ(p.portfolio_stats().probe_decided, 1u);
  EXPECT_EQ(p.portfolio_stats().races, 0u);
}

TEST(Portfolio, InjectedDelaysForceEachMemberToWinWithIdenticalAnswers) {
  DelayGuard guard;
  const Cnf cnf = random_3sat(60, 250, 21);
  CdclBackend reference;
  reference.load(cnf);
  const SolveResult expected = reference.solve({});
  ASSERT_NE(expected, SolveResult::kUnknown);

  using std::chrono::milliseconds;
  const std::vector<std::vector<std::chrono::nanoseconds>> patterns = {
      {},                                  // natural race
      {milliseconds(200), milliseconds(0)},  // member 1 wins
      {milliseconds(0), milliseconds(200)},  // member 0 wins
  };
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    SCOPED_TRACE("pattern=" + std::to_string(i));
    set_portfolio_test_delays(patterns[i]);
    PortfolioBackend p(2);
    p.set_probe_budget(0);
    p.load(cnf);
    EXPECT_EQ(p.solve({}), expected) << "the winner must not change the answer";
    if (expected == SolveResult::kSat) { EXPECT_TRUE(model_satisfies(p, cnf)); }

    const PortfolioStats& stats = p.portfolio_stats();
    EXPECT_EQ(stats.races, 1u);
    if (i == 1) {
      EXPECT_EQ(stats.won[1], 1u) << "the delayed member 0 cannot have won";
      EXPECT_EQ(stats.cancels, 1u);
    }
    if (i == 2) {
      EXPECT_EQ(stats.won[0], 1u) << "the delayed member 1 cannot have won";
      EXPECT_EQ(stats.cancels, 1u);
    }
    // A cancelled loser must tear down promptly: the delay slices poll
    // the stop flag every 200us and the search loop polls per
    // iteration, so observed latency stays far under a restart period.
    EXPECT_LT(stats.cancel_ns_max, 1'000'000'000ull);
  }
}

TEST(Portfolio, FuzzedDelayInterleavingsKeepSessionQueriesByteIdentical) {
  DelayGuard guard;
  util::Rng rng(2017);
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Cnf cnf = random_3sat(48, 190, seed);

    // Ground truth on the plain CDCL backend.
    SolverSession reference(cnf);
    const auto ref_class = reference.classify();
    const std::uint64_t ref_count = reference.count_models_capped(6);
    const auto ref_potential = reference.potential_true_vars();

    BackendPlan plan;
    plan.primary = BackendKind::kPortfolio;
    plan.portfolio_width = 2;
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      // Random per-member delays (0..2ms): every interleaving of
      // member finishes must produce the same semantic answers.
      set_portfolio_test_delays({std::chrono::microseconds(rng.index(2000)),
                                 std::chrono::microseconds(rng.index(2000))});
      SolverSession session(cnf, plan);
      const auto got_class = session.classify();
      EXPECT_EQ(got_class.solution_class, ref_class.solution_class);
      EXPECT_EQ(got_class.unique_model, ref_class.unique_model);
      EXPECT_EQ(session.count_models_capped(6), ref_count);
      const auto got_potential = session.potential_true_vars();
      EXPECT_EQ(got_potential.satisfiable, ref_potential.satisfiable);
      EXPECT_EQ(got_potential.potential_true, ref_potential.potential_true);
      EXPECT_EQ(got_potential.always_false, ref_potential.always_false);
    }
  }
}

TEST(Portfolio, FullEnumerationYieldsTheSameModelSetUnderRacing) {
  // Loose formula with a handful of models: racing changes discovery
  // order at most, never the enumerated set.
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  cnf.add_clause({Lit(2, false), Lit(3, false)});
  cnf.add_clause({Lit(0, true), Lit(2, true)});

  SolverSession reference(cnf);
  auto ref_models = reference.enumerate().models;
  std::sort(ref_models.begin(), ref_models.end());
  ASSERT_FALSE(ref_models.empty());

  BackendPlan plan;
  plan.primary = BackendKind::kPortfolio;
  plan.portfolio_width = 3;
  SolverSession session(cnf, plan);
  auto got_models = session.enumerate().models;
  std::sort(got_models.begin(), got_models.end());
  EXPECT_EQ(got_models, ref_models);
}

TEST(Portfolio, SessionReuseAcrossLoadsKeepsRacingAndStaysCorrect) {
  BackendPlan plan;
  plan.primary = BackendKind::kPortfolio;
  plan.portfolio_width = 2;
  SolverSession session;
  SolverSession reference;
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL, 44ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Cnf cnf = random_3sat(55, 230, seed);
    session.load(cnf, plan);
    reference.load(cnf);
    EXPECT_EQ(session.satisfiable(), reference.satisfiable());
    EXPECT_EQ(session.classify().solution_class, reference.classify().solution_class);
  }
  // Racing engaged at least somewhere across the loads, and the
  // session-level mirror carries the backend's counters.
  const SessionStats& stats = session.stats();
  EXPECT_GT(stats.portfolio.races + stats.portfolio.probe_decided, 0u);
}

TEST(Portfolio, ConflictAccountingSplitsWinnerFromWastedWork) {
  const Cnf cnf = random_3sat(60, 252, 55);
  PortfolioBackend p(2);
  p.set_probe_budget(0);
  p.load(cnf);
  for (int i = 0; i < 3; ++i) ASSERT_NE(p.solve({}), SolveResult::kUnknown);

  const PortfolioStats& stats = p.portfolio_stats();
  EXPECT_EQ(stats.races, 3u);
  EXPECT_EQ(stats.races_won_total(), 3u);
  // With probe disabled, every member conflict happened inside a race,
  // so winner + wasted must account for the summed solver stats.
  EXPECT_EQ(stats.winner_conflicts + stats.wasted_conflicts, p.solver_stats().conflicts);
  EXPECT_GE(stats.wasted_ratio(), 0.0);
  EXPECT_LE(stats.wasted_ratio(), 1.0);
}

TEST(Portfolio, StatsMergeSumsCountersAndMaxesLatency) {
  PortfolioStats a;
  a.races = 2;
  a.won[0] = 1;
  a.won[1] = 1;
  a.winner_conflicts = 10;
  a.wasted_conflicts = 30;
  a.cancels = 2;
  a.cancel_ns_total = 500;
  a.cancel_ns_max = 400;
  PortfolioStats b;
  b.races = 1;
  b.probe_decided = 5;
  b.won[1] = 1;
  b.winner_conflicts = 5;
  b.wasted_conflicts = 5;
  b.cancels = 1;
  b.cancel_ns_total = 100;
  b.cancel_ns_max = 100;
  a += b;
  EXPECT_EQ(a.races, 3u);
  EXPECT_EQ(a.probe_decided, 5u);
  EXPECT_EQ(a.won[0], 1u);
  EXPECT_EQ(a.won[1], 2u);
  EXPECT_EQ(a.races_won_total(), 3u);
  EXPECT_EQ(a.winner_conflicts, 15u);
  EXPECT_EQ(a.wasted_conflicts, 35u);
  EXPECT_DOUBLE_EQ(a.wasted_ratio(), 0.7);
  EXPECT_EQ(a.cancels, 3u);
  EXPECT_EQ(a.cancel_ns_total, 600u);
  EXPECT_EQ(a.cancel_ns_max, 400u) << "max, not sum";
}

}  // namespace
}  // namespace ct::sat
