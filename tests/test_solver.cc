/**
 * @file
 * Tests for the CP-SAT-style solver: propagation, implications,
 * optimality on knapsack-like problems, status reporting, limits, the
 * trail/watch-list machinery behind the fast engine, and randomized
 * equivalence checks against brute-force enumeration (both engines).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "solver/model.hh"
#include "solver/solver.hh"
#include "solver/trail.hh"

namespace flashmem::solver {
namespace {

TEST(CpModel, VariableBookkeeping)
{
    CpModel m;
    auto x = m.newIntVar(0, 10, "x");
    auto y = m.newIntVar(-5, 5, "y");
    EXPECT_EQ(m.varCount(), 2u);
    EXPECT_EQ(m.lowerBound(x), 0);
    EXPECT_EQ(m.upperBound(y), 5);
    EXPECT_EQ(m.varName(x), "x");
}

TEST(CpModel, RejectsEmptyDomain)
{
    CpModel m;
    EXPECT_DEATH(m.newIntVar(3, 2, "bad"), "empty initial domain");
}

TEST(CpSolver, SatisfiesSimpleEquality)
{
    CpModel m;
    auto x = m.newIntVar(0, 10);
    auto y = m.newIntVar(0, 10);
    m.addEquality({{x, 1}, {y, 1}}, 7);
    m.addLessOrEqual({{x, 1}}, 3);

    auto r = CpSolver().solve(m);
    ASSERT_TRUE(r.feasible());
    EXPECT_EQ(r.value(x) + r.value(y), 7);
    EXPECT_LE(r.value(x), 3);
}

TEST(CpSolver, DetectsInfeasibility)
{
    CpModel m;
    auto x = m.newIntVar(0, 5);
    m.addGreaterOrEqual({{x, 1}}, 3);
    m.addLessOrEqual({{x, 1}}, 2);
    auto r = CpSolver().solve(m);
    EXPECT_EQ(r.status, SolveStatus::Infeasible);
    EXPECT_FALSE(r.feasible());
}

TEST(CpSolver, MinimizesLinearObjective)
{
    CpModel m;
    auto x = m.newIntVar(0, 10);
    auto y = m.newIntVar(0, 10);
    m.addGreaterOrEqual({{x, 1}, {y, 1}}, 6);
    m.minimize({{x, 3}, {y, 1}});

    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    // Cheapest way to reach sum >= 6 is all-y.
    EXPECT_EQ(r.value(x), 0);
    EXPECT_EQ(r.value(y), 6);
    EXPECT_EQ(r.objective, 6);
    EXPECT_EQ(r.stopReason, StopReason::Exhausted);
}

TEST(CpSolver, SolvesKnapsackOptimally)
{
    // Maximize 6a + 5b + 4c s.t. 3a + 2b + 2c <= 6, binary vars
    // (as minimization of the negated objective). Optimum: b=c=1,a=1?
    // 3+2+2=7 > 6, so best is a=1,b=1 (w=5,v=11) vs b=1,c=1 (w=4,v=9)
    // vs a=1,c=1 (w=5,v=10) -> 11.
    CpModel m;
    auto a = m.newIntVar(0, 1);
    auto b = m.newIntVar(0, 1);
    auto c = m.newIntVar(0, 1);
    m.addLessOrEqual({{a, 3}, {b, 2}, {c, 2}}, 6);
    m.minimize({{a, -6}, {b, -5}, {c, -4}});

    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.objective, -11);
    EXPECT_EQ(r.value(a), 1);
    EXPECT_EQ(r.value(b), 1);
    EXPECT_EQ(r.value(c), 0);
}

TEST(CpSolver, ImplicationForcesBound)
{
    // (x >= 1) => (z <= 3); force x = 2, minimize -z: z must stop at 3.
    CpModel m;
    auto x = m.newIntVar(2, 2);
    auto z = m.newIntVar(0, 10);
    m.addImplicationGeLe(x, 1, z, 3);
    m.minimize({{z, -1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(z), 3);
}

TEST(CpSolver, ImplicationContrapositive)
{
    // (x >= 1) => (z <= 3); force z = 5, maximize x: x must stay 0.
    CpModel m;
    auto x = m.newIntVar(0, 4);
    auto z = m.newIntVar(5, 5);
    m.addImplicationGeLe(x, 1, z, 3);
    m.minimize({{x, -1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(x), 0);
}

TEST(CpSolver, ImplicationInactiveWhenBelowThreshold)
{
    CpModel m;
    auto x = m.newIntVar(0, 0);
    auto z = m.newIntVar(0, 10);
    m.addImplicationGeLe(x, 1, z, 3);
    m.minimize({{z, -1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(z), 10); // implication never fires
}

TEST(CpSolver, NegativeCoefficientsPropagate)
{
    // x - y == 2 with x in [0,10], y in [0,10]; minimize x.
    CpModel m;
    auto x = m.newIntVar(0, 10);
    auto y = m.newIntVar(0, 10);
    m.addEquality({{x, 1}, {y, -1}}, 2);
    m.minimize({{x, 1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(x), 2);
    EXPECT_EQ(r.value(y), 0);
}

TEST(CpSolver, WarmStartHintAccepted)
{
    CpModel m;
    auto x = m.newIntVar(0, 100);
    auto y = m.newIntVar(0, 100);
    m.addGreaterOrEqual({{x, 1}, {y, 2}}, 50);
    m.minimize({{x, 1}, {y, 1}});

    std::vector<std::int64_t> hint = {50, 0};
    auto r = CpSolver().solve(m, &hint);
    ASSERT_TRUE(r.feasible());
    // Optimal is y=25, x=0 (objective 25); the hint (50) must not win.
    EXPECT_EQ(r.objective, 25);
}

TEST(CpSolver, InvalidHintIgnored)
{
    CpModel m;
    auto x = m.newIntVar(0, 10);
    m.addLessOrEqual({{x, 1}}, 5);
    m.minimize({{x, -1}});
    std::vector<std::int64_t> bad_hint = {9}; // violates x <= 5
    auto r = CpSolver().solve(m, &bad_hint);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(x), 5);
}

TEST(CpSolver, DecisionLimitYieldsFeasibleOrUnknown)
{
    SolverParams params;
    params.maxDecisions = 3;
    CpModel m;
    std::vector<VarId> vars;
    for (int i = 0; i < 30; ++i)
        vars.push_back(m.newIntVar(0, 9));
    std::vector<LinearTerm> sum;
    for (auto v : vars)
        sum.push_back({v, 1});
    m.addGreaterOrEqual(sum, 100);
    m.minimize(sum);

    auto r = CpSolver(params).solve(m);
    EXPECT_TRUE(r.status == SolveStatus::Feasible ||
                r.status == SolveStatus::Unknown);
    EXPECT_EQ(r.stopReason, StopReason::DecisionLimit);
}

TEST(CpSolver, TimeLimitRespected)
{
    SolverParams params;
    params.timeLimitSeconds = 0.05;
    // Hard 0/1 instance: subset-sum-like with no early exit.
    CpModel m;
    Rng rng(3);
    std::vector<LinearTerm> sum;
    for (int i = 0; i < 48; ++i) {
        auto v = m.newIntVar(0, 1);
        sum.push_back({v, rng.uniformInt(7, 97)});
    }
    m.addEquality(sum, 1009);
    std::vector<LinearTerm> obj = sum;
    m.minimize(obj);

    // FMLINT(allow:no-wall-clock) speedup measurement harness; asserted bound is a ratio, not plan content
    auto t0 = std::chrono::steady_clock::now();
    auto r = CpSolver(params).solve(m);
    double elapsed =
        // FMLINT(allow:no-wall-clock) speedup measurement harness; asserted bound is a ratio, not plan content
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(elapsed, 1.0); // well within a second despite hardness
    EXPECT_EQ(r.stopReason, StopReason::TimeLimit);
    EXPECT_TRUE(r.status == SolveStatus::Feasible ||
                r.status == SolveStatus::Unknown);
}

// Randomized equivalence vs brute-force enumeration: statuses agree and
// objectives match on every seed.
class SolverVsBruteForce : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverVsBruteForce, AgreesOnRandomInstances)
{
    Rng rng(1000 + GetParam());
    const int nvars = static_cast<int>(rng.uniformInt(2, 5));
    const std::int64_t dom = rng.uniformInt(2, 4);

    CpModel m;
    for (int i = 0; i < nvars; ++i)
        m.newIntVar(0, dom);

    const int ncons = static_cast<int>(rng.uniformInt(1, 4));
    for (int c = 0; c < ncons; ++c) {
        std::vector<LinearTerm> terms;
        for (int i = 0; i < nvars; ++i) {
            auto coef = rng.uniformInt(-3, 3);
            if (coef != 0)
                terms.push_back({i, coef});
        }
        if (terms.empty())
            terms.push_back({0, 1});
        auto lo = rng.uniformInt(-6, 2);
        auto hi = lo + rng.uniformInt(0, 8);
        m.addLinear(terms, lo, hi);
    }
    if (rng.uniform() < 0.5 && nvars >= 2) {
        m.addImplicationGeLe(0, rng.uniformInt(1, dom), 1,
                             rng.uniformInt(0, dom - 1));
    }
    std::vector<LinearTerm> obj;
    for (int i = 0; i < nvars; ++i)
        obj.push_back({i, rng.uniformInt(-4, 4)});
    m.minimize(obj);

    // Brute force.
    std::vector<std::int64_t> assign(nvars, 0);
    bool bf_feasible = false;
    std::int64_t bf_best = 0;
    auto feasible = [&](const std::vector<std::int64_t> &vals) {
        for (const auto &c : m.constraints()) {
            std::int64_t s = 0;
            for (const auto &t : c.terms)
                s += t.coef * vals[t.var];
            if (s < c.lo || s > c.hi)
                return false;
        }
        for (const auto &imp : m.implications()) {
            if (vals[imp.x] >= imp.xThreshold &&
                vals[imp.y] > imp.yBound)
                return false;
        }
        return true;
    };
    std::uint64_t total = 1;
    for (int i = 0; i < nvars; ++i)
        total *= (dom + 1);
    for (std::uint64_t code = 0; code < total; ++code) {
        std::uint64_t c = code;
        for (int i = 0; i < nvars; ++i) {
            assign[i] = static_cast<std::int64_t>(c % (dom + 1));
            c /= (dom + 1);
        }
        if (!feasible(assign))
            continue;
        std::int64_t o = 0;
        for (const auto &t : obj)
            o += t.coef * assign[t.var];
        if (!bf_feasible || o < bf_best) {
            bf_feasible = true;
            bf_best = o;
        }
    }

    // Both engines must agree with the enumerator and each other.
    for (auto engine : {SearchEngine::Trail, SearchEngine::Baseline}) {
        SolverParams params;
        params.engine = engine;
        auto r = CpSolver(params).solve(m);
        if (bf_feasible) {
            ASSERT_EQ(r.status, SolveStatus::Optimal)
                << "seed " << GetParam() << " engine "
                << searchEngineName(engine);
            EXPECT_EQ(r.objective, bf_best)
                << "seed " << GetParam() << " engine "
                << searchEngineName(engine);
        } else {
            EXPECT_EQ(r.status, SolveStatus::Infeasible)
                << "seed " << GetParam() << " engine "
                << searchEngineName(engine);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverVsBruteForce,
                         ::testing::Range(0, 60));

TEST(CpSolver, StatusNames)
{
    EXPECT_STREQ(solveStatusName(SolveStatus::Optimal), "OPTIMAL");
    EXPECT_STREQ(solveStatusName(SolveStatus::Feasible), "FEASIBLE");
    EXPECT_STREQ(solveStatusName(SolveStatus::Infeasible), "INFEASIBLE");
    EXPECT_STREQ(solveStatusName(SolveStatus::Unknown), "UNKNOWN");
    EXPECT_STREQ(searchEngineName(SearchEngine::Trail), "trail");
    EXPECT_STREQ(searchEngineName(SearchEngine::Baseline), "baseline");
}

// ------------------------------------------------------------ DomainTrail

TEST(DomainTrail, TightenAndRewindRestoresExactly)
{
    DomainTrail dom;
    dom.init({0, -5, 10}, {9, 5, 20});

    auto root = dom.mark();
    dom.tightenLb(0, 3);
    dom.tightenUb(0, 7);
    dom.tightenUb(1, 0);
    EXPECT_EQ(dom.lb(0), 3);
    EXPECT_EQ(dom.ub(0), 7);
    EXPECT_EQ(dom.ub(1), 0);
    EXPECT_EQ(dom.depth(), 3u);

    auto inner = dom.mark();
    dom.tightenLb(2, 15);
    dom.tightenLb(0, 7); // fixes var 0
    EXPECT_TRUE(dom.fixed(0));

    dom.rewindTo(inner);
    EXPECT_EQ(dom.lb(0), 3);
    EXPECT_EQ(dom.lb(2), 10);
    EXPECT_EQ(dom.ub(1), 0); // outer changes survive inner rewind

    dom.rewindTo(root);
    EXPECT_EQ(dom.lb(0), 0);
    EXPECT_EQ(dom.ub(0), 9);
    EXPECT_EQ(dom.lb(1), -5);
    EXPECT_EQ(dom.ub(1), 5);
    EXPECT_EQ(dom.lb(2), 10);
    EXPECT_EQ(dom.ub(2), 20);
    EXPECT_EQ(dom.depth(), 0u);
}

TEST(DomainTrail, RewindObserverSeesEveryChange)
{
    DomainTrail dom;
    dom.init({0, 0}, {10, 10});
    auto mark = dom.mark();
    dom.tightenLb(0, 4);
    dom.tightenUb(1, 6);

    int undone = 0;
    dom.rewindTo(mark, [&](VarId v, bool isUpper, std::int64_t cur,
                           std::int64_t old) {
        ++undone;
        if (v == 0) {
            EXPECT_FALSE(isUpper);
            EXPECT_EQ(cur, 4);
            EXPECT_EQ(old, 0);
        } else {
            EXPECT_TRUE(isUpper);
            EXPECT_EQ(cur, 6);
            EXPECT_EQ(old, 10);
        }
    });
    EXPECT_EQ(undone, 2);
}

// Randomized regression: arbitrary interleavings of tightenings and
// nested rewinds always restore domains exactly (checked against shadow
// snapshot copies, the representation the seed solver used).
TEST(DomainTrail, RandomizedRewindMatchesSnapshots)
{
    Rng rng(99);
    for (int round = 0; round < 50; ++round) {
        const int nvars = static_cast<int>(rng.uniformInt(1, 12));
        std::vector<std::int64_t> lb(nvars), ub(nvars);
        for (int v = 0; v < nvars; ++v) {
            lb[v] = rng.uniformInt(-20, 10);
            ub[v] = lb[v] + rng.uniformInt(0, 30);
        }
        DomainTrail dom;
        dom.init(lb, ub);

        // Stack of (mark, lb snapshot, ub snapshot).
        struct Snap
        {
            std::size_t mark;
            std::vector<std::int64_t> lb, ub;
        };
        std::vector<Snap> snaps{{dom.mark(), lb, ub}};

        for (int step = 0; step < 60; ++step) {
            double roll = rng.uniform();
            if (roll < 0.5) {
                // Tighten a random var if possible.
                VarId v = static_cast<VarId>(
                    rng.uniformInt(0, nvars - 1));
                if (dom.domainSize(v) <= 0)
                    continue;
                if (rng.uniform() < 0.5)
                    dom.tightenLb(
                        v, dom.lb(v) +
                               rng.uniformInt(1, dom.domainSize(v)));
                else
                    dom.tightenUb(
                        v, dom.ub(v) -
                               rng.uniformInt(1, dom.domainSize(v)));
            } else if (roll < 0.75) {
                snaps.push_back({dom.mark(), dom.lbs(), dom.ubs()});
            } else if (snaps.size() > 1) {
                dom.rewindTo(snaps.back().mark);
                EXPECT_EQ(dom.lbs(), snaps.back().lb);
                EXPECT_EQ(dom.ubs(), snaps.back().ub);
                snaps.pop_back();
            }
        }
        // Unwind everything: must land exactly on the root domains.
        dom.rewindTo(snaps.front().mark);
        EXPECT_EQ(dom.lbs(), lb);
        EXPECT_EQ(dom.ubs(), ub);
    }
}

TEST(DomainTrail, SumRestoreEntriesRewindWithBounds)
{
    DomainTrail dom;
    dom.init({0, 0}, {10, 10});
    std::vector<std::int64_t> sums = {100, 200};
    dom.trackSums(&sums);

    auto root = dom.mark();
    dom.tightenLb(0, 4);
    dom.addToSum(0, 4);   // smin-style delta for the lb raise
    dom.addToSum(1, -7);
    dom.tightenUb(1, 6);
    EXPECT_EQ(sums[0], 104);
    EXPECT_EQ(sums[1], 193);

    auto inner = dom.mark();
    dom.addToSum(0, 10);
    dom.tightenLb(1, 2);
    EXPECT_EQ(sums[0], 114);

    dom.rewindTo(inner);
    EXPECT_EQ(sums[0], 104); // inner sum delta undone
    EXPECT_EQ(sums[1], 193); // outer delta survives
    EXPECT_EQ(dom.lb(1), 0);

    int bound_undos = 0;
    dom.rewindTo(root, [&](VarId, bool, std::int64_t, std::int64_t) {
        ++bound_undos; // sum entries restore silently
    });
    EXPECT_EQ(bound_undos, 2);
    EXPECT_EQ(sums[0], 100);
    EXPECT_EQ(sums[1], 200);
    EXPECT_EQ(dom.lb(0), 0);
    EXPECT_EQ(dom.ub(1), 10);
}

// -------------------------------------------------------------- Restarts

/** Budget-truncated OPG-ish model for restart tests. */
CpModel
restartModel(int weights, int layers, int tw, int cap)
{
    CpModel m;
    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> row;
        for (int l = 0; l < layers; ++l)
            row.push_back({m.newIntVar(0, tw), 1});
        m.addEquality(row, tw);
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> col;
        for (int l = 0; l < layers; ++l) {
            VarId v = w * layers + l;
            col.push_back({v, 1});
            obj.push_back({v, layers - l});
        }
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w)
            col.push_back({w * layers + l, 1});
        m.addLessOrEqual(col, cap);
    }
    m.minimize(obj);
    return m;
}

TEST(CpSolver, RestartsAreDeterministic)
{
    auto m = restartModel(18, 7, 4, 12);
    SolverParams params;
    params.maxDecisions = 30000;
    params.restartConflictBase = 64;
    auto r1 = CpSolver(params).solve(m);
    auto r2 = CpSolver(params).solve(m);
    EXPECT_GT(r1.restarts, 0u); // the schedule actually fired
    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.objective, r2.objective);
    EXPECT_EQ(r1.decisions, r2.decisions);
    EXPECT_EQ(r1.restarts, r2.restarts);
    EXPECT_EQ(r1.values, r2.values);
}

TEST(CpSolver, RestartsKeepIncumbentQualityUnderBudget)
{
    auto m = restartModel(18, 7, 4, 12);
    // A deliberately poor but feasible hint: each weight dumps all its
    // chunks on one early layer (3 weights per layer x 4 chunks fills
    // the capacity of layers 0..5 exactly).
    std::vector<std::int64_t> hint(m.varCount(), 0);
    for (int w = 0; w < 18; ++w)
        hint[static_cast<std::size_t>(w) * 7 + (w % 6)] = 4;
    ASSERT_TRUE(m.satisfiedBy(hint));
    std::int64_t hint_obj = 0;
    for (const auto &t : m.objective())
        hint_obj += t.coef * hint[t.var];

    SolverParams params;
    params.maxDecisions = 30000;
    params.restartConflictBase = 64;
    auto r = CpSolver(params).solve(m, &hint);
    ASSERT_TRUE(r.feasible());
    // Solution phase saving: restarted searches never lose the
    // incumbent, so the anytime bound holds.
    EXPECT_LE(r.objective, hint_obj);
}

CpModel windowModel(int weights, int layers, int tw, int cap);

TEST(CpSolver, RestartsPreserveOptimalityProofs)
{
    auto m = windowModel(6, 4, 2, 4);
    SolverParams plain;
    SolverParams restarting;
    restarting.restartConflictBase = 32;
    auto r_plain = CpSolver(plain).solve(m);
    auto r_restart = CpSolver(restarting).solve(m);
    ASSERT_EQ(r_plain.status, SolveStatus::Optimal);
    ASSERT_EQ(r_restart.status, SolveStatus::Optimal);
    EXPECT_EQ(r_plain.objective, r_restart.objective);
}

// ------------------------------------------------------------ Watch lists

TEST(CpModel, WatchListsCoverEveryOccurrence)
{
    CpModel m;
    auto a = m.newIntVar(0, 5);
    auto b = m.newIntVar(0, 5);
    auto c = m.newIntVar(0, 5);
    m.addLessOrEqual({{a, 1}, {b, 2}}, 7);        // constraint 0
    m.addGreaterOrEqual({{b, 1}, {c, -1}}, 0);    // constraint 1
    m.addImplicationGeLe(a, 1, c, 3);             // implication 0

    EXPECT_EQ(m.constraintsWatching(a),
              (std::vector<std::int32_t>{0}));
    EXPECT_EQ(m.constraintsWatching(b),
              (std::vector<std::int32_t>{0, 1}));
    EXPECT_EQ(m.constraintsWatching(c),
              (std::vector<std::int32_t>{1}));
    EXPECT_EQ(m.implicationsWatching(a),
              (std::vector<std::int32_t>{0}));
    EXPECT_TRUE(m.implicationsWatching(b).empty());
    EXPECT_EQ(m.implicationsWatching(c),
              (std::vector<std::int32_t>{0}));
}

TEST(CpModel, WatchListsMaintainedAcrossMutation)
{
    CpModel m;
    auto a = m.newIntVar(0, 5);
    m.addLessOrEqual({{a, 1}}, 4);
    EXPECT_EQ(m.constraintsWatching(a).size(), 1u);
    // Watch lists are maintained eagerly: constraints added after a
    // query show up too.
    m.addGreaterOrEqual({{a, 1}}, 1);
    EXPECT_EQ(m.constraintsWatching(a).size(), 2u);
}

// ------------------------------------------------------------ Fingerprint

TEST(CpModel, FingerprintStableAndSensitive)
{
    auto build = [](std::int64_t ub, std::int64_t lo, std::int64_t hi,
                    std::int64_t coef) {
        CpModel m;
        auto x = m.newIntVar(0, ub);
        auto y = m.newIntVar(0, 10);
        m.addLinear({{x, 1}, {y, coef}}, lo, hi);
        m.addImplicationGeLe(x, 2, y, 5);
        m.minimize({{x, 1}, {y, 3}});
        return m;
    };
    auto base = build(10, 1, 12, 2).shapeFingerprint();
    EXPECT_EQ(base, build(10, 1, 12, 2).shapeFingerprint()); // stable
    EXPECT_EQ(base, build(10, 1, 13, 2).shapeFingerprint()); // hi alone
    EXPECT_NE(base, build(10, 2, 12, 2).shapeFingerprint()); // lo
    EXPECT_NE(base, build(11, 1, 12, 2).shapeFingerprint()); // domain
    EXPECT_NE(base, build(10, 1, 12, 3).shapeFingerprint()); // coef

    CpModel no_obj;
    auto x = no_obj.newIntVar(0, 10);
    auto y = no_obj.newIntVar(0, 10);
    no_obj.addLinear({{x, 1}, {y, 2}}, 1, 12);
    no_obj.addImplicationGeLe(x, 2, y, 5);
    EXPECT_NE(base, no_obj.shapeFingerprint()); // objective participates
}

// ------------------------------------------------- Engine equivalence

/** A mid-size OPG-ish model both engines solve to optimality. */
CpModel
windowModel(int weights, int layers, int tw, int cap)
{
    CpModel m;
    std::vector<std::vector<VarId>> x(weights);
    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> row;
        for (int l = 0; l < layers; ++l) {
            x[w].push_back(m.newIntVar(0, tw));
            row.push_back({x[w][l], 1});
        }
        m.addEquality(row, tw);
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w)
            col.push_back({x[w][l], 1});
        m.addLessOrEqual(col, cap);
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        for (int l = 0; l < layers; ++l)
            obj.push_back({x[w][l], layers - l});
    }
    m.minimize(obj);
    return m;
}

TEST(CpSolver, EnginesAgreeOnWindowModel)
{
    auto m = windowModel(6, 4, 2, 4);
    SolverParams trail_params;
    trail_params.engine = SearchEngine::Trail;
    SolverParams base_params;
    base_params.engine = SearchEngine::Baseline;
    auto rt = CpSolver(trail_params).solve(m);
    auto rb = CpSolver(base_params).solve(m);
    ASSERT_EQ(rt.status, SolveStatus::Optimal);
    ASSERT_EQ(rb.status, SolveStatus::Optimal);
    EXPECT_EQ(rt.objective, rb.objective);
}

TEST(CpSolver, TrailEngineSolvesDeterministically)
{
    auto m = windowModel(8, 5, 3, 6);
    SolverParams params;
    params.maxDecisions = 50000;
    auto r1 = CpSolver(params).solve(m);
    auto r2 = CpSolver(params).solve(m);
    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.objective, r2.objective);
    EXPECT_EQ(r1.decisions, r2.decisions);
    EXPECT_EQ(r1.values, r2.values);
}

TEST(CpSolver, ScalesToOpgWindowSizedProblems)
{
    // A problem shaped like one LC-OPG rolling window: ~30 weights x 8
    // candidate layers with completeness + capacity constraints.
    CpModel m;
    const int weights = 30, layers = 8;
    std::vector<std::vector<VarId>> x(weights);
    for (int w = 0; w < weights; ++w) {
        for (int l = 0; l < layers; ++l)
            x[w].push_back(m.newIntVar(0, 8));
        std::vector<LinearTerm> row;
        for (auto v : x[w])
            row.push_back({v, 1});
        m.addEquality(row, 8); // T(w) = 8 chunks
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w)
            col.push_back({x[w][l], 1});
        m.addLessOrEqual(col, 40); // C_l
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        for (int l = 0; l < layers; ++l)
            obj.push_back({x[w][l], layers - l}); // prefer late loading
    }
    m.minimize(obj);

    SolverParams params;
    params.timeLimitSeconds = 2.0;
    auto r = CpSolver(params).solve(m);
    ASSERT_TRUE(r.feasible());
    // 240 chunks over layers of capacity 40: the optimal late packing
    // fills layers 7..2, costing 40 * (1+2+3+4+5+6) = 840.
    EXPECT_LE(r.objective, 840 + 120); // within 1 layer-shift of optimal
}

// ------------------------------------------------------- solve reuse

/** Everything a replayed solve must reproduce, compared exactly. */
void
expectSameSolve(const SolveResult &want, const SolveResult &got)
{
    EXPECT_EQ(want.status, got.status);
    EXPECT_EQ(want.stopReason, got.stopReason);
    EXPECT_EQ(want.values, got.values);
    EXPECT_EQ(want.objective, got.objective);
    EXPECT_EQ(want.decisions, got.decisions);
    EXPECT_EQ(want.propagations, got.propagations);
    EXPECT_EQ(want.backtracks, got.backtracks);
    EXPECT_EQ(want.restarts, got.restarts);
    ASSERT_EQ(want.rowCertificates.size(), got.rowCertificates.size());
    for (std::size_t i = 0; i < want.rowCertificates.size(); ++i) {
        EXPECT_EQ(want.rowCertificates[i].maxSmin,
                  got.rowCertificates[i].maxSmin);
        EXPECT_EQ(want.rowCertificates[i].tightened,
                  got.rowCertificates[i].tightened);
    }
}

/** A model kept as data, so it can be rebuilt with other row bounds. */
struct ModelData
{
    std::vector<std::pair<std::int64_t, std::int64_t>> domains;
    std::vector<LinearConstraint> rows;
    std::vector<Implication> implications;
    std::vector<LinearTerm> objective;

    CpModel
    build() const
    {
        CpModel m;
        for (const auto &[lo, hi] : domains)
            m.newIntVar(lo, hi);
        for (const auto &r : rows)
            m.addLinear(r.terms, r.lo, r.hi);
        for (const auto &i : implications)
            m.addImplicationGeLe(i.x, i.xThreshold, i.y, i.yBound);
        m.minimize(objective);
        return m;
    }
};

/** Window-flavoured random model: a coverage row, capacity-like <=
 * rows from tight to slack, an implication and a mixed objective. */
ModelData
randomReuseModel(Rng &rng)
{
    ModelData d;
    const int nvars = static_cast<int>(rng.uniformInt(5, 8));
    const std::int64_t dom = rng.uniformInt(2, 4);
    for (int v = 0; v < nvars; ++v)
        d.domains.emplace_back(0, dom);
    LinearConstraint cover;
    for (int v = 0; v < 3; ++v)
        cover.terms.push_back({v, 1});
    cover.lo = cover.hi = rng.uniformInt(1, 2 * dom);
    d.rows.push_back(cover);
    const int caps = static_cast<int>(rng.uniformInt(2, 4));
    for (int c = 0; c < caps; ++c) {
        LinearConstraint row;
        std::int64_t reach = 0;
        for (int v = 0; v < nvars; ++v) {
            if (rng.uniform() < 0.5) {
                const std::int64_t coef = rng.uniformInt(1, 3);
                row.terms.push_back({v, coef});
                reach += coef * dom;
            }
        }
        if (row.terms.empty())
            row.terms.push_back({nvars - 1, 1});
        row.lo = std::numeric_limits<std::int64_t>::min() / 4;
        row.hi = rng.uniformInt(0, reach + dom);
        d.rows.push_back(row);
    }
    if (rng.uniform() < 0.5)
        d.implications.push_back({0, 1, nvars - 1, dom - 1});
    for (int v = 0; v < nvars; ++v)
        d.objective.push_back({v, rng.uniformInt(-3, 4)});
    return d;
}

TEST(SolveReuse, ReplaysMatchFreshSolvesOnRandomModels)
{
    // Record a solve, move some row upper bounds, and whenever the
    // record claims to replay the new model, a fresh solve must agree
    // with it bit for bit. Moves span both directions and sizes, so
    // both verdicts occur, including hits where a bound really moved.
    Rng rng(4242);
    int hits = 0, moved_hits = 0, misses = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const ModelData base = randomReuseModel(rng);
        SolveRecord rec;
        rec.model = base.build();
        rec.params.maxDecisions =
            std::vector<std::uint64_t>{0, 4, 16, 64}[trial % 4];
        rec.params.restartConflictBase = trial % 3 == 0 ? 2 : 0;
        for (const auto &[lo, hi] : base.domains)
            rec.hint.push_back(rng.uniformInt(lo, hi));
        rec.result = CpSolver(rec.params).solve(rec.model, &rec.hint);
        for (int move = 0; move < 8; ++move) {
            ModelData next = base;
            bool moved = false;
            for (auto &row : next.rows) {
                if (rng.uniform() < 0.5)
                    continue;
                row.hi = std::max(row.lo, row.hi + rng.uniformInt(-3, 12));
                moved = true;
            }
            const CpModel m = next.build();
            const auto fresh = CpSolver(rec.params).solve(m, &rec.hint);
            if (!replaysRecord(rec, m, rec.hint, rec.params)) {
                ++misses;
                continue;
            }
            SCOPED_TRACE("trial " + std::to_string(trial) + " move " +
                         std::to_string(move));
            expectSameSolve(rec.result, fresh);
            ++hits;
            moved_hits += moved;
        }
    }
    EXPECT_GT(moved_hits, 100) << hits << " hits";
    EXPECT_GT(misses, 100);
}

/** Two free variables under one row that never binds at hi = 100. */
ModelData
slackRowModel(std::int64_t hi)
{
    ModelData d;
    d.domains = {{0, 5}, {0, 5}};
    LinearConstraint row;
    row.terms = {{0, 1}, {1, 1}};
    row.lo = std::numeric_limits<std::int64_t>::min() / 4;
    row.hi = hi;
    d.rows.push_back(row);
    d.objective = {{0, 1}, {1, -1}};
    return d;
}

SolveRecord
recordOf(const ModelData &d, std::vector<std::int64_t> hint,
         SolverParams params = {})
{
    SolveRecord rec;
    rec.model = d.build();
    rec.hint = std::move(hint);
    rec.params = params;
    rec.result = CpSolver(params).solve(rec.model, &rec.hint);
    return rec;
}

TEST(SolveReuse, CertificateBoundIsExact)
{
    // The row never tightens at hi = 100; the certificate bound
    // maxSmin + widest span is the smallest hi the record covers.
    const SolveRecord rec = recordOf(slackRowModel(100), {0, 0});
    ASSERT_EQ(rec.result.rowCertificates.size(), 1u);
    const RowCertificate &cert = rec.result.rowCertificates[0];
    ASSERT_FALSE(cert.tightened);
    const std::int64_t bound = cert.maxSmin + 5;
    ASSERT_LT(bound, 100);

    const CpModel at_bound = slackRowModel(bound).build();
    EXPECT_TRUE(replaysRecord(rec, at_bound, rec.hint, rec.params));
    expectSameSolve(rec.result,
                    CpSolver(rec.params).solve(at_bound, &rec.hint));
    EXPECT_FALSE(replaysRecord(rec, slackRowModel(bound - 1).build(),
                               rec.hint, rec.params));
}

TEST(SolveReuse, RowThatTightenedNeverReplays)
{
    // x + y <= 3 over [0, 5] tightens both upper bounds at the root,
    // so no other hi may reuse the search, however large.
    const SolveRecord rec = recordOf(slackRowModel(3), {0, 0});
    ASSERT_TRUE(rec.result.rowCertificates[0].tightened);
    EXPECT_FALSE(replaysRecord(rec, slackRowModel(1000).build(),
                               rec.hint, rec.params));
    // The unchanged model always replays.
    EXPECT_TRUE(replaysRecord(rec, slackRowModel(3).build(), rec.hint,
                              rec.params));
}

TEST(SolveReuse, RowThatConflictedNeverReplays)
{
    // x = 4z and y = 4z raise x and y together when z = 1, and the
    // revision of x + y <= 7 that follows sees smin = 8: a conflict
    // with no tightening before it. At hi = 12 that branch is feasible
    // and better, so the record must not cover it.
    ModelData d;
    d.domains = {{0, 4}, {0, 4}, {0, 1}};
    d.rows.push_back({{{0, 1}, {2, -4}}, 0, 0});
    d.rows.push_back({{{1, 1}, {2, -4}}, 0, 0});
    d.rows.push_back({{{0, 1}, {1, 1}},
                      std::numeric_limits<std::int64_t>::min() / 4, 7});
    d.objective = {{0, -1}, {1, -1}};
    const SolveRecord rec = recordOf(d, {0, 0, 0});
    ASSERT_TRUE(rec.result.rowCertificates[2].tightened);
    d.rows[2].hi = 12;
    const CpModel wider = d.build();
    EXPECT_FALSE(replaysRecord(rec, wider, rec.hint, rec.params));
    EXPECT_LT(CpSolver(rec.params).solve(wider, &rec.hint).objective,
              rec.result.objective);
}

TEST(SolveReuse, HintFeasibilityFlipMisses)
{
    // Maximize x + y from the hint (5, 5): the hint meets the root
    // bound, so the search stops before revising any row and every
    // certificate passes. At hi = 9 the hint is infeasible and the
    // search must start without an incumbent.
    ModelData d = slackRowModel(100);
    d.objective = {{0, -1}, {1, -1}};
    const SolveRecord rec = recordOf(d, {5, 5});
    ASSERT_EQ(rec.result.decisions, 0u);
    d.rows[0].hi = 9;
    const CpModel flipped = d.build();
    EXPECT_FALSE(replaysRecord(rec, flipped, rec.hint, rec.params));
    EXPECT_NE(CpSolver(rec.params).solve(flipped, &rec.hint).values,
              rec.result.values);
    d.rows[0].hi = 10; // still feasible: replays
    EXPECT_TRUE(replaysRecord(rec, d.build(), rec.hint, rec.params));
}

TEST(SolveReuse, TimeLimitRecordNeverReplays)
{
    SolverParams params;
    params.timeLimitSeconds = 0.0; // stops at the first limit poll
    const SolveRecord rec = recordOf(slackRowModel(100), {0, 0}, params);
    ASSERT_EQ(rec.result.stopReason, StopReason::TimeLimit);
    EXPECT_FALSE(replaysRecord(rec, rec.model, rec.hint, rec.params));
}

TEST(SolveReuse, ParamsHintAndRowSetMustMatch)
{
    const SolveRecord rec = recordOf(slackRowModel(100), {0, 0});
    ASSERT_TRUE(replaysRecord(rec, rec.model, rec.hint, rec.params));

    SolverParams budget = rec.params;
    budget.maxDecisions = 7;
    EXPECT_FALSE(replaysRecord(rec, rec.model, rec.hint, budget));
    EXPECT_FALSE(replaysRecord(rec, rec.model, {1, 0}, rec.params));

    // A different lex-row set: one row more, or the same count with
    // other terms.
    ModelData extra = slackRowModel(100);
    LinearConstraint lex;
    lex.terms = {{0, 1}, {1, -1}};
    lex.lo = std::numeric_limits<std::int64_t>::min() / 4;
    lex.hi = 0;
    extra.rows.push_back(lex);
    EXPECT_FALSE(
        replaysRecord(rec, extra.build(), rec.hint, rec.params));
    ModelData other = slackRowModel(100);
    other.rows[0].terms = {{0, 1}, {1, 2}};
    EXPECT_FALSE(
        replaysRecord(rec, other.build(), rec.hint, rec.params));
}

} // namespace
} // namespace flashmem::solver
