/**
 * @file
 * Tests for window planning: the successive-shortest-path min-cost
 * flow against brute force, the certified lower bound against
 * brute-forced CP window optima, and the planner's rounds on every zoo
 * compile and replan-ladder plan: flow rounds, and the greedy start
 * that C2-binding rounds ship.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

#include "common/rng.hh"
#include "core/flashmem.hh"
#include "core/window_flow.hh"
#include "models/model_zoo.hh"
#include "solver/model.hh"

namespace flashmem::core {
namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/** Calls @p visit with every split of @p total over @p caps (each part
 * at most its cap) and the remainder left over. */
void
forEachSplit(const std::vector<std::int64_t> &caps, std::int64_t total,
             const std::function<void(const std::vector<std::int64_t> &,
                                      std::int64_t)> &visit)
{
    std::vector<std::int64_t> parts(caps.size(), 0);
    std::function<void(std::size_t, std::int64_t)> rec =
        [&](std::size_t j, std::int64_t left) {
            if (j == caps.size()) {
                visit(parts, left);
                return;
            }
            for (std::int64_t v = 0; v <= std::min(caps[j], left); ++v) {
                parts[j] = v;
                rec(j + 1, left - v);
            }
            parts[j] = 0;
        };
    rec(0, total);
}

/** Minimum cost of @p p by enumerating every placement. */
std::int64_t
bruteForceFlowCost(const WindowFlowProblem &p)
{
    std::int64_t best = kInf;
    std::vector<std::int64_t> used(p.layerCap.size(), 0);
    std::function<void(std::size_t, std::int64_t)> rec =
        [&](std::size_t k, std::int64_t cost) {
            if (k == p.supply.size()) {
                best = std::min(best, cost);
                return;
            }
            std::vector<std::int64_t> caps;
            for (const auto &a : p.arcs[k])
                caps.push_back(a.cap);
            forEachSplit(caps, p.supply[k],
                         [&](const std::vector<std::int64_t> &x,
                             std::int64_t preload) {
                             std::int64_t c = cost + preload *
                                                         p.preloadCost[k];
                             bool fits = true;
                             for (std::size_t j = 0; j < x.size(); ++j) {
                                 used[p.arcs[k][j].layer] += x[j];
                                 c += x[j] * p.arcs[k][j].cost;
                             }
                             for (std::size_t l = 0; l < used.size(); ++l)
                                 fits &= used[l] <= p.layerCap[l];
                             if (fits)
                                 rec(k + 1, c);
                             for (std::size_t j = 0; j < x.size(); ++j)
                                 used[p.arcs[k][j].layer] -= x[j];
                         });
        };
    rec(0, 0);
    return best;
}

TEST(WindowFlow, SuccessiveShortestPathsMatchBruteForce)
{
    // Random small transportation cores (C2 dropped): the flow places
    // every chunk within every cap, its reported cost is its cost, and
    // no placement is cheaper.
    Rng rng(2024);
    int streamed = 0;
    for (int trial = 0; trial < 300; ++trial) {
        WindowFlowProblem p;
        const auto layers = rng.uniformInt(1, 3);
        for (std::int64_t l = 0; l < layers; ++l)
            p.layerCap.push_back(rng.uniformInt(0, 4));
        const auto weights = rng.uniformInt(1, 3);
        for (std::int64_t k = 0; k < weights; ++k) {
            p.supply.push_back(rng.uniformInt(1, 3));
            p.preloadCost.push_back(rng.uniformInt(10, 60));
            p.arcs.emplace_back();
            for (std::int64_t l = 0; l < layers; ++l) {
                if (rng.uniformInt(0, 3) == 0)
                    continue;
                p.arcs.back().push_back(
                    {static_cast<std::size_t>(l),
                     rng.uniformInt(0, p.supply.back()),
                     rng.uniformInt(0, 50)});
            }
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        const auto flow = solveWindowFlow(p);
        EXPECT_EQ(flow.cost, bruteForceFlowCost(p));
        EXPECT_EQ(flowCost(p, flow), flow.cost);
        std::vector<std::int64_t> used(p.layerCap.size(), 0);
        for (std::size_t k = 0; k < p.supply.size(); ++k) {
            std::int64_t placed = flow.preload[k];
            EXPECT_GE(flow.preload[k], 0);
            for (std::size_t j = 0; j < p.arcs[k].size(); ++j) {
                EXPECT_GE(flow.flow[k][j], 0);
                EXPECT_LE(flow.flow[k][j], p.arcs[k][j].cap);
                placed += flow.flow[k][j];
                used[p.arcs[k][j].layer] += flow.flow[k][j];
                streamed += flow.flow[k][j] > 0;
            }
            EXPECT_EQ(placed, p.supply[k]);
        }
        for (std::size_t l = 0; l < used.size(); ++l)
            EXPECT_LE(used[l], p.layerCap[l]);
    }
    EXPECT_GT(streamed, 100);
}

/** A random small LC-OPG window: the CP model the planner builds for it
 * (C0-C3, z implications, the lambda/mu objective) and its
 * transportation core. */
struct RandomWindow
{
    solver::CpModel model;
    std::vector<solver::VarId> y, z;
    std::vector<std::vector<solver::VarId>> x;
    std::vector<std::int64_t> consumer, chunks;
    std::vector<std::vector<std::int64_t>> cands;
    WindowFlowProblem core;
    std::int64_t consumerSum = 0;
};

constexpr std::int64_t kLambdaCoef = 90;
constexpr std::int64_t kMuCoef = 10;

RandomWindow
randomWindow(Rng &rng)
{
    RandomWindow w;
    const std::int64_t layers = rng.uniformInt(3, 5);
    const std::int64_t max_distance = 3;
    std::vector<std::int64_t> residual(layers), headroom(layers);
    for (std::int64_t l = 0; l < layers; ++l) {
        residual[l] = rng.uniformInt(0, 3);
        headroom[l] = rng.uniformInt(0, 4);
    }
    w.core.layerCap = residual;
    const auto weights = rng.uniformInt(1, 3);
    std::vector<solver::LinearTerm> objective;
    for (std::int64_t k = 0; k < weights; ++k) {
        const std::int64_t i_w = rng.uniformInt(1, layers - 1);
        const std::int64_t t_w = rng.uniformInt(1, 3);
        w.consumer.push_back(i_w);
        w.chunks.push_back(t_w);
        w.cands.emplace_back();
        for (std::int64_t l = std::max<std::int64_t>(0, i_w - max_distance);
             l < i_w; ++l) {
            if (residual[l] > 0)
                w.cands.back().push_back(l);
        }
        w.y.push_back(w.model.newIntVar(0, t_w));
        objective.push_back({w.y.back(), kLambdaCoef});
        std::vector<solver::LinearTerm> coverage{{w.y.back(), 1}};
        w.x.emplace_back();
        w.core.supply.push_back(t_w);
        w.core.preloadCost.push_back(kFlowCostScale * kLambdaCoef);
        w.core.arcs.emplace_back();
        for (auto l : w.cands.back()) {
            const auto cap = std::min(t_w, residual[l]);
            w.x.back().push_back(w.model.newIntVar(0, cap));
            coverage.push_back({w.x.back().back(), 1});
            objective.push_back({w.x.back().back(), i_w - l - 1});
            w.core.arcs.back().push_back(
                {static_cast<std::size_t>(l), cap,
                 streamChunkCost(i_w - l, t_w, kMuCoef)});
        }
        w.model.addEquality(coverage, t_w);
        w.z.push_back(-1);
        if (!w.cands.back().empty()) {
            w.z.back() = w.model.newIntVar(
                std::max<std::int64_t>(0, i_w - max_distance), i_w);
            objective.push_back({w.z.back(), -kMuCoef});
            for (std::size_t j = 0; j < w.cands.back().size(); ++j)
                w.model.addImplicationGeLe(w.x.back()[j], 1, w.z.back(),
                                           w.cands.back()[j]);
            w.consumerSum += i_w;
        }
    }
    for (std::int64_t l = 0; l < layers; ++l) {
        std::vector<solver::LinearTerm> c3, c2;
        for (std::size_t k = 0; k < w.x.size(); ++k) {
            for (std::size_t j = 0; j < w.cands[k].size(); ++j) {
                if (w.cands[k][j] == l)
                    c3.push_back({w.x[k][j], 1});
                if (w.cands[k][j] <= l && w.consumer[k] > l)
                    c2.push_back({w.x[k][j], 1});
            }
        }
        if (!c3.empty())
            w.model.addLessOrEqual(c3, residual[l]);
        if (!c2.empty())
            w.model.addLessOrEqual(c2, headroom[l]);
    }
    w.model.minimize(objective);
    return w;
}

/** Optimum of @p w's CP model by enumeration: every x split, z_w at
 * its best value (the earliest layer used, i_w when none), kept only
 * when the model accepts the full assignment. */
std::int64_t
bruteForceCpOptimum(const RandomWindow &w)
{
    std::int64_t best = kInf;
    std::vector<std::int64_t> values(w.model.varCount(), 0);
    std::function<void(std::size_t)> rec = [&](std::size_t k) {
        if (k == w.x.size()) {
            if (!w.model.satisfiedBy(values))
                return;
            std::int64_t obj = 0;
            for (const auto &t : w.model.objective())
                obj += t.coef * values[t.var];
            best = std::min(best, obj);
            return;
        }
        std::vector<std::int64_t> caps;
        for (auto v : w.x[k])
            caps.push_back(w.model.upperBound(v));
        forEachSplit(caps, w.chunks[k],
                     [&](const std::vector<std::int64_t> &x,
                         std::int64_t preload) {
                         values[w.y[k]] = preload;
                         std::int64_t z = w.consumer[k];
                         for (std::size_t j = 0; j < x.size(); ++j) {
                             values[w.x[k][j]] = x[j];
                             if (x[j] > 0)
                                 z = std::min(z, w.cands[k][j]);
                         }
                         if (w.z[k] >= 0)
                             values[w.z[k]] = z;
                         rec(k + 1);
                     });
    };
    rec(0);
    return best;
}

TEST(WindowFlow, CertifiedBoundNeverExceedsCpOptimum)
{
    // The flow drops C2 and spreads each weight's mu * (i_w - z_w) over
    // its chunks, so its bound can only sit at or below the optimum of
    // the full window model, C2 included.
    Rng rng(99);
    int tight = 0;
    for (int trial = 0; trial < 250; ++trial) {
        const auto w = randomWindow(rng);
        const auto optimum = bruteForceCpOptimum(w);
        ASSERT_NE(optimum, kInf); // all-preload is always feasible
        const auto bound = windowFlowBound(solveWindowFlow(w.core).cost,
                                           kMuCoef, w.consumerSum);
        SCOPED_TRACE("trial " + std::to_string(trial));
        EXPECT_LE(bound, optimum);
        tight += bound == optimum;
    }
    EXPECT_GT(tight, 0);
}

// ------------------------------------------- the planner on zoo rounds

/** Replan ladder, as shares of the compile's budget. */
constexpr double kLadder[] = {0.5, 0.25, 0.1, 0.05};

/** One zoo model's compile and its 50/25/10/5% replan ladder. */
struct ZooRounds
{
    models::ModelId id{};
    std::vector<CompiledModel> plans; ///< compile, then the ladder
    std::vector<SimTime> latency;     ///< per plan, solo run
};

/** Every zoo compile and ladder plan at @p threads planner threads. */
std::vector<CompiledModel>
zooPlans(int threads)
{
    FlashMemOptions opt;
    opt.opg.parallel.threads = threads;
    FlashMem fm(gpusim::DeviceProfile::onePlus12(), opt);
    std::vector<CompiledModel> plans;
    for (const auto &spec : models::modelZoo()) {
        const auto compiled = fm.compile(models::buildModel(spec.id));
        const auto budget = static_cast<double>(compiled.planBudget);
        plans.push_back(compiled);
        for (double share : kLadder)
            plans.push_back(
                fm.replan(compiled, static_cast<Bytes>(share * budget)));
    }
    return plans;
}

const std::vector<ZooRounds> &
zooRounds()
{
    static const std::vector<ZooRounds> rounds = [] {
        std::vector<ZooRounds> out;
        const auto dev = gpusim::DeviceProfile::onePlus12();
        FlashMem fm(dev);
        auto plans = zooPlans(4);
        auto next = plans.begin();
        for (const auto &spec : models::modelZoo()) {
            ZooRounds z;
            z.id = spec.id;
            for (std::size_t r = 0; r <= std::size(kLadder); ++r)
                z.plans.push_back(std::move(*next++));
            for (const auto &cm : z.plans) {
                gpusim::GpuSimulator sim(dev);
                z.latency.push_back(
                    fm.execute(sim, cm).integratedLatency());
            }
            out.push_back(std::move(z));
        }
        return out;
    }();
    return rounds;
}

TEST(FlowFirst, FlowNeverLosesToGreedyOnZooRounds)
{
    // On every window of every zoo compile and ladder replan: round 0's
    // flow costs no more than the greedy warm start on the same arcs
    // (the greedy is a feasible flow), the flow bound sits at or below
    // the shipped objective, and a flow-settled window is Optimal
    // exactly when its objective meets the bound.
    int flow = 0, greedy = 0, certified = 0;
    for (const auto &z : zooRounds()) {
        for (std::size_t r = 0; r < z.plans.size(); ++r) {
            const auto &st = z.plans[r].stats;
            for (const auto &w : st.windowSummaries) {
                SCOPED_TRACE(models::modelSpec(z.id).abbr + " round " +
                             std::to_string(r) + " window " +
                             std::to_string(w.window));
                EXPECT_LE(w.flowCost, w.hintFlowCost);
                EXPECT_LE(w.flowBound, w.objective);
                if (w.flow) {
                    ++flow;
                    EXPECT_EQ(w.status == solver::SolveStatus::Optimal,
                              w.objective == w.flowBound);
                    certified += w.objective == w.flowBound;
                }
                greedy += w.usedGreedy;
            }
            EXPECT_EQ(st.flowWindows,
                      std::count_if(st.windowSummaries.begin(),
                                    st.windowSummaries.end(),
                                    [](const auto &w) { return w.flow; }));
        }
    }
    EXPECT_GT(flow, 0);
    EXPECT_GT(certified, 0);
    EXPECT_GT(greedy, 0) << "C2 bound in some rounds";
}

TEST(GreedyStart, C2BindingWindowsShipTheGreedyStart)
{
    // On every zoo compile and 50/25/10/5% ladder plan, a window the
    // flow does not settle ships the staged greedy warm start, after
    // any tier-2 pins: no search runs, so the shipped (pre-clamp)
    // objective is the greedy start's. Plans and every window summary
    // are identical at 1, 2 and 4 planner threads.
    const auto ref = zooPlans(1);
    int greedy = 0, pinned = 0;
    for (const auto &cm : ref) {
        for (const auto &w : cm.stats.windowSummaries) {
            SCOPED_TRACE(cm.fusedGraph.name() + " budget " +
                         std::to_string(cm.planBudget) + " window " +
                         std::to_string(w.window));
            EXPECT_NE(w.flow, w.usedGreedy || w.empty);
            if (!w.usedGreedy)
                continue;
            ++greedy;
            pinned += w.forcedPreloads > 0;
            EXPECT_EQ(w.status, solver::SolveStatus::Feasible);
            EXPECT_EQ(w.objective, w.hintObjective);
        }
    }
    EXPECT_GT(greedy, 0) << "C2 bound in some rounds";
    EXPECT_GT(pinned, 0) << "tier 2 pinned in a C2-binding window";

    for (int threads : {2, 4}) {
        const auto plans = zooPlans(threads);
        ASSERT_EQ(plans.size(), ref.size());
        for (std::size_t i = 0; i < plans.size(); ++i) {
            SCOPED_TRACE(ref[i].fusedGraph.name() + " budget " +
                         std::to_string(ref[i].planBudget) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(plans[i].plan.serialize(), ref[i].plan.serialize());
            const auto &a = ref[i].stats.windowSummaries;
            const auto &b = plans[i].stats.windowSummaries;
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t k = 0; k < a.size(); ++k) {
                EXPECT_EQ(a[k].flow, b[k].flow);
                EXPECT_EQ(a[k].usedGreedy, b[k].usedGreedy);
                EXPECT_EQ(a[k].forcedPreloads, b[k].forcedPreloads);
                EXPECT_EQ(a[k].objective, b[k].objective);
                EXPECT_EQ(a[k].flowBound, b[k].flowBound);
            }
        }
    }
}

TEST(FlowFirst, ZooLatenciesNoWorseThanSearchOnlyPlans)
{
    // Simulated latency of every zoo compile and 50/25/10% ladder plan,
    // bounded by what the search-only planner (greedy warm start + CP
    // on every window round) shipped: neither flow-first planning nor
    // shipping the greedy start on C2-binding rounds made a plan
    // slower.
    struct Bound
    {
        models::ModelId id;
        SimTime ns[4]; ///< compile, 50%, 25%, 10%
    };
    using models::ModelId;
    const Bound bounds[] = {
        {ModelId::GPTNeoS,
         {266837070, 266837070, 266837070, 266837070}},
        {ModelId::GPTNeo1_3B,
         {2104592637, 2104592637, 2104592637, 2102117954}},
        {ModelId::GPTNeo2_7B,
         {4091493628, 4091493628, 4091493628, 4007129581}},
        {ModelId::ResNet50, {50596224, 50596224, 50596224, 50596224}},
        {ModelId::SAM2, {782223726, 782223726, 782223726, 782223726}},
        {ModelId::ViT, {189156889, 189156889, 189156889, 189156889}},
        {ModelId::DeepViT, {344275731, 344275731, 344275731, 344275731}},
        {ModelId::SDUNet,
         {1283150845, 1283150845, 1278710916, 1261512639}},
        {ModelId::WhisperMedium,
         {643418559, 643418559, 643418559, 643418559}},
        {ModelId::DepthAnythingS,
         {78397799, 78397799, 78397799, 78397799}},
        {ModelId::DepthAnythingL,
         {799619866, 799619866, 799619866, 799619866}},
    };
    const auto &rounds = zooRounds();
    ASSERT_EQ(rounds.size(), std::size(bounds));
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        ASSERT_EQ(rounds[i].id, bounds[i].id);
        for (std::size_t r = 0; r < std::size(bounds[i].ns); ++r) {
            SCOPED_TRACE(models::modelSpec(rounds[i].id).abbr +
                         " round " + std::to_string(r));
            EXPECT_LE(rounds[i].latency[r], bounds[i].ns[r]);
        }
    }
}

} // namespace
} // namespace flashmem::core
