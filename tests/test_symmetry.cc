/**
 * @file
 * Tests for symmetry detection and breaking (solver/symmetry.hh) and
 * its integration into LC-OPG planning: lex rows keep the optimum,
 * cut conflicts, and leave transformer plans byte-identical.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/lc_opg.hh"
#include "graph/builder.hh"
#include "solver/model.hh"
#include "solver/solver.hh"
#include "solver/symmetry.hh"

namespace flashmem::solver {
namespace {

// ------------------------------------------------------------ fixtures

/** N single-variable blocks over [lo, hi] with unit objective. */
struct SingleVarModel
{
    CpModel model;
    std::vector<VarBlock> blocks;
};

SingleVarModel
singleVarBlocks(const std::vector<std::pair<std::int64_t, std::int64_t>>
                    &domains,
                const std::vector<std::int64_t> &obj_coefs)
{
    SingleVarModel out;
    std::vector<LinearTerm> obj;
    for (std::size_t i = 0; i < domains.size(); ++i) {
        auto v = out.model.newIntVar(domains[i].first,
                                     domains[i].second);
        out.model.addLessOrEqual({{v, 1}}, domains[i].second);
        obj.push_back({v, obj_coefs[i]});
        out.blocks.push_back({{v}});
    }
    out.model.minimize(obj);
    return out;
}

/**
 * OPG-window-shaped instance with @p weights fully interchangeable
 * weights: identical chunk count, consumer layer and candidate set,
 * under one shared per-layer capacity. The canonical symmetric
 * instance — without breaking, every permutation of the weight blocks
 * spans its own identical subtree.
 */
struct WindowModel
{
    CpModel model;
    std::vector<VarBlock> blocks;
};

WindowModel
symmetricWindow(int weights, int layers, std::int64_t tw,
                std::int64_t cap)
{
    WindowModel out;
    CpModel &m = out.model;
    std::vector<VarId> y(weights), z(weights);
    std::vector<std::vector<VarId>> x(weights);
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> row;
        y[w] = m.newIntVar(0, tw);
        row.push_back({y[w], 1});
        for (int l = 0; l < layers; ++l) {
            x[w].push_back(m.newIntVar(0, tw));
            row.push_back({x[w].back(), 1});
        }
        m.addEquality(row, tw);
        z[w] = m.newIntVar(0, layers);
        for (int l = 0; l < layers; ++l)
            m.addImplicationGeLe(x[w][l], 1, z[w], l);
        obj.push_back({y[w], 90});
        for (int l = 0; l < layers; ++l)
            obj.push_back({x[w][l], layers - l - 1});
        obj.push_back({z[w], -10});
        VarBlock b;
        b.vars.push_back(y[w]);
        b.vars.insert(b.vars.end(), x[w].begin(), x[w].end());
        b.vars.push_back(z[w]);
        out.blocks.push_back(std::move(b));
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w)
            col.push_back({x[w][l], 1});
        m.addLessOrEqual(col, cap);
    }
    m.minimize(obj);
    return out;
}

// ------------------------------------------------- symmetry detection

TEST(SymmetryTest, AllEqualBlocksFormOneGroup)
{
    auto f = singleVarBlocks({{0, 5}, {0, 5}, {0, 5}}, {1, 1, 1});
    EXPECT_TRUE(
        blocksInterchangeable(f.model, f.blocks[0], f.blocks[1]));
    auto groups = groupInterchangeableBlocks(f.model, f.blocks);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 2}));
}

TEST(SymmetryTest, DistinctDomainsFormTwoGroups)
{
    auto f = singleVarBlocks({{0, 5}, {0, 5}, {0, 7}, {0, 7}},
                             {1, 1, 1, 1});
    auto groups = groupInterchangeableBlocks(f.model, f.blocks);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(groups[1], (std::vector<int>{2, 3}));
}

TEST(SymmetryTest, DistinctObjectiveCoefsAreNotSymmetric)
{
    auto f = singleVarBlocks({{0, 5}, {0, 5}}, {1, 2});
    EXPECT_FALSE(
        blocksInterchangeable(f.model, f.blocks[0], f.blocks[1]));
    EXPECT_TRUE(groupInterchangeableBlocks(f.model, f.blocks).empty());
}

TEST(SymmetryTest, OverlappingOrMismatchedBlocksRejected)
{
    auto f = singleVarBlocks({{0, 5}, {0, 5}}, {1, 1});
    VarBlock overlap{{f.blocks[0].vars[0]}};
    EXPECT_FALSE(blocksInterchangeable(f.model, f.blocks[0], overlap));
    VarBlock longer{{f.blocks[0].vars[0], f.blocks[1].vars[0]}};
    EXPECT_FALSE(blocksInterchangeable(f.model, longer, f.blocks[1]));
}

TEST(SymmetryTest, WindowBlocksDetected)
{
    auto w = symmetricWindow(4, 3, 2, 3);
    auto groups = groupInterchangeableBlocks(w.model, w.blocks);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 2, 3}));
}

// -------------------------------------------------- symmetry breaking

TEST(SymmetryTest, BreakingKeepsObjectiveCutsConflicts)
{
    // Same symmetric instance solved to exhaustion with and without
    // the lex chain: the proven optimum must match exactly, and the
    // chain must strictly reduce the conflict count (it prunes the
    // permuted duplicate subtrees, nothing else).
    SolverParams sp;
    sp.timeLimitSeconds = 60.0;

    auto plain = symmetricWindow(5, 3, 2, 3);
    auto r_plain = CpSolver(sp).solve(plain.model);

    auto broken = symmetricWindow(5, 3, 2, 3);
    auto groups = groupInterchangeableBlocks(broken.model,
                                             broken.blocks);
    ASSERT_FALSE(groups.empty());
    int rows = addSymmetryBreaking(broken.model, broken.blocks, groups);
    EXPECT_EQ(rows, 4); // chain of 5 blocks -> 4 ordering rows
    auto r_broken = CpSolver(sp).solve(broken.model);

    ASSERT_EQ(r_plain.status, SolveStatus::Optimal);
    ASSERT_EQ(r_broken.status, SolveStatus::Optimal);
    EXPECT_EQ(r_broken.objective, r_plain.objective);
    EXPECT_LT(r_broken.backtracks, r_plain.backtracks);
}

TEST(SymmetryTest, CanonicalizedHintSatisfiesLexRows)
{
    auto f = singleVarBlocks({{0, 5}, {0, 5}}, {1, 1});
    auto groups = groupInterchangeableBlocks(f.model, f.blocks);
    ASSERT_EQ(groups.size(), 1u);
    addSymmetryBreaking(f.model, f.blocks, groups);

    // Out of leader order: violates the fresh lex row...
    std::vector<std::int64_t> hint{3, 1};
    EXPECT_FALSE(f.model.satisfiedBy(hint));
    // ...until canonicalization sorts the blocks by leader value.
    canonicalizeHint(f.model, f.blocks, groups, hint);
    EXPECT_EQ(hint, (std::vector<std::int64_t>{1, 3}));
    EXPECT_TRUE(f.model.satisfiedBy(hint));
}

} // namespace
} // namespace flashmem::solver

// ------------------------------------------------ LC-OPG integration

namespace flashmem::core {
namespace {

using gpusim::DeviceProfile;
using gpusim::KernelModel;

graph::Graph
smallGraph(int blocks, std::int64_t d = 256,
           std::int64_t tokens = 64)
{
    graph::GraphBuilder b("symmetry-toy", Precision::FP16);
    auto x = b.input({tokens, d});
    for (int i = 0; i < blocks; ++i) {
        std::string p = "blk" + std::to_string(i);
        auto n = b.layerNorm(x, p + ".ln");
        auto h = b.matmul(n, 4 * d, p + ".fc1");
        h = b.activation(h, graph::OpKind::GeLU, p + ".act");
        h = b.matmul(h, d, p + ".fc2");
        x = b.add(x, h, p + ".res");
    }
    return b.build();
}

TEST(SymmetryTest, LcOpgSymmetryBreakingPreservesPlans)
{
    // On transformer graphs the symmetry pass fires on groups of
    // equal-size weights whose preload is pinned by C0 (empty
    // candidate sets), so the lex rows order already-fixed variables:
    // detection must report rows, and the plan bytes must not move.
    auto g = smallGraph(2);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    PlanMemo::global().clear();
    OpgParams on; // symmetryBreaking defaults to true
    LcOpgPlanner p1(g, cap, km, on);
    PlanStats s_on;
    auto plan_on = p1.plan(&s_on).serialize();

    PlanMemo::global().clear();
    OpgParams off;
    off.symmetryBreaking = false;
    LcOpgPlanner p2(g, cap, km, off);
    PlanStats s_off;
    auto plan_off = p2.plan(&s_off).serialize();
    PlanMemo::global().clear();

    EXPECT_GT(s_on.symmetryRows, 0);
    EXPECT_EQ(s_off.symmetryRows, 0);
    EXPECT_EQ(plan_on, plan_off);
}

} // namespace
} // namespace flashmem::core
