/**
 * @file
 * Tests for symmetry detection and breaking (solver/symmetry.hh) on
 * window-shaped CP models: interchangeable blocks are grouped exactly,
 * and lex rows keep the optimum while cutting conflicts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
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

// ------------------------------------- row-local verification oracle

/**
 * The whole-model interchangeability check: encode every row and
 * implication under the swap and under the identity and compare the
 * sorted multisets. blocksInterchangeable() encodes only the rows that
 * touch the two blocks; its verdicts must equal this one's.
 */
bool
wholeModelInterchangeable(const CpModel &model, const VarBlock &a,
                          const VarBlock &b)
{
    if (a.vars.size() != b.vars.size() || a.vars.empty())
        return false;
    std::vector<VarId> perm(model.varCount());
    for (std::size_t v = 0; v < perm.size(); ++v)
        perm[v] = static_cast<VarId>(v);
    for (std::size_t i = 0; i < a.vars.size(); ++i) {
        const VarId av = a.vars[i], bv = b.vars[i];
        if (av == bv || perm[av] != av || perm[bv] != bv)
            return false;
        perm[av] = bv;
        perm[bv] = av;
    }
    std::vector<std::int64_t> obj(model.varCount(), 0);
    for (const LinearTerm &t : model.objective())
        obj[t.var] += t.coef;
    for (std::size_t i = 0; i < a.vars.size(); ++i) {
        const VarId av = a.vars[i], bv = b.vars[i];
        if (model.lowerBound(av) != model.lowerBound(bv) ||
            model.upperBound(av) != model.upperBound(bv) ||
            obj[av] != obj[bv])
            return false;
    }
    auto rows = [&](bool swap) {
        auto name = [&](VarId v) { return swap ? perm[v] : v; };
        std::vector<std::vector<std::int64_t>> out;
        for (const auto &c : model.constraints()) {
            std::vector<std::pair<VarId, std::int64_t>> terms;
            for (const auto &t : c.terms)
                terms.emplace_back(name(t.var), t.coef);
            std::sort(terms.begin(), terms.end());
            std::vector<std::int64_t> flat{0};
            for (const auto &[v, coef] : terms) {
                flat.push_back(v);
                flat.push_back(coef);
            }
            flat.push_back(c.lo);
            flat.push_back(c.hi);
            out.push_back(std::move(flat));
        }
        for (const auto &i : model.implications())
            out.push_back({1, name(i.x), i.xThreshold, name(i.y),
                           i.yBound});
        std::sort(out.begin(), out.end());
        return out;
    };
    return rows(true) == rows(false);
}

/** groupInterchangeableBlocks() spelled out over the oracle. */
std::vector<std::vector<int>>
wholeModelGroups(const CpModel &model, const std::vector<VarBlock> &blocks)
{
    std::vector<std::vector<int>> chains;
    for (int i = 0; i < static_cast<int>(blocks.size()); ++i) {
        bool placed = false;
        for (auto &chain : chains) {
            if (wholeModelInterchangeable(model, blocks[chain.back()],
                                          blocks[i])) {
                chain.push_back(i);
                placed = true;
                break;
            }
        }
        if (!placed)
            chains.push_back({i});
    }
    std::vector<std::vector<int>> groups;
    for (auto &chain : chains)
        if (chain.size() >= 2)
            groups.push_back(std::move(chain));
    return groups;
}

/** Pairwise verdicts and the grouping both match the oracle. */
void
expectMatchesOracle(const CpModel &model,
                    const std::vector<VarBlock> &blocks)
{
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        for (std::size_t j = 0; j < blocks.size(); ++j) {
            EXPECT_EQ(blocksInterchangeable(model, blocks[i], blocks[j]),
                      wholeModelInterchangeable(model, blocks[i],
                                                blocks[j]))
                << "blocks " << i << ", " << j;
        }
    }
    EXPECT_EQ(groupInterchangeableBlocks(model, blocks),
              wholeModelGroups(model, blocks));
}

TEST(SymmetryTest, RowLocalVerdictsMatchWholeModelOracleOnRandomModels)
{
    // Symmetric windows with random extra rows and implications: some
    // pin one block, some tie two blocks symmetrically (the swap maps
    // them onto themselves), some tie them asymmetrically.
    Rng rng(77);
    int symmetric_pairs = 0;
    for (int trial = 0; trial < 200; ++trial) {
        auto w = symmetricWindow(static_cast<int>(rng.uniformInt(3, 6)),
                                 static_cast<int>(rng.uniformInt(1, 3)),
                                 rng.uniformInt(1, 3),
                                 rng.uniformInt(1, 4));
        const auto nblocks = static_cast<std::int64_t>(w.blocks.size());
        const auto width =
            static_cast<std::int64_t>(w.blocks[0].vars.size());
        auto pick = [&](std::int64_t blk, std::int64_t pos) {
            return w.blocks[blk].vars[pos];
        };
        const int extras = static_cast<int>(rng.uniformInt(0, 3));
        for (int e = 0; e < extras; ++e) {
            const auto a = rng.uniformInt(0, nblocks - 1);
            const auto b = rng.uniformInt(0, nblocks - 1);
            const auto pos = rng.uniformInt(0, width - 2);
            switch (rng.uniformInt(0, 3)) {
              case 0:
                w.model.addLessOrEqual({{pick(a, pos), 1}},
                                       rng.uniformInt(0, 3));
                break;
              case 1:
                w.model.addLessOrEqual(
                    {{pick(a, pos), 1}, {pick(b, pos), 1}},
                    rng.uniformInt(1, 4));
                break;
              case 2:
                w.model.addLessOrEqual(
                    {{pick(a, pos), 2}, {pick(b, pos), 1}},
                    rng.uniformInt(1, 4));
                break;
              default:
                w.model.addImplicationGeLe(pick(a, pos), 1,
                                           pick(b, pos + 1), 1);
                break;
            }
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectMatchesOracle(w.model, w.blocks);
        for (const auto &g : groupInterchangeableBlocks(w.model, w.blocks))
            symmetric_pairs += static_cast<int>(g.size()) - 1;
    }
    EXPECT_GT(symmetric_pairs, 100);
}

} // namespace
} // namespace flashmem::solver
