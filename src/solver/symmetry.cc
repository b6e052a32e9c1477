#include "solver/symmetry.hh"

#include <algorithm>
#include <limits>

namespace flashmem::solver {

namespace {

/**
 * Weight cap for the leader function. Positional weights are the
 * running product of the later positions' domain sizes (true lex
 * order) until the product would pass this cap; from there every
 * weight saturates. Chosen so |f| stays far below int64 overflow for
 * any realistic block (cap * positions * domain span << 2^63).
 */
constexpr std::int64_t kWeightCap = 1'000'000;

/**
 * Canonical flat encoding of one constraint with every variable v
 * renamed to rename(v): [sorted (var, coef) pairs..., lo, hi]. Term
 * order inside a row is irrelevant to its meaning, so terms are sorted
 * after renaming to make the encoding comparison-stable.
 */
template <typename Rename>
std::vector<std::int64_t>
encodeRow(const LinearConstraint &c, Rename rename)
{
    std::vector<std::pair<VarId, std::int64_t>> terms;
    terms.reserve(c.terms.size());
    for (const LinearTerm &t : c.terms)
        terms.emplace_back(rename(t.var), t.coef);
    std::sort(terms.begin(), terms.end());
    std::vector<std::int64_t> flat;
    flat.reserve(2 * terms.size() + 2);
    for (const auto &[var, coef] : terms) {
        flat.push_back(var);
        flat.push_back(coef);
    }
    flat.push_back(c.lo);
    flat.push_back(c.hi);
    return flat;
}

template <typename Rename>
std::vector<std::int64_t>
encodeRow(const Implication &imp, Rename rename)
{
    return {rename(imp.x), imp.xThreshold, rename(imp.y), imp.yBound};
}

/**
 * Per-model state shared by every pair check: the dense objective
 * coefficients and a permutation that is the identity between checks.
 */
class SwapChecker
{
  public:
    explicit SwapChecker(const CpModel &model)
        : model_(model), obj_(model.varCount(), 0),
          perm_(model.varCount())
    {
        for (const LinearTerm &t : model.objective())
            obj_[t.var] += t.coef;
        for (std::size_t v = 0; v < perm_.size(); ++v)
            perm_[v] = static_cast<VarId>(v);
    }

    /** See blocksInterchangeable(). */
    bool
    interchangeable(const VarBlock &a, const VarBlock &b)
    {
        if (a.vars.size() != b.vars.size() || a.vars.empty())
            return false;
        const bool ok = buildSwap(a, b) && swapPreservesModel(a, b);
        // Every entry the swap may have moved lies in a or b.
        for (std::size_t i = 0; i < a.vars.size(); ++i) {
            perm_[a.vars[i]] = a.vars[i];
            perm_[b.vars[i]] = b.vars[i];
        }
        return ok;
    }

  private:
    /** Set perm_ to the transposition; false on overlap (a shared
     * variable has no well-defined swap image). */
    bool
    buildSwap(const VarBlock &a, const VarBlock &b)
    {
        for (std::size_t i = 0; i < a.vars.size(); ++i) {
            const VarId av = a.vars[i];
            const VarId bv = b.vars[i];
            if (av == bv || perm_[av] != av || perm_[bv] != bv)
                return false;
            perm_[av] = bv;
            perm_[bv] = av;
        }
        return true;
    }

    bool
    swapPreservesModel(const VarBlock &a, const VarBlock &b)
    {
        // Per-position domains must match or the swap is not a
        // bijection on assignments; equal objective coefficients per
        // position keep the objective invariant (variables outside the
        // blocks are fixed points of the swap).
        for (std::size_t i = 0; i < a.vars.size(); ++i) {
            const VarId av = a.vars[i];
            const VarId bv = b.vars[i];
            if (model_.lowerBound(av) != model_.lowerBound(bv) ||
                model_.upperBound(av) != model_.upperBound(bv) ||
                obj_[av] != obj_[bv])
                return false;
        }

        // The multiset of rows must be unchanged by the renaming.
        // Rows that mention neither block are fixed by the swap and
        // cancel out of both multisets, so only the rows watching a
        // block variable are encoded. Exact comparison (sorted
        // canonical encodings): a "symmetric" verdict is a proof.
        auto touching = [&](auto watching) {
            std::vector<std::int32_t> ids;
            for (const VarBlock *blk : {&a, &b}) {
                for (VarId v : blk->vars) {
                    const auto &w = watching(v);
                    ids.insert(ids.end(), w.begin(), w.end());
                }
            }
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
            return ids;
        };
        const auto cons = touching([&](VarId v) -> const auto & {
            return model_.constraintsWatching(v);
        });
        const auto imps = touching([&](VarId v) -> const auto & {
            return model_.implicationsWatching(v);
        });
        return sameUnderSwap(cons, model_.constraints()) &&
               sameUnderSwap(imps, model_.implications());
    }

    template <typename Row>
    bool
    sameUnderSwap(const std::vector<std::int32_t> &ids,
                  const std::vector<Row> &rows) const
    {
        std::vector<std::vector<std::int64_t>> plain, swapped;
        plain.reserve(ids.size());
        swapped.reserve(ids.size());
        for (auto id : ids) {
            plain.push_back(encodeRow(rows[id], [](VarId v) { return v; }));
            swapped.push_back(encodeRow(
                rows[id], [this](VarId v) { return perm_[v]; }));
        }
        std::sort(plain.begin(), plain.end());
        std::sort(swapped.begin(), swapped.end());
        return plain == swapped;
    }

    const CpModel &model_;
    std::vector<std::int64_t> obj_;
    std::vector<VarId> perm_;
};

/** Leader-function weights for one block (see addSymmetryBreaking). */
std::vector<std::int64_t> leaderWeights(const CpModel &model,
                                        const VarBlock &block)
{
    const int n = static_cast<int>(block.vars.size());
    std::vector<std::int64_t> w(n, 1);
    for (int i = n - 2; i >= 0; --i) {
        const VarId next = block.vars[i + 1];
        const std::int64_t span =
            model.upperBound(next) - model.lowerBound(next) + 1;
        if (span <= 0 || span > kWeightCap || w[i + 1] > kWeightCap / span)
            w[i] = kWeightCap;
        else
            w[i] = std::min(w[i + 1] * span, kWeightCap);
    }
    return w;
}

std::int64_t leaderValue(const VarBlock &block,
                         const std::vector<std::int64_t> &weights,
                         const std::vector<std::int64_t> &values)
{
    std::int64_t f = 0;
    for (std::size_t i = 0; i < block.vars.size(); ++i)
        f += weights[i] * values[block.vars[i]];
    return f;
}

} // namespace

bool blocksInterchangeable(const CpModel &model, const VarBlock &a,
                           const VarBlock &b)
{
    return SwapChecker(model).interchangeable(a, b);
}

std::vector<std::vector<int>>
groupInterchangeableBlocks(const CpModel &model,
                           const std::vector<VarBlock> &blocks)
{
    SwapChecker checker(model);
    std::vector<std::vector<int>> chains;
    for (int i = 0; i < static_cast<int>(blocks.size()); ++i) {
        bool placed = false;
        for (auto &chain : chains) {
            if (checker.interchangeable(blocks[chain.back()],
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

int addSymmetryBreaking(CpModel &model, const std::vector<VarBlock> &blocks,
                        const std::vector<std::vector<int>> &groups)
{
    int rows = 0;
    for (const auto &group : groups) {
        // Per-position domains are equal across the group, so one
        // weight vector serves every member.
        const std::vector<std::int64_t> w =
            leaderWeights(model, blocks[group.front()]);
        for (std::size_t k = 0; k + 1 < group.size(); ++k) {
            const VarBlock &lead = blocks[group[k]];
            const VarBlock &follow = blocks[group[k + 1]];
            std::vector<LinearTerm> terms;
            terms.reserve(2 * lead.vars.size());
            for (std::size_t i = 0; i < lead.vars.size(); ++i) {
                terms.push_back({lead.vars[i], w[i]});
                terms.push_back({follow.vars[i], -w[i]});
            }
            model.addLessOrEqual(std::move(terms), 0);
            ++rows;
        }
    }
    return rows;
}

void canonicalizeHint(const CpModel &model,
                      const std::vector<VarBlock> &blocks,
                      const std::vector<std::vector<int>> &groups,
                      std::vector<std::int64_t> &hint)
{
    if (hint.size() != model.varCount())
        return;
    for (const auto &group : groups) {
        const std::vector<std::int64_t> w =
            leaderWeights(model, blocks[group.front()]);
        std::vector<std::pair<std::int64_t, int>> order;
        order.reserve(group.size());
        for (int idx : group)
            order.emplace_back(leaderValue(blocks[idx], w, hint), idx);
        std::stable_sort(order.begin(), order.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        // Slot k of the group receives the value tuple of the k-th
        // smallest-f member; copy out first so swaps don't alias.
        std::vector<std::vector<std::int64_t>> tuples;
        tuples.reserve(group.size());
        for (const auto &[f, idx] : order) {
            std::vector<std::int64_t> tuple;
            tuple.reserve(blocks[idx].vars.size());
            for (VarId v : blocks[idx].vars)
                tuple.push_back(hint[v]);
            tuples.push_back(std::move(tuple));
        }
        for (std::size_t k = 0; k < group.size(); ++k) {
            const VarBlock &target = blocks[group[k]];
            for (std::size_t i = 0; i < target.vars.size(); ++i)
                hint[target.vars[i]] = tuples[k][i];
        }
    }
}

} // namespace flashmem::solver
